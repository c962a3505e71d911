// Command benchgate compares fresh `go test -bench` output against the
// repository's checked-in benchmark baselines and fails on regressions, so
// CI catches performance drift instead of silently uploading artifacts.
//
// Every BENCH_*.json file in -dir has one shape:
//
//	{"description": "...",
//	 "benchmarks": {"<bench name>": {"<metric key>": {"value": v, "kind": "<kind>"}}}}
//
// The bench name is what `go test -bench` prints without the Benchmark
// prefix and the -N GOMAXPROCS suffix ("GEMM/20x500x576"). The metric key
// is the unit the benchmark prints ("sim_ms", "GFLOPS", "allocs/op",
// "events/op", "events/sec", "req/s", "ns/op", "mean-batch"), optionally
// followed by "@qualifier". The kind says how the fresh value is judged:
//
//   - higher — higher is better; fails when it falls more than -tol
//     (GFLOPS, events/sec, req/s: host-dependent but order-of-magnitude
//     stable, so a dropped SIMD path or coalescing path trips it);
//   - lower — lower is better; fails when it rises more than -tol (sim_ms:
//     the simulated completion time, a pure function of the cost models, so
//     any drift is a behavioural change, never runner noise);
//   - exact — fails on any increase at all (allocs/op of an allocation-free
//     hot path, the deterministic events/op of a simulated workload);
//   - ceiling — an absolute upper bound (the real-CPU ns/op of the P=1024
//     sweep point); -update never rewrites it;
//   - report — printed for reference, never gated (host-speed ns/op).
//
// The qualifier rule: a key "unit@q" applies only when q is the running
// kernel tier (-tier, by default the tier this host dispatches to, honoring
// GODEBUG cpu.* downgrades); an unqualified key applies on every tier. So
// GEMM rates are keyed GFLOPS@avx512, GFLOPS@avx2, GFLOPS@sse2 and only the
// running tier's key is compared; when a unit's gated keys all name other
// tiers the row reports MISSING. The same rule lets one unit carry two
// values: the P=1024 point's tier-independent ns/op ceiling beside its
// ns/op@avx512 reference measurement. A qualifier that names no tier
// ("@pre-engine") never applies, which keeps historical figures on record.
//
// -update rewrites, from the fresh results, every applicable measured value
// except ceilings, and adds the running tier's key where only other tiers
// have one; keys of other tiers stay byte-identical. Adding a gated metric
// is one JSON entry and needs no code. An unknown field or kind, a repeated
// key or a malformed qualifier is a load error.
//
// Usage:
//
//	go test -run '^$' -bench ... ./... | tee bench.txt
//	benchgate -bench bench.txt            # gate against ./BENCH_*.json
//	benchgate -bench bench.txt -update    # rewrite baselines from fresh results
//
// With GITHUB_STEP_SUMMARY set, a markdown report is appended for the job
// summary. Exit status 1 on any FAIL or MISSING row, 2 on a usage, parse or
// load error.
package main

import (
	"flag"
	"fmt"
	"os"

	"scaledl/internal/tensor"
)

func main() {
	var (
		benchPath = flag.String("bench", "bench.txt", "go test -bench output to gate")
		dir       = flag.String("dir", ".", "directory holding the BENCH_*.json baselines")
		tol       = flag.Float64("tol", 0.15, "allowed fractional regression of higher/lower metrics before failing")
		update    = flag.Bool("update", false, "rewrite the baselines' measured values (never ceilings) from the fresh results")
		tier      = flag.String("tier", tensor.KernelTier(),
			"kernel tier that tier-qualified metric keys (unit@tier) are gated and updated under (default: the tier this host dispatches to, honoring GODEBUG cpu.* downgrades)")
	)
	flag.Parse()

	fmt.Printf("benchgate: gating tier-qualified metrics under kernel tier %q\n", *tier)
	results, err := parseBenchFile(*benchPath)
	if err != nil {
		fatal(err)
	}
	rows, err := gate(*dir, *tier, results, *tol, *update)
	if err != nil {
		fatal(err)
	}
	printTable(os.Stdout, rows)
	if summary := os.Getenv("GITHUB_STEP_SUMMARY"); summary != "" && !*update {
		f, err := os.OpenFile(summary, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err == nil {
			writeMarkdown(f, rows, *tol, *tier)
			f.Close()
		}
	}
	failed := 0
	for _, r := range rows {
		if r.Status == statusFail || r.Status == statusMissing {
			failed++
		}
	}
	if *update {
		fmt.Println("baselines updated")
		return
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d gated metric(s) failed or missing\n", failed)
		os.Exit(1)
	}
	fmt.Printf("benchgate: all gated metrics within their bounds (tolerance %.0f%%)\n", *tol*100)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(2)
}
