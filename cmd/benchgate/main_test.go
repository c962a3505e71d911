package main

import (
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// fixture is a synthetic BENCH_x.json with every kind, a tier-keyed unit and
// a unit carrying both a ceiling and a tier-qualified reference. It is in
// the writer's canonical form (TestEncodeIsCanonical), so -update diffs of
// it are line-exact.
const fixture = `{
  "description": "synthetic",
  "benchmarks": {
    "Ceil": {
      "ns/op": {"value":2000,"kind":"ceiling"},
      "ns/op@avx512": {"value":800,"kind":"report"}
    },
    "Exact": {
      "allocs/op": {"value":0,"kind":"exact"}
    },
    "Higher": {
      "mean-batch": {"value":8,"kind":"report"},
      "req/s": {"value":1000,"kind":"higher"}
    },
    "Lower": {
      "ns/op": {"value":100,"kind":"report"},
      "sim_ms": {"value":5,"kind":"lower"}
    },
    "Tiered": {
      "GFLOPS@avx2": {"value":10,"kind":"higher"},
      "GFLOPS@avx512": {"value":20,"kind":"higher"},
      "GFLOPS@pre-engine": {"value":2,"kind":"report"}
    }
  }
}
`

// atBaseline is a fresh run that meets every fixture baseline under avx512.
func atBaseline() map[string]map[string]float64 {
	return map[string]map[string]float64{
		"Ceil":   {"ns/op": 800},
		"Exact":  {"allocs/op": 0},
		"Higher": {"req/s": 1000, "mean-batch": 8},
		"Lower":  {"sim_ms": 5, "ns/op": 100},
		"Tiered": {"GFLOPS": 20},
	}
}

// benchText renders fresh results as `go test -bench` output.
func benchText(fresh map[string]map[string]float64) string {
	var sb strings.Builder
	sb.WriteString("goos: linux\ngoarch: amd64\npkg: scaledl/x\n")
	for _, name := range slices.Sorted(maps.Keys(fresh)) {
		sb.WriteString("Benchmark" + name + "-2 \t 10\t")
		for _, unit := range slices.Sorted(maps.Keys(fresh[name])) {
			sb.WriteString(" " + strconv.FormatFloat(fresh[name][unit], 'g', -1, 64) + " " + unit + "\t")
		}
		sb.WriteString("\n")
	}
	return sb.String() + "PASS\n"
}

// writeFixture puts the fixture in a fresh directory as BENCH_x.json.
func writeFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_x.json"), []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// runGate gates fresh (through the bench-output parser) against dir.
func runGate(t *testing.T, dir, tier string, fresh map[string]map[string]float64, update bool) []gateRow {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(benchText(fresh)), 0o644); err != nil {
		t.Fatal(err)
	}
	results, err := parseBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := gate(dir, tier, results, 0.15, update)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func gated(status string) bool { return status != statusReport && status != statusSkipped }

// One table covers every kind: a case names the rows it expects not to be
// ok (keyed "bench metric-key"); every other gated row must be ok.
func TestGate(t *testing.T) {
	tests := []struct {
		name string
		tier string
		set  map[string]float64 // "bench unit" → fresh value
		drop string             // "bench" or "bench unit" left out of the run
		want map[string]string
	}{
		{name: "at_baseline"},
		{name: "lower_within_tolerance", set: map[string]float64{"Lower sim_ms": 5.7}},
		{name: "lower_past_tolerance", set: map[string]float64{"Lower sim_ms": 5.8},
			want: map[string]string{"Lower sim_ms": statusFail}},
		{name: "lower_better", set: map[string]float64{"Lower sim_ms": 4},
			want: map[string]string{"Lower sim_ms": statusImproved}},
		{name: "higher_past_tolerance", set: map[string]float64{"Higher req/s": 840},
			want: map[string]string{"Higher req/s": statusFail}},
		{name: "higher_better", set: map[string]float64{"Higher req/s": 1200},
			want: map[string]string{"Higher req/s": statusImproved}},
		{name: "exact_plus_one", set: map[string]float64{"Exact allocs/op": 1},
			want: map[string]string{"Exact allocs/op": statusFail}},
		{name: "ceiling_breach", set: map[string]float64{"Ceil ns/op": 2001},
			want: map[string]string{"Ceil ns/op": statusFail}},
		{name: "ceiling_far_below_is_ok", set: map[string]float64{"Ceil ns/op": 100}},
		{name: "tier_GFLOPS_past_tolerance", set: map[string]float64{"Tiered GFLOPS": 16.8},
			want: map[string]string{"Tiered GFLOPS@avx512": statusFail}},
		{name: "tier_gates_its_own_key", tier: "avx2",
			want: map[string]string{"Tiered GFLOPS@avx2": statusImproved}},
		{name: "tier_with_no_key", tier: "neon", set: map[string]float64{"Tiered GFLOPS": 7.5},
			want: map[string]string{"Tiered GFLOPS@neon": statusMissing}},
		{name: "benchmark_did_not_run", drop: "Lower",
			want: map[string]string{"Lower sim_ms": statusMissing}},
		{name: "metric_not_reported", drop: "Higher req/s",
			want: map[string]string{"Higher req/s": statusMissing}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tier := tc.tier
			if tier == "" {
				tier = "avx512"
			}
			fresh := atBaseline()
			for k, v := range tc.set {
				name, unit, _ := strings.Cut(k, " ")
				fresh[name][unit] = v
			}
			if name, unit, ok := strings.Cut(tc.drop, " "); ok {
				delete(fresh[name], unit)
			} else {
				delete(fresh, name)
			}
			rows := runGate(t, writeFixture(t), tier, fresh, false)

			seen := map[string]bool{}
			for i, r := range rows {
				key := r.Name + " " + r.Metric
				seen[key] = true
				if _, q, ok := strings.Cut(r.Metric, "@"); ok && q != tier {
					t.Errorf("%s: key of another tier produced a row", key)
				}
				if i > 0 && severity(r.Status) < severity(rows[i-1].Status) {
					t.Errorf("rows not sorted most severe first: %+v", rows)
				}
				want, ok := tc.want[key]
				if !ok && gated(r.Status) {
					want = statusOK
				}
				if ok || gated(r.Status) {
					if r.Status != want {
						t.Errorf("%s: status %s, want %s (%+v)", key, r.Status, want, r)
					}
				}
				if r.Status == statusMissing && strings.HasPrefix(r.Metric, "GFLOPS@") &&
					(!strings.Contains(r.Note, `"neon"`) || !strings.Contains(r.Note, "avx2, avx512")) {
					t.Errorf("MISSING-tier note should name the missing and recorded tiers: %q", r.Note)
				}
			}
			for key := range tc.want {
				if !seen[key] {
					t.Errorf("no row for %s: %+v", key, rows)
				}
			}
			if tc.name == "at_baseline" {
				// 5 gated rows + the 3 applicable references; the avx2 and
				// pre-engine keys stay silent.
				if len(rows) != 8 {
					t.Errorf("%d rows at baseline, want 8: %+v", len(rows), rows)
				}
			}
		})
	}
}

// -update rewrites every applicable measured value but never a ceiling,
// records a key for a new tier, and leaves other tiers' lines byte-identical.
func TestGateUpdateRewritesBaselines(t *testing.T) {
	dir := writeFixture(t)
	path := filepath.Join(dir, "BENCH_x.json")
	fresh := atBaseline()
	fresh["Lower"]["sim_ms"] = 6.5
	fresh["Lower"]["ns/op"] = 120
	fresh["Higher"]["req/s"] = 1300
	fresh["Higher"]["mean-batch"] = 7.9
	fresh["Ceil"]["ns/op"] = 2500
	fresh["Tiered"]["GFLOPS"] = 25

	runGate(t, dir, "avx512", fresh, true)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadBaseline(raw)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"Lower sim_ms": 6.5, "Lower ns/op": 120, "Higher req/s": 1300, "Higher mean-batch": 7.9,
		"Ceil ns/op": 2000, "Ceil ns/op@avx512": 2500, "Tiered GFLOPS@avx512": 25,
		"Tiered GFLOPS@avx2": 10, "Tiered GFLOPS@pre-engine": 2, "Exact allocs/op": 0,
	} {
		name, metric, _ := strings.Cut(key, " ")
		if got := b.Benchmarks[name][metric].Value; got != want {
			t.Errorf("after -update %s = %v, want %v", key, got, want)
		}
	}
	for _, line := range strings.Split(fixture, "\n") {
		if strings.Contains(line, `"ceiling"`) || strings.Contains(line, "@avx2") || strings.Contains(line, "@pre-engine") {
			if !strings.Contains(string(raw), line+"\n") {
				t.Errorf("-update changed %q", strings.TrimSpace(line))
			}
		}
	}
	// The ceiling still fails: -update accepts measurements, not breaches.
	rows := runGate(t, dir, "avx512", fresh, false)
	for _, r := range rows {
		if gated(r.Status) && r.Status != statusOK && !(r.Name == "Ceil" && r.Status == statusFail) {
			t.Errorf("after -update: %+v", r)
		}
	}

	// A tier with no key gets one; every other line stays as it was.
	fresh["Ceil"]["ns/op"] = 800
	fresh["Tiered"]["GFLOPS"] = 7.5
	runGate(t, dir, "neon", fresh, true)
	neon, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	added := `      "GFLOPS@neon": {"value":7.5,"kind":"higher"},` + "\n"
	if string(neon) != strings.Replace(string(raw), `      "GFLOPS@pre-engine"`, added+`      "GFLOPS@pre-engine"`, 1) {
		t.Errorf("-update under a new tier should add exactly one line:\n%s", neon)
	}
	for _, r := range runGate(t, dir, "neon", fresh, false) {
		if gated(r.Status) && r.Status != statusOK {
			t.Errorf("after recording the tier: %+v", r)
		}
	}
}

// The writer's output is the fixture byte for byte, and decodes back.
func TestEncodeIsCanonical(t *testing.T) {
	b, err := loadBaseline([]byte(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(encode(b)); got != fixture {
		t.Errorf("encode differs from the canonical fixture:\n%s", got)
	}
}

// A malformed baseline is a load error naming the file, never a silently
// ungated metric.
func TestLoadRejects(t *testing.T) {
	ok := `{"description":"d","benchmarks":{"B":{"sim_ms":{"value":1,"kind":"lower"}}}}`
	if _, err := loadBaseline([]byte(ok)); err != nil {
		t.Fatalf("valid baseline rejected: %v", err)
	}
	for name, body := range map[string]string{
		"unknown kind":        `{"description":"d","benchmarks":{"B":{"sim_ms":{"value":1,"kind":"less"}}}}`,
		"missing kind":        `{"description":"d","benchmarks":{"B":{"sim_ms":{"value":1}}}}`,
		"unknown entry field": `{"description":"d","benchmarks":{"B":{"sim_ms":{"value":1,"kind":"lower","tol":0.1}}}}`,
		"unknown file field":  `{"description":"d","notes":"n","benchmarks":{"B":{"sim_ms":{"value":1,"kind":"lower"}}}}`,
		"repeated qualifier":  `{"description":"d","benchmarks":{"B":{"GFLOPS@avx2":{"value":1,"kind":"higher"},"GFLOPS@avx2":{"value":2,"kind":"higher"}}}}`,
		"repeated benchmark":  `{"description":"d","benchmarks":{"B":{"sim_ms":{"value":1,"kind":"lower"}},"B":{"ns/op":{"value":1,"kind":"report"}}}}`,
		"empty qualifier":     `{"description":"d","benchmarks":{"B":{"GFLOPS@":{"value":1,"kind":"higher"}}}}`,
		"double qualifier":    `{"description":"d","benchmarks":{"B":{"GFLOPS@a@b":{"value":1,"kind":"higher"}}}}`,
		"empty unit":          `{"description":"d","benchmarks":{"B":{"@avx2":{"value":1,"kind":"higher"}}}}`,
		"zero higher":         `{"description":"d","benchmarks":{"B":{"req/s":{"value":0,"kind":"higher"}}}}`,
		"negative ceiling":    `{"description":"d","benchmarks":{"B":{"ns/op":{"value":-1,"kind":"ceiling"}}}}`,
		"null entry":          `{"description":"d","benchmarks":{"B":{"sim_ms":null}}}`,
		"no metrics":          `{"description":"d","benchmarks":{"B":{}}}`,
		"no benchmarks":       `{"description":"d"}`,
		"old shape":           `{"description":"d","benchmarks":{"BenchmarkX":{"ns_per_op":1,"sim_ms":1}}}`,
		"trailing data":       ok + `{}`,
		"not JSON":            `benchmarks`,
	} {
		if _, err := loadBaseline([]byte(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "BENCH_bad.json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := gate(dir, "avx512", nil, 0.15, false); err == nil || !strings.Contains(err.Error(), "BENCH_bad.json") {
			t.Errorf("%s: gate error %v should name the file", name, err)
		}
	}
}

// The checked-in baselines load, and with no fresh results every gated
// metric surfaces as MISSING — proving each one is actually gated.
func TestRealBaselinesParse(t *testing.T) {
	root := filepath.Join("..", "..")
	paths, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checked-in BENCH_*.json: %v", err)
	}
	rows, err := gate(root, "avx512", map[string]benchResult{}, 0.15, false)
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	for _, r := range rows {
		switch r.Status {
		case statusMissing:
			missing++
		case statusSkipped:
		default:
			t.Errorf("unexpected %s row with empty fresh results: %+v", r.Status, r)
		}
	}
	if missing == 0 {
		t.Error("no gated baselines found in checked-in BENCH_*.json")
	}
}

func FuzzParseBench(f *testing.F) {
	f.Add(benchText(atBaseline()))
	f.Fuzz(func(t *testing.T, text string) {
		results, err := parseBench(strings.NewReader(text))
		if err != nil {
			return
		}
		for name, r := range results {
			if name == "" || r.Name != name {
				t.Errorf("bad result name %q / %q", name, r.Name)
			}
			for unit, v := range r.Metrics {
				// A NaN would compare as neither better nor worse: ok.
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: non-finite %s %v accepted", name, unit, v)
				}
			}
		}
	})
}

func FuzzLoadBaseline(f *testing.F) {
	f.Add([]byte(fixture))
	paths, _ := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	for _, p := range paths {
		if raw, err := os.ReadFile(p); err == nil {
			f.Add(raw)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, err := loadBaseline(raw)
		if err != nil {
			return
		}
		// With no fresh results, every applicable gated key is MISSING.
		rows, changed := gateBaseline("BENCH_fuzz.json", b, "avx512", nil, 0.15, true)
		if changed {
			t.Error("-update with no fresh results changed the baseline")
		}
		missing := map[string]bool{}
		for _, r := range rows {
			if r.Status == statusMissing {
				missing[r.Name+"\x00"+r.Metric] = true
			} else if r.Status != statusSkipped {
				t.Errorf("row %+v with no fresh results", r)
			}
		}
		for name, metrics := range b.Benchmarks {
			for key, e := range metrics {
				_, q, _ := strings.Cut(key, "@")
				if e.Kind != kindReport && (q == "" || q == "avx512") && !missing[name+"\x00"+key] {
					t.Errorf("%s %s (%s) silently ungated", name, key, e.Kind)
				}
			}
		}
		// What -update writes, the loader reads back unchanged.
		again, err := loadBaseline(encode(b))
		if err != nil {
			t.Fatalf("encoded baseline does not reload: %v\n%s", err, encode(b))
		}
		if !reflect.DeepEqual(again, b) {
			t.Errorf("encode/load round trip changed the baseline")
		}
	})
}
