package main

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// workload is one named set of inputs the benchmark runs.
// BENCHMARK.json records why each one is in the benchmark.
type workload struct {
	name  string
	setup func(o options) (state, error)
}

// state is a set-up workload, ready to measure.
type state interface {
	// warm runs one operation, so lazy initialisation is set-up time.
	warm(t *tally)
	// pass runs operations until budget is spent, at least one, recording
	// spans on tr when it is not nil.
	pass(budget time.Duration, tr *tracer, t *tally) passStats
	// named maps a pass onto the metric names the workload's own domain
	// uses (train_samples_per_s, serve_rps, ...), for the report.
	named(p passStats) map[string]metric
	close()
}

// passStats is what one measured pass produced.
type passStats struct {
	lat  []float64 // per-operation latency, ms
	rate float64   // work completed per wall second
	ops  int64
	rt   runtimeDelta
}

var workloads = []workload{
	{name: "train-sync-lenet", setup: setupSyncLeNet},
	{name: "train-async-tiny", setup: setupAsyncTiny},
	{name: "cluster-sweep", setup: setupSweep},
	{name: "serve-c1", setup: func(o options) (state, error) { return setupServe(o, 1) }},
	{name: "serve-c32", setup: func(o options) (state, error) { return setupServe(o, 32) }},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// measure runs one pass of st for the given seconds and attaches the
// runtime's allocation and GC counters over it.
func measure(st state, seconds float64, tr *tracer, t *tally) passStats {
	before := readRuntime()
	p := st.pass(time.Duration(seconds*float64(time.Second)), tr, t)
	p.rt = readRuntime().sub(before)
	return p
}

// tally counts operations attempted and failed, and the verdict of every
// named check. An operation fails when it returns an error or any of its
// checks misses. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	checks    map[string]*[2]int64 // name → {passed, missed}
	counters  map[string]int64
}

// verdict is one check's outcome on one operation.
type verdict struct {
	name string
	ok   bool
}

// record counts one operation.
func (t *tally) record(opErr error, vs ...verdict) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.checks == nil {
		t.checks = map[string]*[2]int64{}
	}
	ok := opErr == nil
	for _, v := range vs {
		c := t.checks[v.name]
		if c == nil {
			c = new([2]int64)
			t.checks[v.name] = c
		}
		if v.ok {
			c[0]++
		} else {
			c[1]++
			ok = false
		}
	}
	t.attempted++
	if !ok {
		t.failed++
	}
}

// count adds n to a named counter reported beside the operations (the
// batcher's shed and expired requests).
func (t *tally) count(name string, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.counters == nil {
		t.counters = map[string]int64{}
	}
	t.counters[name] += n
}

func (t *tally) print(out io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintf(out, "  operations: %d attempted, %d failed\n", t.attempted, t.failed)
	for _, n := range sortedKeys(t.counters) {
		fmt.Fprintf(out, "  %s: %d\n", n, t.counters[n])
	}
	for _, n := range sortedKeys(t.checks) {
		c := t.checks[n]
		status := "ok"
		if c[1] > 0 {
			status = "MISSED"
		}
		fmt.Fprintf(out, "  check %-40s %s (%d passed, %d missed)\n", n, status, c[0], c[1])
	}
}

func (t *tally) result(m map[string]metric) result {
	t.mu.Lock()
	defer t.mu.Unlock()
	return result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// percentile returns the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// sameBits reports whether two float32 slices are bit-for-bit identical.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// runtimeDelta is the Go runtime's allocation and GC cost over a pass.
type runtimeDelta struct {
	allocs, bytes float64
	gcCPU, totCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{allocs: v(0), bytes: v(1), gcCPU: v(2), totCPU: v(3)}
}

func (r runtimeDelta) sub(o runtimeDelta) runtimeDelta {
	return runtimeDelta{allocs: r.allocs - o.allocs, bytes: r.bytes - o.bytes, gcCPU: r.gcCPU - o.gcCPU, totCPU: r.totCPU - o.totCPU}
}
