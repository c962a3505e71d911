package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinySize runs every workload in seconds.
var tinySize = size{setups: 1, trainN: 256, testN: 64, lenetIters: 4, tinyIters: 16, probeReps: 1, bodies: 8}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// lastLine decodes the result line the benchmark prints last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// namedMetrics are the metric names the report prints per workload, in
// the terms of the workload's own domain.
var namedMetrics = map[string][]string{
	"train-sync-lenet": {"train_samples_per_s", "sim_step_ms", "setup_s", "peak_rss_mb"},
	"train-async-tiny": {"train_samples_per_s", "sim_step_ms", "setup_s", "peak_rss_mb"},
	"cluster-sweep":    {"sweep_points_per_s", "sim_step_ms", "sim_allreduce_ms", "setup_s", "peak_rss_mb"},
	"serve-c1":         {"serve_solo_p50_ms", "serve_solo_p99_ms", "setup_s", "peak_rss_mb"},
	"serve-c32":        {"serve_rps", "serve_p50_ms", "serve_p99_ms", "setup_s", "peak_rss_mb"},
}

func TestEveryWorkloadPrintsItsMetricsAndPassesItsChecks(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := workloadByName(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not run", sw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := runEndToEnd(options{seed: 7, seconds: 0.2, size: tinySize}, w, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.EndToEnd))
			}
			for _, e := range spec.EndToEnd {
				m, ok := res.Metrics[e.Name]
				if !ok || m.Unit != e.Unit || !(m.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value in %s", e.Name, m, e.Unit)
				}
			}
			for _, n := range namedMetrics[w.name] {
				if !strings.Contains(out.String(), "  "+n+" ") {
					t.Errorf("report does not print %s:\n%s", n, out.String())
				}
			}
			if strings.Contains(out.String(), "MISSED") {
				t.Errorf("a check missed:\n%s", out.String())
			}
		})
	}
}

func TestTracedRunPrintsEveryPerLayerMetric(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	var out bytes.Buffer
	res, err := runTraced(options{seed: 3, seconds: 1, size: tinySize, spanDir: dir}, "serve-c1", &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
	}
	want := map[string]string{}
	for _, p := range spec.PerLayer {
		want[p.Name] = p.Unit
	}
	if len(want) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("per-layer metric %s = %+v, want a finite value in %s", name, m, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("traced run prints %s, which BENCHMARK.json does not list", name)
		}
	}
	for _, s := range []string{"tracing overhead", "cost-model gap, lenet", "cost-model gap, tinycnn", "spans by self time"} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("traced report lacks %q", s)
		}
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), "  "+w.name+" ") {
			t.Errorf("no tracing overhead reported for %s", w.name)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "spans-serve-c1-seed3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("spans file: %d spans, %v", len(spans), err)
	}
	for _, s := range spans {
		if s.End < s.Start || s.Parent >= s.ID || s.Op < 1 {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

func TestCorruptedLogitsCountAsFailed(t *testing.T) {
	st, err := setupServe(options{seed: 5, size: tinySize}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := st.(*serveState)
	defer s.close()
	for _, w := range s.want {
		w[3] = math.Float32frombits(math.Float32bits(w[3]) ^ 1)
	}
	for name, pass := range map[string]func(time.Duration, *tracer, *tally) passStats{
		"http":    s.pass,
		"batcher": s.batcherPass,
	} {
		var tl tally
		pass(20*time.Millisecond, nil, &tl)
		res := tl.result(nil)
		if res.Attempted == 0 || res.Failed != res.Attempted || res.Correct {
			t.Errorf("%s: attempted=%d failed=%d correct=%v, want every corrupted response failed", name, res.Attempted, res.Failed, res.Correct)
		}
	}
}

func TestUnknownWorkloadFailsWithoutResult(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Errorf("printed a result for an unknown workload: %s", out.String())
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "kid", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "kid", Start: 20, End: 50},
		{ID: 3, Parent: 0, Name: "kid", Start: 60, End: 70},
		{ID: 4, Parent: 0, Name: "kid", Start: 95, End: 120},
	}}
	st := tr.selfTimes()
	if got := st["root"][1] * 1e6; got != 45 {
		t.Errorf("root self time %v ns, want 45 (100 minus the union 10-50, 60-70, 95-100)", got)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {99, 5}, {1, 1}, {20, 1}, {21, 2}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}
