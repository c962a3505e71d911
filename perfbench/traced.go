package main

import (
	"fmt"
	"io"
	"time"

	"scaledl"
	"scaledl/internal/core"
)

// probes are the layer probes of the traced run: each train workload's net
// at its batch, with LeNet's dense layers also at the serving batches.
func probes() []netProbe {
	return []netProbe{
		{def: scaledl.LeNet(mnistShape(), 10), batch: 64, denseBatches: []int{1, 32}},
		{def: scaledl.TinyCNN(mnistShape(), 10), batch: 32},
	}
}

// table3 are the six §6.1.1 categories Table 3 of the paper reports.
var table3 = []struct {
	cat  core.Category
	slug string
}{
	{core.CatGPUGPUParam, "gpu-gpu-para"},
	{core.CatCPUGPUData, "cpu-gpu-data"},
	{core.CatCPUGPUParam, "cpu-gpu-para"},
	{core.CatForwardBackward, "fwd-bwd"},
	{core.CatGPUUpdate, "gpu-update"},
	{core.CatCPUUpdate, "cpu-update"},
}

// traceVariants are the sweep's p1024 collectives.
var traceVariants = []string{"flat-tree", "hier-tree-tree", "hier-tree-rhd"}

// runTraced runs every workload untraced and then traced for an equal
// share of the budget, runs the layer probes, and returns the per-layer
// metrics. It covers every workload whichever one is named, so each traced
// result carries every per-layer metric; the name only labels the span file.
func runTraced(o options, name string, out io.Writer) (result, error) {
	tr := newTracer()
	var t tally
	m := map[string]metric{}
	// Ten passes (untraced and traced per workload) plus the batcher-only
	// pass of each serve workload share the budget.
	budget := o.seconds / float64(2*len(workloads)+2)
	var trains []*trainState
	var sweep *sweepState
	var serves []*serveState

	fmt.Fprintln(out, "tracing overhead (end-to-end metrics of the traced pass minus the untraced pass):")
	for _, w := range workloads {
		st, err := w.setup(o)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		st.warm(&t)
		un := measure(st, budget, nil, &t)
		tp := measure(st, budget, tr, &t)
		printOverhead(out, w.name, un, tp)
		ops := float64(un.ops)
		m["runtime.allocs_per_op."+w.name] = metric{un.rt.allocs / ops, "count"}
		m["runtime.alloc_kb_per_op."+w.name] = metric{un.rt.bytes / 1024 / ops, "KB"}
		share := 0.0
		if un.rt.totCPU > 0 {
			share = un.rt.gcCPU / un.rt.totCPU
		}
		m["runtime.gc_cpu_share."+w.name] = metric{share, "ratio"}
		switch s := st.(type) {
		case *trainState:
			trains = append(trains, s)
		case *sweepState:
			sweep = s
		case *serveState:
			m["serve.mean_batch."+s.phase] = metric{s.meanBatch, "count"}
			bp := s.batcherPass(time.Duration(budget*float64(time.Second)), tr, &t)
			if s.clients > 1 {
				m["serve.batcher."+s.phase+".rps"] = metric{bp.rate, "1/s"}
			}
			serves = append(serves, s)
		}
		st.close()
	}

	stepMs := map[string]float64{}
	for _, p := range probes() {
		p.run(tr, o.seed, o.size.probeReps)
		p.metrics(tr, m)
		stepMs[p.def.Name] = m["nn."+p.def.Name+".step_ms"].Value
	}
	predictProbe(tr, o.seed, o.size.probeReps, m)

	for _, s := range trains {
		trainMetrics(tr, s, stepMs[s.net], m)
	}
	sweepMetrics(tr, sweep, m)
	for _, s := range serves {
		serveMetrics(tr, s, m)
	}
	t.mu.Lock()
	m["serve.shed"] = metric{float64(t.counters["serve.shed"]), "count"}
	m["serve.expired"] = metric{float64(t.counters["serve.expired"]), "count"}
	t.mu.Unlock()

	for _, p := range probes() {
		p.printCostGap(out, tr)
	}
	tr.printSelf(out, 25)
	if o.spanDir != "" {
		path, err := tr.write(o.spanDir, fmt.Sprintf("spans-%s-seed%d.json", name, o.seed))
		if err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), path)
	}
	fmt.Fprintln(out, "per-layer metrics:")
	printMetrics(out, m)
	t.print(out)
	return t.result(m), nil
}

func printOverhead(out io.Writer, name string, un, tp passStats) {
	for _, r := range []struct {
		metric string
		u, t   float64
	}{
		{"throughput_per_s", un.rate, tp.rate},
		{"latency_p50_ms", percentile(un.lat, 50), percentile(tp.lat, 50)},
		{"latency_p99_ms", percentile(un.lat, 99), percentile(tp.lat, 99)},
	} {
		fmt.Fprintf(out, "  %-18s %-18s untraced %12.4g  traced %12.4g  overhead %+12.4g (%+.1f%%)\n",
			name, r.metric, r.u, r.t, r.t-r.u, 100*(r.t-r.u)/r.u)
	}
}

// trainMetrics derives a train workload's core, comm and par metrics from
// its last Train result and the Train spans.
func trainMetrics(tr *tracer, s *trainState, stepMs float64, m map[string]metric) {
	res, iters := s.last, float64(s.last.Iterations)
	prefix := "core." + s.tag + "."
	for _, c := range table3 {
		m[prefix+"sim."+c.slug+".ms_per_step"] = metric{res.Breakdown.Times[c.cat] / iters * 1e3, "sim_ms/step"}
	}
	m[prefix+"sim.hidden_comm.ms_per_step"] = metric{res.Breakdown.HiddenComm / iters * 1e3, "sim_ms/step"}
	m[prefix+"sim_step_ms"] = metric{s.refStep * 1e3, "sim_ms/step"}
	m[prefix+"comm_ratio"] = metric{res.Breakdown.CommRatio(), "ratio"}
	callMs := tr.median("core.train." + s.tag)
	m[prefix+"wall_ms_per_step"] = metric{callMs / iters, "ms"}
	m["comm."+s.tag+".param_bytes_per_step"] = metric{float64(res.Breakdown.ParamTraffic()) / iters, "B"}
	// Worker steps run ÷ what they would take one after another: the
	// concurrency the run achieved on the shared pool.
	steps := float64(res.Samples) / float64(s.cfg.Batch)
	m["par.overlap."+s.tag] = metric{steps * stepMs / callMs, "ratio"}
}

// sweepMetrics derives the comm, sim and core metrics of the sweep from
// its reference outputs and the Env.Run spans.
func sweepMetrics(tr *tracer, s *sweepState, m map[string]metric) {
	for _, v := range traceVariants {
		name := v + ".p1024"
		out := s.point(name)
		m["comm."+name+".wall_ms"] = metric{tr.median("sim.run." + name), "ms"}
		m["comm."+name+".sim_ms"] = metric{out.sim * 1e3, "sim_ms/op"}
		m["comm."+name+".bytes"] = metric{float64(out.bytes), "B"}
		m["sim.events.p1024."+v] = metric{float64(out.events), "count"}
	}
	for _, p := range []int{32, 128, 512} {
		name := fmt.Sprintf("hier-tree-rhd.p%d", p)
		m["comm."+name+".wall_ms"] = metric{tr.median("sim.run." + name), "ms"}
	}
	var events, ms float64
	for i, pt := range s.points {
		if pt.kind == knlRound {
			continue
		}
		for _, d := range tr.durations("sim.run." + pt.name) {
			events += float64(s.ref[i].events)
			ms += d
		}
	}
	m["sim.events_per_s"] = metric{events / (ms / 1e3), "1/s"}
	m["core.knl_round.n1024.wall_ms"] = metric{tr.median("core.knl-round.n1024"), "ms"}
	m["core.knl_round.n1024.sim_ms"] = metric{s.point("knl-round.n1024").sim * 1e3, "sim_ms/round"}
}

// serveMetrics derives a serve workload's batcher and HTTP-gap metrics.
func serveMetrics(tr *tracer, s *serveState, m map[string]metric) {
	batcher := tr.durations("serve.batcher." + s.phase)
	m["serve.batcher."+s.phase+".p50_ms"] = metric{percentile(batcher, 50), "ms"}
	m["serve.batcher."+s.phase+".p99_ms"] = metric{percentile(batcher, 99), "ms"}
	m["serve.http_gap."+s.phase+".p50_ms"] = metric{tr.median("serve.http."+s.phase) - percentile(batcher, 50), "ms"}
}
