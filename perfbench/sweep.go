package main

import (
	"fmt"
	"math"
	"time"

	"scaledl/internal/comm"
	"scaledl/internal/core"
	"scaledl/internal/hw"
	"scaledl/internal/nn"
	"scaledl/internal/sim"
)

// sweepPoint is one simulated collective or Algorithm-4 round of the
// cluster sweep.
type sweepPoint struct {
	name         string
	kind         pointKind
	nodes, gpus  int
	intra, inter comm.Schedule
	bytes        int64
	oracle       float64 // uniform points: the composed α-β closed form
	wantEvents   int64   // pinned event count; 0 when not pinned
}

type pointKind int

const (
	composedFlat pointKind = iota // flat tree over every GPU of a PCIe+Aries cluster
	composedHier                  // hierarchical allreduce on the same cluster
	uniformHier                   // hierarchical allreduce on contention-free links
	knlRound                      // core.KNLClusterWeakScaling
)

// sweepOut is what one point produced.
type sweepOut struct {
	sim           float64 // simulated seconds
	events, bytes int64
}

// allReduceEvents is the event count BENCH_sim.json pins for the 32×32
// uniform tree/rhd allreduce of 4 MB.
const allReduceEvents = 11350

func sweepPoints() []sweepPoint {
	googleNet := nn.GoogleNetCost().ParamBytes()
	var pts []sweepPoint
	for _, sh := range []struct{ nodes, gpus int }{{4, 8}, {16, 8}, {64, 8}, {32, 32}} {
		p := sh.nodes * sh.gpus
		pts = append(pts,
			sweepPoint{name: fmt.Sprintf("flat-tree.p%d", p), kind: composedFlat, nodes: sh.nodes, gpus: sh.gpus, intra: comm.ScheduleTree, bytes: googleNet},
			sweepPoint{name: fmt.Sprintf("hier-tree-tree.p%d", p), kind: composedHier, nodes: sh.nodes, gpus: sh.gpus, intra: comm.ScheduleTree, inter: comm.ScheduleTree, bytes: googleNet},
			sweepPoint{name: fmt.Sprintf("hier-tree-rhd.p%d", p), kind: composedHier, nodes: sh.nodes, gpus: sh.gpus, intra: comm.ScheduleTree, inter: comm.ScheduleRHD, bytes: googleNet},
		)
	}
	for _, n := range []int{1, 4, 16, 64, 256, 1024} {
		pts = append(pts, sweepPoint{name: fmt.Sprintf("knl-round.n%d", n), kind: knlRound, nodes: n, bytes: googleNet})
	}
	for _, u := range []struct {
		nodes, gpus int
		inter       comm.Schedule
		bytes       int64
		events      int64
	}{
		{4, 8, comm.ScheduleTree, googleNet, 0},
		{16, 8, comm.ScheduleRHD, googleNet, 0},
		{32, 32, comm.ScheduleRHD, 4 << 20, allReduceEvents},
	} {
		oracle, ok := comm.HierAllReduceTime(hw.GPUPeer, hw.MellanoxFDR, u.bytes, u.nodes, u.gpus, comm.ScheduleTree, u.inter)
		if !ok {
			panic("perfbench: uniform sweep point without a closed form")
		}
		pts = append(pts, sweepPoint{
			name: fmt.Sprintf("uniform-tree-%s.%dx%d", u.inter, u.nodes, u.gpus), kind: uniformHier,
			nodes: u.nodes, gpus: u.gpus, intra: comm.ScheduleTree, inter: u.inter,
			bytes: u.bytes, oracle: oracle, wantEvents: u.events,
		})
	}
	return pts
}

// run executes the point; the span covers the call that runs the
// simulation (Env.Run, or the core entry point for Algorithm-4 rounds).
func (pt *sweepPoint) run(tr *tracer, op int64) (sweepOut, error) {
	if pt.kind == knlRound {
		id := tr.begin("core."+pt.name, -1, op)
		step, err := core.KNLClusterWeakScaling(pt.nodes, pt.bytes, 0.25, hw.Aries, 3)
		tr.end(id)
		return sweepOut{sim: step}, err
	}
	env := sim.NewEnv()
	defer env.Close()
	var ml *comm.MultiLevel
	if pt.kind == uniformHier {
		gpus := pt.gpus
		ml = comm.NewMultiLevel(env, comm.MultiLevelConfig{
			Nodes:   pt.nodes,
			PerNode: func(env *sim.Env, _ int) *comm.Topology { return comm.NewUniform(env, gpus, hw.GPUPeer) },
			Fabric:  hw.MellanoxFDR,
		})
	} else {
		gpus := pt.gpus
		ml = comm.NewMultiLevel(env, comm.MultiLevelConfig{
			Nodes: pt.nodes,
			PerNode: func(env *sim.Env, _ int) *comm.Topology {
				return comm.NewPCIeTree(env, comm.PCIeConfig{GPUs: gpus, Host: hw.PCIePinned, Peer: hw.GPUPeer})
			},
			Fabric:         hw.Aries,
			NICConcurrency: 2,
		})
	}
	plan := comm.Plan{LayerBytes: []int64{pt.bytes}, Packed: true}
	if pt.kind == composedFlat {
		var parties []int
		for g := 0; g < pt.nodes; g++ {
			for l := 0; l < pt.gpus; l++ {
				parties = append(parties, ml.GlobalID(g, l))
			}
		}
		cm := comm.NewCommunicator(ml.Topology(), comm.CommConfig{Parties: parties, Plan: plan, Schedule: pt.intra})
		for r := range parties {
			ep := cm.Endpoint(r)
			env.Spawn(fmt.Sprintf("flat%d", r), func(p *sim.Proc) { ep.AllReduceSize(p, 0) })
		}
	} else {
		locals := make([]int, pt.gpus)
		for i := range locals {
			locals[i] = i
		}
		hc := comm.NewHierCommunicator(ml.Topology(), comm.HierConfig{
			Groups: ml.Groups(locals...), Plan: plan, Intra: pt.intra, Inter: pt.inter,
		})
		for r := 0; r < hc.Size(); r++ {
			ep := hc.Endpoint(r)
			env.Spawn(fmt.Sprintf("hier%d", r), func(p *sim.Proc) { ep.AllReduceSize(p, 0) })
		}
	}
	id := tr.begin("sim.run."+pt.name, -1, op)
	end := env.Run()
	tr.end(id)
	return sweepOut{sim: end, events: env.Events(), bytes: ml.Topology().BytesMoved()}, nil
}

// sweepState repeats the point set; every repetition of a point must
// reproduce the first one's simulated time exactly.
type sweepState struct {
	points []sweepPoint
	ref    []sweepOut // the first repetition
}

func setupSweep(o options) (state, error) { return &sweepState{points: sweepPoints()}, nil }

// runAll runs the point set once, one operation per point, and returns
// the per-point latencies in ms, in point order.
func (s *sweepState) runAll(tr *tracer, t *tally) []float64 {
	lat := make([]float64, 0, len(s.points))
	outs := make([]sweepOut, len(s.points))
	for i := range s.points {
		pt := &s.points[i]
		t0 := time.Now()
		out, err := pt.run(tr, tr.newOp())
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			t.record(err)
			continue
		}
		var vs []verdict
		if s.ref != nil {
			vs = append(vs, verdict{"sweep.repeat_identical_sim_time", math.Float64bits(out.sim) == math.Float64bits(s.ref[i].sim)})
		}
		if pt.kind == uniformHier {
			vs = append(vs, verdict{"sweep.uniform_matches_hier_oracle", relErr(out.sim, pt.oracle) <= 1e-9})
		}
		if pt.wantEvents != 0 {
			vs = append(vs, verdict{"sweep.pinned_point_fires_11350_events", out.events == pt.wantEvents})
		}
		t.record(nil, vs...)
		outs[i] = out
	}
	if s.ref == nil {
		s.ref = outs
	}
	return lat
}

func (s *sweepState) warm(t *tally) { s.runAll(nil, t) }

func (s *sweepState) pass(budget time.Duration, tr *tracer, t *tally) passStats {
	var p passStats
	perPoint := make([][]float64, len(s.points))
	deadline := time.Now().Add(budget)
	for p.ops == 0 || time.Now().Before(deadline) {
		for i, l := range s.runAll(tr, t) {
			perPoint[i] = append(perPoint[i], l)
		}
		p.ops += int64(len(s.points))
	}
	// The rate is the point set over the sum of each point's median time:
	// a garbage collection or a host stall lands on a few repetitions of a
	// few points, and their medians ignore it.
	var passMs float64
	for _, l := range perPoint {
		passMs += percentile(l, 50)
		p.lat = append(p.lat, l...)
	}
	p.rate = float64(len(s.points)) / (passMs / 1e3)
	return p
}

// point returns the reference output of the named point.
func (s *sweepState) point(name string) sweepOut {
	for i, pt := range s.points {
		if pt.name == name {
			return s.ref[i]
		}
	}
	panic("perfbench: no sweep point " + name)
}

func (s *sweepState) named(p passStats) map[string]metric {
	return map[string]metric{
		"sweep_points_per_s": {p.rate, "1/s"},
		"sim_step_ms":        {s.point("knl-round.n1024").sim * 1e3, "sim_ms/round"},
		"sim_allreduce_ms":   {s.point("hier-tree-rhd.p1024").sim * 1e3, "sim_ms/op"},
	}
}

func (s *sweepState) close() {}
