package harness

import (
	"fmt"

	"scaledl/internal/comm"
	"scaledl/internal/core"
	"scaledl/internal/hw"
	"scaledl/internal/nn"
	"scaledl/internal/sim"
)

// The hier experiment: two-level (node-local + fabric) collectives and
// training on composed PCIe+fabric clusters, against the flat baselines the
// repo simulated before multi-level topologies existed. Three claims are on
// display:
//
//  1. The flat-topology assumption overcharges: a flat uniform-fabric model
//     prices every byte at fabric cost, where the composed topology routes
//     intra-node bytes over the PCIe tree.
//  2. On a composed cluster with a saturating single-port fabric (the
//     paper's Aries regime), the best hierarchical schedule pair beats the
//     best flat schedule run over every GPU — a rank-aligned flat binomial
//     tree is hierarchical in shape (it ties hier tree/tree exactly), but
//     mixing levels (recursive halving among leaders) wins outright, while
//     flat ring/RHD flood each node's NIC or chop the model into chunks the
//     saturating fabric charges nearly full price for.
//  3. Hierarchical training: hier-sync-sgd reproduces flat SyncSGD's
//     mathematics bit for bit while the bytes travel the two-level
//     topology; hier-sync-easgd's τ_local/τ_global knobs trade fabric
//     rounds for convergence like the EASGD communication period.

// hierCluster builds the composed PCIe-trees-under-Aries topology of the
// sweep: gpus per node behind a PCIe switch (peer DMA), one full-duplex
// fabric port per node.
func hierCluster(env *sim.Env, nodes, gpus int) *comm.MultiLevel {
	return comm.NewMultiLevel(env, comm.MultiLevelConfig{
		Nodes: nodes,
		PerNode: func(env *sim.Env, node int) *comm.Topology {
			return comm.NewPCIeTree(env, comm.PCIeConfig{GPUs: gpus, Host: hw.PCIePinned, Peer: hw.GPUPeer})
		},
		Fabric:         hw.Aries,
		NICConcurrency: 2,
	})
}

// simulateFlatComposed runs one size-only flat allreduce over every GPU of
// the composed cluster and returns the simulated seconds.
func simulateFlatComposed(nodes, gpus int, sched comm.Schedule, nBytes int64) float64 {
	env := sim.NewEnv()
	defer env.Close()
	ml := hierCluster(env, nodes, gpus)
	var parties []int
	for g := 0; g < nodes; g++ {
		for l := 0; l < gpus; l++ {
			parties = append(parties, ml.GlobalID(g, l))
		}
	}
	cm := comm.NewCommunicator(ml.Topology(), comm.CommConfig{
		Parties:  parties,
		Plan:     comm.Plan{LayerBytes: []int64{nBytes}, Packed: true},
		Schedule: sched,
	})
	for r := range parties {
		r := r
		env.Spawn(fmt.Sprintf("flat%d", r), func(p *sim.Proc) {
			cm.Endpoint(r).AllReduceSize(p, 0)
		})
	}
	return env.Run()
}

// simulateHierComposed runs one size-only hierarchical allreduce (intra
// schedule within each node, inter schedule among leaders) on the same
// composed cluster.
func simulateHierComposed(nodes, gpus int, intra, inter comm.Schedule, nBytes int64) float64 {
	env := sim.NewEnv()
	defer env.Close()
	ml := hierCluster(env, nodes, gpus)
	locals := make([]int, gpus)
	for i := range locals {
		locals[i] = i
	}
	hc := comm.NewHierCommunicator(ml.Topology(), comm.HierConfig{
		Groups: ml.Groups(locals...),
		Plan:   comm.Plan{LayerBytes: []int64{nBytes}, Packed: true},
		Intra:  intra,
		Inter:  inter,
	})
	for r := 0; r < hc.Size(); r++ {
		r := r
		env.Spawn(fmt.Sprintf("hier%d", r), func(p *sim.Proc) {
			hc.Endpoint(r).AllReduceSize(p, 0)
		})
	}
	return env.Run()
}

// simulateFlatUniform prices the same allreduce under the pre-composition
// flat model: every pair rides the fabric (the assumption the motivation
// calls out — intra-node and inter-node bytes charged identically).
func simulateFlatUniform(workers int, sched comm.Schedule, nBytes int64) float64 {
	t := mustSimulateAllReduce(sched.String(), hw.Aries, nBytes, workers)
	return t
}

// hierSweepSchedules are the flat schedules and hierarchical pairs of the
// collective sweep.
var hierFlatSchedules = []comm.Schedule{comm.ScheduleTree, comm.ScheduleRing, comm.ScheduleRHD, comm.ScheduleChain}
var hierPairs = []struct{ intra, inter comm.Schedule }{
	{comm.ScheduleTree, comm.ScheduleTree},
	{comm.ScheduleTree, comm.ScheduleRing},
	{comm.ScheduleTree, comm.ScheduleRHD},
	{comm.ScheduleChain, comm.ScheduleRHD},
}

// bestHierVsFlat runs the full sweep at one cluster shape and returns the
// best (minimum) simulated times of each family — the quantity the
// acceptance test pins (hier < flat at 4 nodes × 8 GPUs).
func bestHierVsFlat(nodes, gpus int, nBytes int64) (bestHier, bestFlat float64) {
	for i, s := range hierFlatSchedules {
		t := simulateFlatComposed(nodes, gpus, s, nBytes)
		if i == 0 || t < bestFlat {
			bestFlat = t
		}
	}
	for i, pr := range hierPairs {
		t := simulateHierComposed(nodes, gpus, pr.intra, pr.inter, nBytes)
		if i == 0 || t < bestHier {
			bestHier = t
		}
	}
	return bestHier, bestFlat
}

// RunHier regenerates the hierarchical-cluster study.
func RunHier(o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:       "hier",
		Title:    "Hierarchical two-level clusters: node-local + fabric collectives",
		PaperRef: "Sections 6.2, 7.1 (multi-node scaling); FireCaffe/Poseidon",
	}

	// Collective sweep at GoogleNet scale (the paper's Table 4 workload):
	// nodes × 8 GPUs, PCIe trees under Aries with one full-duplex port.
	nBytes := nn.GoogleNetCost().ParamBytes()
	t1 := r.NewTable(fmt.Sprintf("allreduce of %s (GoogleNet weights) on composed PCIe+Aries clusters, sim ms", byteSize(nBytes)),
		"cluster", "family", "schedule", "sim(ms)")
	for _, sh := range []struct{ nodes, gpus int }{{2, 4}, {4, 8}} {
		name := fmt.Sprintf("%dx%d", sh.nodes, sh.gpus)
		flatUni := simulateFlatUniform(sh.nodes*sh.gpus, comm.ScheduleTree, nBytes)
		t1.AddRow(name, "flat-uniform", "tree (all bytes at fabric cost)", fmt.Sprintf("%.1f", flatUni*1e3))
		var bestFlat, bestHier float64
		var bestFlatName, bestHierName string
		for _, s := range hierFlatSchedules {
			tm := simulateFlatComposed(sh.nodes, sh.gpus, s, nBytes)
			t1.AddRow(name, "flat-composed", s.String(), fmt.Sprintf("%.1f", tm*1e3))
			if bestFlatName == "" || tm < bestFlat {
				bestFlat, bestFlatName = tm, s.String()
			}
		}
		for _, pr := range hierPairs {
			tm := simulateHierComposed(sh.nodes, sh.gpus, pr.intra, pr.inter, nBytes)
			t1.AddRow(name, "hierarchical", fmt.Sprintf("%s/%s", pr.intra, pr.inter), fmt.Sprintf("%.1f", tm*1e3))
			if bestHierName == "" || tm < bestHier {
				bestHier, bestHierName = tm, fmt.Sprintf("%s/%s", pr.intra, pr.inter)
			}
		}
		r.AddNote("%s: best hierarchical %s = %.1f ms vs best flat %s = %.1f ms (%.2fx); flat-uniform tree would have charged %.1f ms",
			name, bestHierName, bestHier*1e3, bestFlatName, bestFlat*1e3, bestFlat/bestHier, flatUni*1e3)
	}

	// Training: hier-sync-sgd against flat SyncSGD at the same worker count
	// (2 nodes × 2 GPUs), identical mathematics by construction.
	iters := o.scaled(8)
	mk := func(nodes, gpus int, inter comm.Schedule, overlap bool) (core.Result, error) {
		cfg := baseConfig(o, iters, true)
		cfg.EvalEvery = 0
		cfg.Overlap = overlap
		if nodes > 0 {
			cfg.Nodes, cfg.GPUsPerNode = nodes, gpus
			cfg.HierSchedule = inter
			return core.HierSyncSGD(cfg)
		}
		return core.SyncSGD(cfg)
	}
	t2 := r.NewTable("SyncSGD flat vs hierarchical (4 workers, MNIST regime)",
		"method", "inter", "overlap", "step(µs)", "final loss", "math")
	flat, err := mk(0, 0, comm.ScheduleTree, false)
	if err != nil {
		return nil, err
	}
	fi := float64(iters)
	addT2 := func(method, inter, overlap string, res core.Result) {
		math := "== flat"
		if res.FinalLoss != flat.FinalLoss {
			math = "DIVERGED"
		}
		t2.AddRow(method, inter, overlap, fmt.Sprintf("%.1f", res.SimTime/fi*1e6),
			fmt.Sprintf("%.6f", res.FinalLoss), math)
	}
	addT2("sync-sgd", "-", "off", flat)
	for _, inter := range []comm.Schedule{comm.ScheduleTree, comm.ScheduleRHD} {
		res, err := mk(2, 2, inter, false)
		if err != nil {
			return nil, err
		}
		addT2("hier-sync-sgd", inter.String(), "off", res)
	}
	ov, err := mk(2, 2, comm.ScheduleRHD, true)
	if err != nil {
		return nil, err
	}
	addT2("hier-sync-sgd", "rhd", "on", ov)
	r.AddNote("hier-sync-sgd's allreduce is bit-identical to ReduceSum, so every row's mathematics equals the flat run — topology changes when and where bytes move, never what is summed")

	// Node-group EASGD: τ_local/τ_global pacing. Rarer fabric rounds cut
	// simulated time per step; convergence degrades gracefully (the EASGD
	// communication-period trade).
	t3 := r.NewTable("hier-sync-easgd τ pacing (2 nodes × 2 GPUs)",
		"tau_local", "tau_global", "fabric syncs", "step(µs)", "final acc")
	easgdIters := o.scaled(12)
	for _, tau := range []struct{ local, global int }{{1, 2}, {1, 4}, {2, 8}} {
		cfg := baseConfig(o, easgdIters, true)
		cfg.EvalEvery = 0
		cfg.Nodes, cfg.GPUsPerNode = 2, 2
		cfg.TauLocal, cfg.TauGlobal = tau.local, tau.global
		res, err := core.HierSyncEASGD(cfg)
		if err != nil {
			return nil, err
		}
		t3.AddRow(fmt.Sprintf("%d", tau.local), fmt.Sprintf("%d", tau.global),
			fmt.Sprintf("%d", res.MasterUpdates),
			fmt.Sprintf("%.1f", res.SimTime/float64(easgdIters)*1e6),
			fmt.Sprintf("%.3f", res.FinalAcc))
	}
	return r, nil
}
