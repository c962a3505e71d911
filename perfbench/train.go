package main

import (
	"math"
	"time"

	"scaledl"
)

// trainState is a train workload: one method on one net, called again and
// again with the same configuration, so every call must reproduce the
// first one's simulated step and final loss bit for bit.
type trainState struct {
	tag    string // short name in per-layer metric names
	net    string // NetDef name, the nn probe this workload's layers map to
	method string
	cfg    scaledl.Config
	// coordinated methods charge their breakdown on one coordinator's
	// critical path, so it sums to SimTime; the asynchronous methods
	// charge only the master's exposed time, which is at most SimTime.
	coordinated bool

	refSet           bool
	refStep, refLoss float64
	last             scaledl.Result
}

func mnistShape() scaledl.Shape { return scaledl.Shape{C: 1, H: 28, W: 28} }

func setupSyncLeNet(o options) (state, error) {
	s := newTrainState(o, "sync-lenet", "sync-easgd3", scaledl.LeNet(mnistShape(), 10), 64, o.size.lenetIters)
	s.coordinated = true
	return s, nil
}

func setupAsyncTiny(o options) (state, error) {
	return newTrainState(o, "async-tiny", "async-easgd", scaledl.TinyCNN(mnistShape(), 10), 32, o.size.tinyIters), nil
}

func newTrainState(o options, tag, method string, def scaledl.NetDef, batch, iters int) *trainState {
	train, test := scaledl.SyntheticMNIST(o.seed, o.size.trainN, o.size.testN)
	return &trainState{
		tag:    tag,
		net:    def.Name,
		method: method,
		cfg: scaledl.Config{
			Def: def, Train: train, Test: test,
			Workers: 4, Batch: batch, LR: 0.05, Momentum: 0.9,
			Iterations: iters, Seed: o.seed,
			Platform: scaledl.DefaultGPUPlatform(true),
		},
	}
}

// call runs one Train call and checks it.
func (s *trainState) call(tr *tracer, t *tally) (wallS float64, samples int64) {
	id := tr.begin("core.train."+s.tag, -1, tr.newOp())
	t0 := time.Now()
	res, err := scaledl.Train(s.method, s.cfg)
	wallS = time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		t.record(err)
		return wallS, 0
	}
	step := res.SimTime / float64(res.Iterations)
	repeat := verdict{"train.repeat_matches_first_call", true}
	if tr != nil {
		repeat.name = "train.traced_matches_untraced"
	}
	if s.refSet {
		repeat.ok = math.Float64bits(step) == math.Float64bits(s.refStep) &&
			math.Float64bits(res.FinalLoss) == math.Float64bits(s.refLoss)
	} else {
		s.refSet, s.refStep, s.refLoss = true, step, res.FinalLoss
	}
	breakdown := verdict{"train.breakdown_total_equals_simtime", relErr(res.Breakdown.Total(), res.SimTime) <= 1e-9}
	if !s.coordinated {
		breakdown = verdict{"train.breakdown_total_within_simtime", res.Breakdown.Total() <= res.SimTime*(1+1e-9)}
	}
	t.record(nil,
		verdict{"train.loss_finite_below_ln10", !math.IsNaN(res.FinalLoss) && !math.IsInf(res.FinalLoss, 0) && res.FinalLoss < math.Log(10)},
		breakdown,
		repeat,
	)
	s.last = res
	return wallS, res.Samples
}

// warm runs a one-iteration Train call: it fills the pool, the kernels'
// packing buffers and the heap, but is not the reference the measured calls
// are checked against.
func (s *trainState) warm(t *tally) {
	cfg := s.cfg
	cfg.Iterations = 1
	res, err := scaledl.Train(s.method, cfg)
	t.record(err, verdict{"train.warm_call_finite_loss", err == nil && !math.IsNaN(res.FinalLoss) && !math.IsInf(res.FinalLoss, 0)})
}

func (s *trainState) pass(budget time.Duration, tr *tracer, t *tally) passStats {
	var p passStats
	var rates []float64
	deadline := time.Now().Add(budget)
	for p.ops == 0 || time.Now().Before(deadline) {
		// Each call is one rate sample; the median over calls shrugs off
		// calls a stall on the host slowed.
		wall, samples := s.call(tr, t)
		p.ops++
		p.lat = append(p.lat, wall*1e3)
		rates = append(rates, float64(samples)/wall)
	}
	p.rate = percentile(rates, 50)
	return p
}

func (s *trainState) named(p passStats) map[string]metric {
	return map[string]metric{
		"train_samples_per_s": {p.rate, "1/s"},
		"train_call_p50_ms":   {percentile(p.lat, 50), "ms"},
		"sim_step_ms":         {s.refStep * 1e3, "sim_ms/step"},
		"final_loss":          {s.refLoss, "nats"},
	}
}

func (s *trainState) close() {}

// relErr is |a-b| relative to |b| (absolute when b is 0).
func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	if b != 0 {
		d /= math.Abs(b)
	}
	return d
}
