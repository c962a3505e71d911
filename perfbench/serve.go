package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"scaledl"
	"scaledl/internal/serve"
)

// serveState serves a reloaded LeNet snapshot through the HTTP handler to
// a fixed number of closed-loop in-process clients. No socket is opened:
// clients call Handler().ServeHTTP directly.
type serveState struct {
	phase   string // "c1" or "c32": the client count
	clients int
	srv     *serve.Server
	h       http.Handler
	inputs  [][]float32
	bodies  [][]byte
	// want holds each input's logits from PredictInto at batch 1: the
	// batching contract says every response must equal them bit for bit.
	want [][]float32

	meanBatch float64 // coalescing achieved in the last pass
}

func setupServe(o options, clients int) (state, error) {
	var snap bytes.Buffer
	if err := scaledl.BuildModel(scaledl.LeNet(mnistShape(), 10), o.seed).Save(&snap); err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	model, err := scaledl.LoadModel(bytes.NewReader(snap.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	s := &serveState{phase: fmt.Sprintf("c%d", clients), clients: clients}
	images, _ := scaledl.SyntheticMNIST(o.seed, o.size.bodies, 1)
	for i := 0; i < o.size.bodies; i++ {
		in := append([]float32(nil), images.Sample(i)...)
		out := make([]float32, model.Classes())
		if err := model.PredictInto(in, 1, out); err != nil {
			return nil, err
		}
		s.inputs = append(s.inputs, in)
		s.bodies = append(s.bodies, encodeBody(in))
		s.want = append(s.want, out)
	}
	if s.srv, err = serve.NewServer(model, serve.Config{}); err != nil {
		return nil, err
	}
	s.h = s.srv.Handler()
	return s, nil
}

// encodeBody renders a predict request body.
func encodeBody(in []float32) []byte {
	b := []byte(`{"input":[`)
	for i, v := range in {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
	}
	return append(b, "]}"...)
}

// post sends body i through the handler and checks the response; it
// returns the latency in ms of the ServeHTTP call.
func (s *serveState) post(i int, tr *tracer, t *tally) float64 {
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(s.bodies[i]))
	rec := httptest.NewRecorder()
	id := tr.begin("serve.http."+s.phase, -1, tr.newOp())
	t0 := time.Now()
	s.h.ServeHTTP(rec, req)
	lat := float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(id)
	if rec.Code != http.StatusOK {
		t.record(fmt.Errorf("predict: HTTP %d", rec.Code))
		return lat
	}
	var resp struct {
		Logits []float32 `json:"logits"`
	}
	err := json.Unmarshal(rec.Body.Bytes(), &resp)
	t.record(err, verdict{"serve.logits_match_batch1_predict", err == nil && sameBits(resp.Logits, s.want[i])})
	return lat
}

// do sends input i straight to the batcher, bypassing HTTP.
func (s *serveState) do(i int, out []float32, tr *tracer, t *tally) float64 {
	id := tr.begin("serve.batcher."+s.phase, -1, tr.newOp())
	t0 := time.Now()
	err := s.srv.Batcher().Do(s.inputs[i], out, time.Time{})
	lat := float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(id)
	t.record(err, verdict{"serve.batcher_logits_match_batch1_predict", err == nil && sameBits(out, s.want[i])})
	return lat
}

// closedLoop runs the clients until the deadline, each sending its next
// request only after the previous one is answered. It returns the merged
// latencies and the completion rate: the median over one-second windows,
// so a stall on the host moves one window rather than the whole figure,
// or the whole-run rate when the run is shorter than three windows.
func (s *serveState) closedLoop(budget time.Duration, send func(client, i int, out []float32) float64) ([]float64, float64) {
	deadline := time.Now().Add(budget)
	lats := make([][]float64, s.clients)
	done := make([][]time.Duration, s.clients) // completion times since t0
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float32, len(s.want[0]))
			// Clients walk the bodies from different offsets.
			for k := 0; k == 0 || time.Now().Before(deadline); k++ {
				lats[c] = append(lats[c], send(c, (c*len(s.bodies)/s.clients+k)%len(s.bodies), out))
				done[c] = append(done[c], time.Since(t0))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	windows := make([]float64, int(wall/time.Second))
	for _, d := range done {
		for _, at := range d {
			if w := int(at / time.Second); w < len(windows) {
				windows[w]++
			}
		}
	}
	if len(windows) < 3 {
		return all, float64(len(all)) / wall.Seconds()
	}
	return all, percentile(windows, 50)
}

func (s *serveState) warm(t *tally) {
	s.closedLoop(0, func(_, i int, _ []float32) float64 { return s.post(i, nil, t) })
}

func (s *serveState) pass(budget time.Duration, tr *tracer, t *tally) passStats {
	before := s.srv.Batcher().Stats()
	lat, rate := s.closedLoop(budget, func(_, i int, _ []float32) float64 { return s.post(i, tr, t) })
	s.account(before, t)
	return passStats{lat: lat, ops: int64(len(lat)), rate: rate}
}

// batcherPass drives Batcher.Do with the same clients and no HTTP.
func (s *serveState) batcherPass(budget time.Duration, tr *tracer, t *tally) passStats {
	before := s.srv.Batcher().Stats()
	lat, rate := s.closedLoop(budget, func(_, i int, out []float32) float64 { return s.do(i, out, tr, t) })
	s.account(before, t)
	return passStats{lat: lat, ops: int64(len(lat)), rate: rate}
}

// account records the batcher's shed and expired requests since before,
// and the mean batch it achieved.
func (s *serveState) account(before serve.Stats, t *tally) {
	after := s.srv.Batcher().Stats()
	t.count("serve.shed", after.Shed-before.Shed)
	t.count("serve.expired", after.Expired-before.Expired)
	if b := after.Batches - before.Batches; b > 0 {
		s.meanBatch = float64(after.Served-before.Served) / float64(b)
	}
}

func (s *serveState) named(p passStats) map[string]metric {
	prefix := "serve_"
	if s.clients == 1 {
		prefix = "serve_solo_"
	}
	return map[string]metric{
		prefix + "rps":    {p.rate, "1/s"},
		prefix + "p50_ms": {percentile(p.lat, 50), "ms"},
		prefix + "p99_ms": {percentile(p.lat, 99), "ms"},
		"mean_batch":      {s.meanBatch, "count"},
	}
}

func (s *serveState) close() { s.srv.Drain() }
