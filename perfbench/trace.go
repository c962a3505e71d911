package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int64  `json:"op"`     // the operation the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes run the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// durations returns the duration in ms of every closed span with the name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			ds = append(ds, float64(s.End-s.Start)/1e6)
		}
	}
	return ds
}

// median is the median duration in ms of the spans with the name.
func (t *tracer) median(name string) float64 { return percentile(t.durations(name), 50) }

// selfTimes returns, per span name, the summed duration and self time in
// ms. Self time is a span's duration minus the part of it its children
// cover.
func (t *tracer) selfTimes() map[string][2]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][2]float64{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		covered := coveredNs(s, children[s.ID])
		v := out[s.Name]
		v[0] += float64(dur) / 1e6
		v[1] += float64(dur-covered) / 1e6
		out[s.Name] = v
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// printSelf prints the span names with the largest self time.
func (t *tracer) printSelf(out io.Writer, top int) {
	st := t.selfTimes()
	names := sortedKeys(st)
	sort.SliceStable(names, func(i, j int) bool { return st[names[i]][1] > st[names[j]][1] })
	if len(names) > top {
		names = names[:top]
	}
	fmt.Fprintf(out, "spans by self time (top %d):\n  %-48s %12s %12s\n", len(names), "span", "total ms", "self ms")
	for _, n := range names {
		fmt.Fprintf(out, "  %-48s %12.2f %12.2f\n", n, st[n][0], st[n][1])
	}
}

// write stores the spans as a JSON array in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
