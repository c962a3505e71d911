package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// benchResult is one parsed `go test -bench` line: the benchmark name
// (Benchmark prefix and -N GOMAXPROCS suffix stripped) and its metrics by
// unit ("ns/op", "sim_ms", "GFLOPS", "allocs/op", …).
type benchResult struct {
	Name    string
	Metrics map[string]float64
}

var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBenchFile extracts benchmark results from `go test -bench` output.
func parseBenchFile(path string) (map[string]benchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBench(f)
}

func parseBench(r io.Reader) (map[string]benchResult, error) {
	out := map[string]benchResult{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		res := benchResult{Name: m[1], Metrics: map[string]float64{}}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s: bad metric value %q", res.Name, fields[i])
			}
			res.Metrics[fields[i+1]] = v
		}
		out[res.Name] = res
	}
	return out, sc.Err()
}

// Metric kinds: how a baselined value is judged against a fresh one.
const (
	kindHigher  = "higher"  // higher is better, within the shared tolerance
	kindLower   = "lower"   // lower is better, within the shared tolerance
	kindExact   = "exact"   // lower is better, with no tolerance at all
	kindCeiling = "ceiling" // an absolute upper bound; -update never moves it
	kindReport  = "report"  // printed for reference, never gated
)

// Gate row statuses.
const (
	statusOK       = "ok"
	statusFail     = "FAIL"
	statusImproved = "improved"
	statusMissing  = "MISSING"
	statusReport   = "report" // a measured reference value
	statusSkipped  = "-"      // a reference value this run did not measure
)

// baseline is one BENCH_*.json file: benchmark name → metric key → entry.
type baseline struct {
	Description string                       `json:"description"`
	Benchmarks  map[string]map[string]*entry `json:"benchmarks"`
}

type entry struct {
	Value float64 `json:"value"`
	Kind  string  `json:"kind"`
}

// gateRow is one compared (benchmark, metric) for the report table.
type gateRow struct {
	File, Name, Metric  string
	Base, Fresh, Change float64 // Change: fractional delta, signed so that > 0 means regression
	Status              string
	Note                string
}

// loadBaseline decodes one baseline file strictly: an unknown field, an
// unknown kind, a repeated key or a malformed metric key is an error, never
// a silently ungated metric.
func loadBaseline(raw []byte) (*baseline, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b baseline
	if err := dec.Decode(&b); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data after the baseline object")
	}
	if err := noRepeatedKeys(json.NewDecoder(bytes.NewReader(raw))); err != nil {
		return nil, err
	}
	if len(b.Benchmarks) == 0 {
		return nil, errors.New("no benchmarks")
	}
	for name, metrics := range b.Benchmarks {
		if len(metrics) == 0 {
			return nil, fmt.Errorf("%s: no metrics", name)
		}
		for key, e := range metrics {
			unit, qual, qualified := strings.Cut(key, "@")
			switch {
			case e == nil:
				return nil, fmt.Errorf("%s %s: null entry", name, key)
			case unit == "" || qualified && (qual == "" || strings.Contains(qual, "@")):
				return nil, fmt.Errorf("%s: bad metric key %q (want unit or unit@qualifier)", name, key)
			case !slices.Contains([]string{kindHigher, kindLower, kindExact, kindCeiling, kindReport}, e.Kind):
				return nil, fmt.Errorf("%s %s: unknown kind %q", name, key, e.Kind)
			case e.Value <= 0 && (e.Kind == kindHigher || e.Kind == kindLower || e.Kind == kindCeiling):
				return nil, fmt.Errorf("%s %s: a %s baseline needs a positive value, got %v", name, key, e.Kind, e.Value)
			}
		}
	}
	return &b, nil
}

// noRepeatedKeys walks a JSON value and rejects any object that names a key
// twice, which encoding/json would otherwise resolve silently (last wins).
func noRepeatedKeys(dec *json.Decoder) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok != json.Delim('{') && tok != json.Delim('[') {
		return nil
	}
	seen := map[string]bool{}
	for dec.More() {
		if tok == json.Delim('{') {
			key, err := dec.Token()
			if err != nil {
				return err
			}
			k := key.(string)
			if seen[k] {
				return fmt.Errorf("repeated key %q", k)
			}
			seen[k] = true
		}
		if err := noRepeatedKeys(dec); err != nil {
			return err
		}
	}
	_, err = dec.Token()
	return err
}

// gate compares fresh results against every BENCH_*.json in dir and returns
// the report rows, most severe first. tier selects which tier-qualified keys
// apply. With update set, each file's applicable measured values (every kind
// but ceiling) are rewritten from the fresh results.
func gate(dir, tier string, fresh map[string]benchResult, tol float64, update bool) ([]gateRow, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	var rows []gateRow
	for _, path := range paths {
		file := filepath.Base(path)
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		b, err := loadBaseline(raw)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		fileRows, changed := gateBaseline(file, b, tier, fresh, tol, update)
		rows = append(rows, fileRows...)
		if changed {
			if err := os.WriteFile(path, encode(b), 0o644); err != nil {
				return nil, err
			}
		}
	}
	slices.SortStableFunc(rows, func(a, b gateRow) int { return severity(a.Status) - severity(b.Status) })
	return rows, nil
}

// gateBaseline runs the one compare loop over a decoded file. A key
// unit@qualifier applies only when the qualifier is the running tier; a
// unit whose gated keys are all qualified for other tiers reports MISSING,
// and -update records the running tier's key for it.
func gateBaseline(file string, b *baseline, tier string, fresh map[string]benchResult, tol float64, update bool) (rows []gateRow, changed bool) {
	for _, name := range slices.Sorted(maps.Keys(b.Benchmarks)) {
		metrics := b.Benchmarks[name]
		got, ran := fresh[name]
		applies := map[string]bool{}        // unit → some gated key applies under tier
		otherTiers := map[string][]string{} // unit → tiers of its gated keys that don't
		for _, key := range slices.Sorted(maps.Keys(metrics)) {
			e := metrics[key]
			unit, qual, _ := strings.Cut(key, "@")
			if qual != "" && qual != tier {
				if e.Kind != kindReport {
					otherTiers[unit] = append(otherTiers[unit], qual)
				}
				continue
			}
			if e.Kind != kindReport {
				applies[unit] = true
			}
			v, measured := got.Metrics[unit]
			row := gateRow{File: file, Name: name, Metric: key, Base: e.Value, Fresh: v}
			switch {
			case !measured && e.Kind == kindReport:
				row.Status = statusSkipped
			case !ran:
				row.Status, row.Note = statusMissing, "benchmark did not run"
			case !measured:
				row.Status, row.Note = statusMissing, "no "+unit+" metric reported"
			default:
				row.Change, row.Status, row.Note = judge(e.Kind, e.Value, v, tol)
				if update && e.Kind != kindCeiling {
					e.Value, changed = v, true
				}
			}
			rows = append(rows, row)
		}
		for _, unit := range slices.Sorted(maps.Keys(otherTiers)) {
			if applies[unit] {
				continue
			}
			key := unit + "@" + tier
			rows = append(rows, gateRow{File: file, Name: name, Metric: key, Status: statusMissing,
				Note: fmt.Sprintf("no baseline for kernel tier %q (recorded: %s) — record one with -update on this host",
					tier, strings.Join(otherTiers[unit], ", "))})
			if v, ok := got.Metrics[unit]; ok && update {
				metrics[key] = &entry{Value: v, Kind: metrics[unit+"@"+otherTiers[unit][0]].Kind}
				changed = true
			}
		}
	}
	return rows, changed
}

// judge compares one applicable, measured metric against its baseline.
func judge(kind string, base, fresh, tol float64) (change float64, status, note string) {
	if base != 0 {
		change = fresh/base - 1
	}
	if kind == kindHigher {
		change = -change // normalize: positive change = regression
	}
	switch {
	case kind == kindReport:
		return change, statusReport, ""
	case kind == kindCeiling && fresh > base:
		return change, statusFail, "breached the absolute ceiling"
	case kind == kindCeiling:
		return change, statusOK, "absolute ceiling, not a relative gate"
	case kind == kindExact && fresh > base:
		return change, statusFail, fmt.Sprintf("rose to %g from %g (gated exactly)", fresh, base)
	case kind == kindExact && fresh < base:
		return change, statusImproved, "below the exact baseline — consider regenerating with -update"
	case kind == kindExact:
		return change, statusOK, ""
	case change > tol:
		return change, statusFail, fmt.Sprintf("regressed %.1f%% (tolerance %.0f%%)", change*100, tol*100)
	case change < -tol:
		return change, statusImproved, "better than baseline — consider regenerating with -update"
	}
	return change, statusOK, ""
}

func severity(status string) int {
	return slices.Index([]string{statusFail, statusMissing, statusImproved, statusOK, statusReport, statusSkipped}, status)
}

// encode renders a baseline file with one metric entry per line and keys in
// sorted order, so an -update diff shows exactly the values that moved.
func encode(b *baseline) []byte {
	var buf bytes.Buffer
	js := func(v any) string {
		var sb strings.Builder
		enc := json.NewEncoder(&sb)
		enc.SetEscapeHTML(false)
		enc.Encode(v) // strings and entries always encode
		return strings.TrimSuffix(sb.String(), "\n")
	}
	comma := func(i, n int) string {
		if i < n-1 {
			return ","
		}
		return ""
	}
	fmt.Fprintf(&buf, "{\n  \"description\": %s,\n  \"benchmarks\": {\n", js(b.Description))
	names := slices.Sorted(maps.Keys(b.Benchmarks))
	for i, name := range names {
		fmt.Fprintf(&buf, "    %s: {\n", js(name))
		metrics := b.Benchmarks[name]
		keys := slices.Sorted(maps.Keys(metrics))
		for j, key := range keys {
			fmt.Fprintf(&buf, "      %s: %s%s\n", js(key), js(metrics[key]), comma(j, len(keys)))
		}
		fmt.Fprintf(&buf, "    }%s\n", comma(i, len(names)))
	}
	buf.WriteString("  }\n}\n")
	return buf.Bytes()
}

// hasFresh reports whether a row carries a fresh measurement to print.
func hasFresh(r gateRow) bool { return r.Status != statusMissing && r.Status != statusSkipped }

func printTable(w io.Writer, rows []gateRow) {
	fmt.Fprintf(w, "%-18s %-42s %-18s %12s %12s %8s  %-8s %s\n",
		"baseline", "benchmark", "metric", "base", "fresh", "delta", "status", "note")
	for _, r := range rows {
		fresh, delta := "-", "-"
		if hasFresh(r) {
			fresh = fmt.Sprintf("%.4g", r.Fresh)
			delta = fmt.Sprintf("%+.1f%%", r.Change*100)
		}
		fmt.Fprintf(w, "%-18s %-42s %-18s %12.4g %12s %8s  %-8s %s\n",
			r.File, r.Name, r.Metric, r.Base, fresh, delta, r.Status, r.Note)
	}
}

// writeMarkdown renders the rows as a GitHub job-summary table.
func writeMarkdown(w io.Writer, rows []gateRow, tol float64, tier string) {
	fmt.Fprintf(w, "## Benchmark gate (tolerance %.0f%%, kernel tier `%s`)\n\n", tol*100, tier)
	fmt.Fprintln(w, "| status | baseline | benchmark | metric | base | fresh | delta |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, r := range rows {
		fresh, delta := "—", "—"
		if hasFresh(r) {
			fresh = fmt.Sprintf("%.4g", r.Fresh)
			delta = fmt.Sprintf("%+.1f%%", r.Change*100)
		}
		icon := map[string]string{
			statusOK: "✅", statusFail: "❌", statusImproved: "🚀", statusMissing: "⚠️", statusReport: "➖", statusSkipped: "➖",
		}[r.Status]
		fmt.Fprintf(w, "| %s %s | %s | %s | %s | %.4g | %s | %s |\n",
			icon, r.Status, r.File, r.Name, r.Metric, r.Base, fresh, delta)
	}
	fmt.Fprintln(w)
}
