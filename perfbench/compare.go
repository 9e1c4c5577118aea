package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/stats"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// readRecords reads a result-set file: one record per line, as appended by
// --out.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compareMain implements `perfbench compare [-spec BENCHMARK.json]
// <parent> <change>` and `perfbench compare [-spec ...] <results>`: with
// two result sets it prints a verdict per workload and metric; with one it
// prints each workload's medians and the tracing overhead.
func compareMain(args []string, w io.Writer) error {
	specPath := "BENCHMARK.json"
	if len(args) >= 2 && args[0] == "-spec" {
		specPath, args = args[1], args[2:]
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	switch len(args) {
	case 1:
		recs, err := readRecords(args[0])
		if err != nil {
			return err
		}
		summarize(w, spec, recs)
		return nil
	case 2:
		parent, err := readRecords(args[0])
		if err != nil {
			return err
		}
		change, err := readRecords(args[1])
		if err != nil {
			return err
		}
		for _, row := range compareSets(spec, parent, change) {
			fmt.Fprintln(w, row)
		}
		return nil
	}
	return fmt.Errorf("usage: perfbench compare [-spec BENCHMARK.json] <parent.jsonl> [<change.jsonl>]")
}

// values collects, per workload and metric, the values of the records in
// file order. Untraced records carry the end-to-end metrics, traced ones the
// per-layer metrics, so the two never mix.
func values(recs []record) (order []string, vals map[string]map[string][]float64) {
	vals = map[string]map[string][]float64{}
	for _, r := range recs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
			order = append(order, r.Workload)
		}
		for name, m := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
		}
	}
	return order, vals
}

// verdict applies the rules of the comparison to one metric's runs:
//   - improved: the change wins at least nine tenths of the pairs (ties
//     count for neither side) and the medians differ by more than the
//     parent's own interquartile distance;
//   - unresolved: the parent's spread is wider than the bound, unless every
//     change run beats every parent run;
//   - worse: the change's median is worse than the parent's by more than
//     the bound (for a metric without a bound: the parent wins by the
//     improvement rule);
//   - unchanged otherwise.
func verdict(m specMetric, hasBound bool, parent, change []float64) string {
	lower := m.Better == "lower"
	better := func(a, b float64) bool {
		if lower {
			return a < b
		}
		return a > b
	}
	ps, cs := stats.Summarize(parent), stats.Summarize(change)
	if ps.Median == 0 && cs.Median == 0 {
		return "unchanged"
	}
	pairs := min(len(parent), len(change))
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(change[i], parent[i]):
			wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	iqr := ps.P75 - ps.P25
	diff := math.Abs(cs.Median - ps.Median)
	if pairs > 0 && wins*10 >= 9*pairs && diff > iqr && better(cs.Median, ps.Median) {
		return "improved"
	}
	if !hasBound {
		if pairs > 0 && losses*10 >= 9*pairs && diff > iqr && better(ps.Median, cs.Median) {
			return "worse"
		}
		return "unchanged"
	}
	allBetter := len(change) > 0 && len(parent) > 0
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	if ps.Median != 0 && iqr/math.Abs(ps.Median) > m.Bound && !allBetter {
		return "unresolved"
	}
	worsening := cs.Median - ps.Median
	if !lower {
		worsening = -worsening
	}
	if ps.Median != 0 && worsening/math.Abs(ps.Median) > m.Bound {
		return "worse"
	}
	return "unchanged"
}

func quartiles(vs []float64) string {
	s := stats.Summarize(vs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", s.Median, s.P25, s.P75)
}

// compareSets returns one printed row per workload and metric present in
// both result sets, runs paired in file order.
func compareSets(spec *benchSpec, parent, change []record) []string {
	order, pv := values(parent)
	_, cv := values(change)
	rows := []string{fmt.Sprintf("%-15s %-24s %-34s %-34s %5s  %s",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "pairs", "verdict")}
	for _, wl := range order {
		for _, group := range []struct {
			metrics  []specMetric
			hasBound bool
		}{{spec.EndToEnd, true}, {spec.PerLayer, false}} {
			for _, m := range group.metrics {
				p, c := pv[wl][m.Name], cv[wl][m.Name]
				if len(p) == 0 || len(c) == 0 {
					continue
				}
				rows = append(rows, fmt.Sprintf("%-15s %-24s %-34s %-34s %5d  %s",
					wl, m.Name, quartiles(p), quartiles(c), min(len(p), len(c)), verdict(m, group.hasBound, p, c)))
			}
		}
	}
	return rows
}

// summarize prints each workload's medians over the runs in one result set
// and its tracing overhead: the traced runs' median request time minus the
// untraced runs'.
func summarize(w io.Writer, spec *benchSpec, recs []record) {
	order, vals := values(recs)
	for _, wl := range order {
		fmt.Fprintf(w, "%s\n", wl)
		for _, group := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			for _, m := range group {
				if vs := vals[wl][m.Name]; len(vs) > 0 {
					s := stats.Summarize(vs)
					if s.Min == 0 && s.Max == 0 {
						continue // a layer this workload does not exercise
					}
					spread := 0.0
					if s.Median != 0 {
						spread = (s.P75 - s.P25) / math.Abs(s.Median)
					}
					fmt.Fprintf(w, "  %-24s %-34s %-12s runs=%d spread=%.3f\n", m.Name, quartiles(vs), m.Unit, len(vs), spread)
				}
			}
		}
		untraced, traced := vals[wl]["request_p50_s"], vals[wl]["traced_request_p50_s"]
		if len(untraced) > 0 && len(traced) > 0 {
			u, t := median(untraced), median(traced)
			fmt.Fprintf(w, "  tracing overhead: %.6g s (%.2f%% of request_p50_s)\n", t-u, 100*(t-u)/u)
		}
	}
}
