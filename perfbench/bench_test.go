package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/mpnet"
	"repro/internal/netmodel"
)

// spec reads the repository's BENCHMARK.json.
func spec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func units(ms []specMetric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func defUnits(ms []metricDef) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.name] = m.unit
	}
	return out
}

func TestMetricListsMatchSpec(t *testing.T) {
	s := spec(t)
	if got, want := defUnits(endToEnd), units(s.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
	}
	if got, want := defUnits(perLayer), units(s.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
}

// TestWorkloadsTiny runs every workload once at tiny scale, untraced and
// traced, and checks that it passes its output checks and emits every
// metric BENCHMARK.json names, with its unit.
func TestWorkloadsTiny(t *testing.T) {
	s := spec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, spans, err := run(w, config{scale: tiny, seed: 7}, 500*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Attempted < 1 || rec.FailRatio != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d fail_ratio=%v errors=%v",
					w.name, traced, rec.Correct, rec.Attempted, rec.FailRatio, rec.Errors)
			}
			want := units(s.EndToEnd)
			if traced {
				want = units(s.PerLayer)
				if len(spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.name)
				}
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", w.name, traced, len(rec.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := rec.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w.name, traced, name, m, unit)
				}
			}
		}
	}
}

// TestCorruptedOutputIsCounted damages one output per request on every
// workload and checks that the checks catch it and fail_ratio rises.
func TestCorruptedOutputIsCounted(t *testing.T) {
	for _, w := range workloads {
		rec, _, err := run(w, config{scale: tiny, seed: 7, corrupt: true}, 300*time.Millisecond, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rec.Correct || rec.CheckFailed == 0 || rec.FailRatio == 0 || rec.Metrics["ok_ratio"].Value == 1 {
			t.Errorf("%s: corrupted outputs not counted: correct=%v check_failed=%d fail_ratio=%v",
				w.name, rec.Correct, rec.CheckFailed, rec.FailRatio)
		}
		for _, e := range rec.Errors {
			if !strings.HasPrefix(e, "check failed") {
				t.Errorf("%s: unexpected error %q", w.name, e)
			}
		}
	}
}

// TestPipelineStepsMatchGenerate pins that the pipeline's spelled-out
// resolve → align → emit steps generate what core.Generate does.
func TestPipelineStepsMatchGenerate(t *testing.T) {
	p := &pipeline{app: "lu", cfg: apps.NewConfig(4, apps.ClassS), model: netmodel.BlueGeneL()}
	out, err := p.generate(newTracer(time.Now()))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Generate(out.decoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := conceptual.Print(prog); got != out.source {
		t.Errorf("pipeline source differs from core.Generate's:\n%s\nvs\n%s", out.source, got)
	}
}

// TestVerifyStepsMatchVerify pins that the spelled-out verification both
// runs make reports what mpnet.VerifyWithReplay does.
func TestVerifyStepsMatchVerify(t *testing.T) {
	s, err := openVerifyLU(config{scale: tiny})
	if err != nil {
		t.Fatal(err)
	}
	v := s.(*verify)
	want, err := mpnet.VerifyWithReplay(v.tr, nil, v.model)
	if err != nil {
		t.Fatal(err)
	}
	got, err := verifySteps(v.tr, v.model, newTracer(time.Now()))
	if err != nil {
		t.Fatal(err)
	}
	want.VerifyUS = 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spelled-out verification\n%+v\nwant\n%+v", got, want)
	}
}

func TestLayerTimesSelfExcludesChildren(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 50},
		{Name: "b", Parent: 1, Start: 20, End: 30},
		{Name: "a", Parent: 0, Start: 60, End: 70},
	}
	total, self := layerTimes(spans)
	if total["a"] != 50 || self["a"] != 40 || self["b"] != 10 || self["request"] != 50 || total["request"] != 100 {
		t.Errorf("total %v self %v", total, self)
	}
}

func TestVerdict(t *testing.T) {
	lat := specMetric{Name: "request_p50_s", Better: "lower", Bound: 0.1}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 0.75, 1.25, 0.9, 1.1, 0.6, 1.4}
	for _, c := range []struct {
		name           string
		parent, change []float64
		hasBound       bool
		want           string
	}{
		{"faster", base, scaled(0.8), true, "improved"},
		{"same", base, scaled(1.0), true, "unchanged"},
		{"slightly slower", base, scaled(1.05), true, "unchanged"},
		{"much slower", base, scaled(1.3), true, "worse"},
		{"parent too noisy", noisy, scaled(1.02), true, "unresolved"},
		{"layer slower", base, scaled(1.3), false, "worse"},
	} {
		if got := verdict(lat, c.hasBound, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// BenchmarkSpan measures what one traced layer call adds: opening and
// closing its span. Times the spans per request, it bounds the tracing
// overhead independently of run-to-run noise.
func BenchmarkSpan(b *testing.B) {
	tr := newTracer(time.Now())
	for i := 0; i < b.N; i++ {
		if len(tr.spans) == 64 {
			tr.spans = tr.spans[:0]
		}
		tr.begin("layer")()
	}
}
