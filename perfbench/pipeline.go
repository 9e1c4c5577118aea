package main

import (
	"bytes"
	"fmt"

	"repro/internal/align"
	"repro/internal/apps"
	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mpip"
	"repro/internal/netmodel"
	"repro/internal/replay"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wildcard"
)

// pipeline is one sequential client sending the paper's whole request:
// trace the app, round-trip the trace through the codec, resolve wildcards
// (Algorithm 2), align collectives (Algorithm 1), emit and print the
// coNCePTuaL program, execute it, and compare it with the original.
type pipeline struct {
	app     string
	cfg     apps.Config
	model   *netmodel.Model
	corrupt bool

	// The warm-up request fixes what every later one must reproduce
	// exactly.
	wantSource    string
	wantElapsedUS float64
	count         map[string]float64
}

// pipelineOut is what one request produced, for the checks and the facts.
type pipelineOut struct {
	source      string
	elapsedUS   float64
	originalUS  float64
	traceBytes  int
	decoded     *trace.Trace
	resolved    *trace.Trace
	aligned     *trace.Trace
	resolveRan  bool
	alignRan    bool
	stmts       int
	calls       int64
	profileDiff *mpip.Report
}

func openPipelineLU(cfg config) (session, error) {
	if cfg.scale == tiny {
		return openPipeline("lu", apps.NewConfig(4, apps.ClassS), cfg)
	}
	return openPipeline("lu", apps.NewConfig(64, apps.ClassW), cfg)
}

func openPipelineBT(cfg config) (session, error) {
	if cfg.scale == tiny {
		return openPipeline("bt", apps.NewConfig(4, apps.ClassS), cfg)
	}
	return openPipeline("bt", apps.NewConfig(256, apps.ClassW), cfg)
}

// openPipeline sets the workload up: its only set-up is the warm-up
// request, which fills the shared world pool and fixes the reference
// output. The seed does not enter: the workload is one fixed
// configuration.
func openPipeline(app string, acfg apps.Config, cfg config) (session, error) {
	p := &pipeline{app: app, cfg: acfg, model: netmodel.BlueGeneL()}
	out, err := p.generate(nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	if err := p.check(out); err != nil {
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	p.wantSource, p.wantElapsedUS = out.source, out.elapsedUS
	p.count = pipelineCounts(out)
	p.corrupt = cfg.corrupt
	return p, nil
}

func (p *pipeline) clients() int { return 1 }
func (p *pipeline) close()       {}

func (p *pipeline) request(_ int, tr *tracer) (outcome, error) {
	out, err := p.generate(tr)
	if err != nil {
		return outcome{}, err
	}
	if err := p.check(out); err != nil {
		return outcome{}, err
	}
	if out.source != p.wantSource || out.elapsedUS != p.wantElapsedUS {
		return outcome{}, checkFailed("%s: output differs from the warm-up request's", p.app)
	}
	return outcome{}, nil
}

// generate runs one request, each public call in its own span.
func (p *pipeline) generate(tr *tracer) (*pipelineOut, error) {
	out := &pipelineOut{}

	end := tr.begin("trace.collect")
	run, err := harness.TraceApp(p.app, p.cfg, p.model)
	end()
	if err != nil {
		return nil, err
	}
	out.originalUS = run.ElapsedUS

	end = tr.begin("trace.encode")
	var buf bytes.Buffer
	err = trace.Encode(&buf, run.Trace)
	end()
	if err != nil {
		return nil, fmt.Errorf("encode trace: %w", err)
	}
	out.traceBytes = buf.Len()

	end = tr.begin("trace.decode")
	out.decoded, err = trace.Decode(&buf)
	end()
	if err != nil {
		return nil, fmt.Errorf("decode trace: %w", err)
	}

	// The same steps, in the same order and under the same pre-checks, as
	// core.Generate with default options.
	end = tr.begin("wildcard.resolve")
	out.resolved = out.decoded
	if wildcard.Present(out.decoded) {
		out.resolveRan = true
		out.resolved, err = wildcard.Resolve(out.decoded)
	}
	end()
	if err != nil {
		return nil, err
	}

	end = tr.begin("align.align")
	out.aligned = out.resolved
	if align.Needed(out.resolved) {
		out.alignRan = true
		out.aligned, err = align.Align(out.resolved)
	}
	end()
	if err != nil {
		return nil, err
	}

	end = tr.begin("core.emit")
	g := core.NewConceptualGenerator(nil)
	err = core.Traverse(out.aligned, g)
	var prog *conceptual.Program
	if err == nil {
		prog, err = g.Program()
	}
	end()
	if err != nil {
		return nil, fmt.Errorf("emit: %w", err)
	}
	if p.corrupt {
		// One extra barrier: the program still runs, but its profile no
		// longer matches the original's.
		extra, perr := conceptual.Parse("ALL TASKS SYNCHRONIZE")
		if perr != nil {
			return nil, perr
		}
		prog.Stmts = append(prog.Stmts, extra.Stmts...)
	}
	out.stmts = prog.StmtCount()

	end = tr.begin("conceptual.print")
	out.source = conceptual.Print(prog)
	end()

	end = tr.begin("conceptual.execute")
	bench, err := harness.RunProgram(prog, p.cfg.N, p.model)
	end()
	if err != nil {
		return nil, err
	}
	out.elapsedUS = bench.ElapsedUS
	out.calls = bench.Profile.TotalCalls()

	end = tr.begin("mpip.diff")
	out.profileDiff = mpip.Diff(run.Profile, bench.Profile)
	end()

	// The reference is the trace already resolved for generation: the
	// generated benchmark is deterministic, so its trace names the sources
	// Algorithm 2 chose.
	end = tr.begin("replay.equiv")
	err = replay.Equivalent(out.resolved, bench.Trace)
	end()
	if err != nil {
		return nil, checkFailed("%s: generated trace not equivalent: %v", p.app, err)
	}
	return out, nil
}

// check applies the output checks that do not need the reference request.
func (p *pipeline) check(out *pipelineOut) error {
	if !out.profileDiff.Match() {
		return checkFailed("%s: generated profile differs from the original's:\n%s", p.app, out.profileDiff)
	}
	return nil
}

// pipelineCounts are the workload's exact facts, taken from the warm-up
// request: deterministic, so one request speaks for all.
func pipelineCounts(out *pipelineOut) map[string]float64 {
	c := map[string]float64{
		"timing_err_pct":   stats.AbsPercentError(out.elapsedUS, out.originalUS),
		"trace_bytes":      float64(out.traceBytes),
		"source_bytes":     float64(len(out.source)),
		"trace.events":     float64(out.decoded.TotalEvents()),
		"trace.nodes":      float64(out.decoded.NodeCount()),
		"core.stmts":       float64(out.stmts),
		"conceptual.calls": float64(out.calls),
	}
	c["trace.compression"] = c["trace.events"] / c["trace.nodes"]
	if out.resolveRan {
		c["wildcard.recvs"] = float64(wildcardRecvs(out.decoded))
		c["wildcard.nodes_out"] = float64(out.resolved.NodeCount())
	}
	if out.alignRan {
		c["align.nodes_out"] = float64(out.aligned.NodeCount())
	}
	return c
}

// wildcardRecvs counts the wildcard receive instances the compressed trace
// stands for, which is the number of receives Algorithm 2 settles: each
// wildcard RSD once per participating rank and per enclosing iteration.
func wildcardRecvs(t *trace.Trace) int {
	n := 0
	for _, g := range t.Groups {
		n += seqWildcards(g.Seq)
	}
	return n
}

func seqWildcards(seq []trace.Node) int {
	n := 0
	for _, node := range seq {
		switch x := node.(type) {
		case *trace.RSD:
			if x.Wildcard {
				n += x.Ranks.Size()
			}
		case *trace.Loop:
			n += x.Iters * seqWildcards(x.Body)
		}
	}
	return n
}

func (p *pipeline) facts() map[string]float64 { return p.count }
