package main

import (
	"bytes"
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mpnet"
	"repro/internal/netmodel"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wildcard"
)

// verifyWant pins what the model checker must answer for the workload's
// trace. The values were read off one run and are written out by hand, so a
// change to the checker that explores a different state space shows as a
// failed check.
type verifyWant struct {
	states    int
	wildcards int
}

// verify runs mpnet.VerifyWithReplay on one fixed trace, the only workload
// where the model checker does the work.
type verify struct {
	tr      *trace.Trace
	model   *netmodel.Model
	want    verifyWant
	corrupt bool
	count   map[string]float64
}

func openVerifyLU(cfg config) (session, error) {
	if cfg.scale == tiny {
		return openVerify("lu", apps.NewConfig(2, apps.ClassS), verifyWant{states: 401, wildcards: 400}, cfg)
	}
	return openVerify("lu", apps.NewConfig(4, apps.ClassW), verifyWant{states: 76401, wildcards: 3200}, cfg)
}

// openVerify traces the app and round-trips the trace through the codec, as
// `tracegen | benchgen -verify` does, then takes the workload's exact facts:
// the encoded trace size, the MP-net model size and the timing error of the
// benchmark generated from the same trace. The warm-up request ends the
// set-up. The seed does not enter: the workload is one fixed trace.
func openVerify(app string, acfg apps.Config, want verifyWant, cfg config) (session, error) {
	model := netmodel.BlueGeneL()
	run, err := harness.TraceApp(app, acfg, model)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, run.Trace); err != nil {
		return nil, fmt.Errorf("encode trace: %w", err)
	}
	traceBytes := buf.Len()
	tr, err := trace.Decode(&buf)
	if err != nil {
		return nil, fmt.Errorf("decode trace: %w", err)
	}
	bench, err := harness.GenerateAndRun(tr, model)
	if err != nil {
		return nil, err
	}
	netJSON, err := core.GenerateMPNet(tr, nil)
	if err != nil {
		return nil, err
	}
	v := &verify{tr: tr, model: model, want: want}
	if _, err := v.request(0, nil); err != nil {
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	v.corrupt = cfg.corrupt
	v.count = map[string]float64{
		"timing_err_pct": stats.AbsPercentError(bench.ElapsedUS, run.ElapsedUS),
		"trace_bytes":    float64(traceBytes),
		"source_bytes":   float64(len(netJSON)),
		"trace.events":   float64(tr.TotalEvents()),
		"trace.nodes":    float64(tr.NodeCount()),
		"wildcard.recvs": float64(want.wildcards),
		"mpnet.states":   float64(want.states),
	}
	v.count["trace.compression"] = v.count["trace.events"] / v.count["trace.nodes"]
	return v, nil
}

func (v *verify) clients() int              { return 1 }
func (v *verify) close()                    {}
func (v *verify) facts() map[string]float64 { return v.count }

// request verifies the trace through the calls mpnet.VerifyWithReplay is
// made of, so the untraced and traced runs differ only by the spans; the
// self-test pins that the steps give VerifyWithReplay's report.
func (v *verify) request(_ int, tr *tracer) (outcome, error) {
	rep, err := verifySteps(v.tr, v.model, tr)
	if err != nil {
		return outcome{}, err
	}
	if v.corrupt {
		rep.Verdict.StatesExplored++
	}
	return outcome{}, v.check(rep)
}

// verifySteps is mpnet.VerifyWithReplay spelled out as its public calls:
// lower the trace to its net, explore it, then cross-validate Algorithm 2's
// resolution (resolve, map its choices onto the net, run the net under them,
// and prove the resolved net deadlock-free).
func verifySteps(t *trace.Trace, model *netmodel.Model, tr *tracer) (*mpnet.Report, error) {
	end := tr.begin("mpnet.lower")
	net, err := mpnet.FromTrace(t, nil)
	end()
	if err != nil {
		return nil, err
	}
	rep := &mpnet.Report{Ranks: net.N, Events: net.Events, Channels: len(net.Chans), Wildcards: net.Wildcards}
	end = tr.begin("mpnet.check")
	rep.Verdict = net.Check(nil)
	end()

	if net.Wildcards > 0 {
		end = tr.begin("mpnet.crossval")
		err = crossValidate(t, net, rep, tr)
		end()
		if err != nil {
			return nil, err
		}
	}
	if rep.Verdict.Counterexample != nil {
		end = tr.begin("mpnet.replay")
		rep.ConfirmWithReplay(net, model)
		end()
	}
	return rep, nil
}

func crossValidate(t *trace.Trace, net *mpnet.Net, rep *mpnet.Report, tr *tracer) error {
	end := tr.begin("wildcard.resolve")
	resolved, err := wildcard.Resolve(t)
	end()
	if err != nil {
		rep.ResolverDeadlock = err.Error()
		return nil
	}
	assign, err := mpnet.ResolverAssignment(net, resolved)
	if err != nil {
		return err
	}
	rep.ResolverAdmitted, rep.ResolverBlocked = net.ForcedRun(assign)
	end = tr.begin("mpnet.lower")
	rnet, err := mpnet.FromTrace(resolved, nil)
	end()
	if err != nil {
		return err
	}
	end = tr.begin("mpnet.check")
	rep.ResolvedVerdict = rnet.Check(nil)
	end()
	return nil
}

func (v *verify) check(rep *mpnet.Report) error {
	switch {
	case !rep.Passed() || !rep.DeadlockFree():
		return checkFailed("verdict is not DEADLOCK-FREE with a passing cross-validation:\n%s", rep)
	case !rep.Verdict.Exhaustive:
		return checkFailed("exploration was not exhaustive")
	case rep.Verdict.StatesExplored != v.want.states:
		return checkFailed("explored %d states, want %d", rep.Verdict.StatesExplored, v.want.states)
	case rep.Wildcards != v.want.wildcards:
		return checkFailed("net has %d wildcard receives, want %d", rep.Wildcards, v.want.wildcards)
	}
	return nil
}
