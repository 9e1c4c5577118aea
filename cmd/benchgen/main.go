// Command benchgen is the paper's benchmark generator: it reads a
// ScalaTrace-style trace and emits an executable coNCePTuaL benchmark with
// identical communication behaviour (Section 4). Wildcard receives are
// resolved with Algorithm 2 and split collectives aligned with Algorithm 1
// before code generation.
//
// Usage:
//
//	benchgen [-i app.trace] [-o app.ncptl] [-lang conceptual|c|go|mpnet|tla]
//	         [-window n] [-cpuprofile prof.out] [-critpath] [-verify]
//	         [-model bluegene] [-telemetry] [-timeline stages.json] [-serve :8080]
//
// -lang mpnet and -lang tla emit the trace's formal communication model
// (the MP-net JSON artifact, or its TLA+ rendering) instead of an
// executable benchmark; wildcard receives stay unresolved there, since the
// artifact's point is modeling the nondeterminism. -verify model-checks the
// input trace's MP-net before generating: deadlock-freedom by exhaustive
// exploration at small scale, wildcard resolution cross-validated against
// Algorithm 2, and any counterexample confirmed by concrete replay on
// -model; the report goes to stderr and a deadlock exits 1.
//
// benchgen's -timeline exports the generation pipeline's wall-clock stages
// (wildcard resolution, alignment, code generation) rather than a simulated
// run's virtual time. -critpath replays the (possibly extrapolated) input
// trace on -model with the causal profiler attached and prints the
// critical-path & wait-state report to stderr — the generated source still
// goes to stdout/-o untouched.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/extrap"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	var (
		in       = flag.String("i", "", "input trace file (default stdin)")
		out      = flag.String("o", "", "output source file (default stdout)")
		lang     = flag.String("lang", "conceptual", "output format: conceptual, c, go, mpnet (MP-net JSON model) or tla (TLA+ module)")
		verify   = flag.Bool("verify", false, "model-check the input trace's MP-net (report to stderr; exit 1 on a deadlock)")
		scaleN   = flag.Int("extrapolate", 0, "extrapolate the trace to this rank count before generating")
		second   = flag.String("with", "", "second trace at a different scale (disambiguates -extrapolate)")
		window   = flag.Int("window", 0, "loop-compression window for the alignment/resolution recompression passes (0 = default)")
		profile  = flag.String("cpuprofile", "", "write a CPU profile of the generation pipeline to this file")
		critFlag = flag.Bool("critpath", false, "replay the input trace and report its critical path to stderr")
		modelNm  = flag.String("model", "bluegene", "platform model for -critpath and -verify counterexample replay")
	)
	tcli := telemetry.NewCLI()
	flag.Parse()
	if err := tcli.Start(); err != nil {
		fatal(err)
	}
	tcli.CaptureRegions()

	if *window > 0 {
		trace.SetDefaultWindow(*window)
	}
	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	tr, err := trace.Decode(r)
	if err != nil {
		fatal(err)
	}
	if *scaleN > 0 {
		if *second != "" {
			f, err := os.Open(*second)
			if err != nil {
				fatal(err)
			}
			tr2, err := trace.Decode(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
			tr, err = extrap.ExtrapolateFrom(tr, tr2, *scaleN)
			if err != nil {
				fatal(err)
			}
		} else {
			tr, err = extrap.Extrapolate(tr, *scaleN)
			if err != nil {
				fatal(err)
			}
		}
	}

	if *verify {
		model := netmodel.Preset(*modelNm)
		if model == nil {
			fatal(fmt.Errorf("unknown model %q", *modelNm))
		}
		rep, err := harness.VerifyTrace(tr, model, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, rep)
		if !rep.Passed() {
			// A deadlocking trace has no sound executable benchmark; the
			// verdict (and its replay-confirmed counterexample) is the output.
			os.Exit(1)
		}
	}

	if *critFlag {
		model := netmodel.Preset(*modelNm)
		if model == nil {
			fatal(fmt.Errorf("unknown model %q", *modelNm))
		}
		graph := mpi.NewDepGraph()
		if _, err := replay.Replay(tr, model, mpi.WithCausalProfile(graph)); err != nil {
			fatal(fmt.Errorf("critpath replay: %w", err))
		}
		fmt.Fprintln(os.Stderr, critpath.Analyze(graph))
	}

	var src string
	switch *lang {
	case "conceptual", "c":
		prog, err := core.Generate(tr, &core.Options{
			Comments: []string{fmt.Sprintf("source trace: %d ranks, %d events", tr.N, tr.TotalEvents())},
		})
		if err != nil {
			fatal(err)
		}
		if *lang == "conceptual" {
			src = conceptual.Print(prog)
		} else {
			src = conceptual.GenerateC(prog)
		}
	case "go":
		// The Go backend consumes the trace directly through the pluggable
		// CodeGenerator interface rather than the coNCePTuaL AST.
		src, err = core.GenerateGo(tr, nil)
		if err != nil {
			fatal(err)
		}
	case "mpnet":
		// The formal-model backends deliberately keep wildcard receives
		// unresolved: the artifact models the nondeterminism.
		raw, err := core.GenerateMPNet(tr, nil)
		if err != nil {
			fatal(err)
		}
		src = string(raw)
	case "tla":
		src, err = core.GenerateMPNetTLA(tr, nil, "CommModel")
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown output format %q", *lang))
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if _, err := io.WriteString(w, src); err != nil {
		fatal(err)
	}
	if err := tcli.Finish(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgen:", err)
	os.Exit(1)
}
