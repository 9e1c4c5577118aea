// Command ncrun parses a coNCePTuaL benchmark and executes it on the
// simulated MPI runtime — the role the coNCePTuaL compiler plus target
// machine play in the paper.
//
// Usage:
//
//	ncrun -n 16 [-model bluegene] [-profile] [-critpath] [-verify]
//	      [-scale-compute 0.5] [-telemetry] [-timeline run.json]
//	      [-serve :8080] prog.ncptl
//
// -verify traces the benchmark's own execution and model-checks the
// collected trace's MP-net after the run: the schedule that just executed
// is one interleaving, and a wildcard receive may still admit a deadlocking
// match the scheduler happened to avoid. The verification report goes to
// stderr; a found deadlock (confirmed by concrete replay) exits 1.
//
// With -timeline the benchmark's virtual-time schedule is exported as Chrome
// trace-event JSON (one row per task) for ui.perfetto.dev. -critpath attaches
// the causal profiler and prints the virtual-time critical path and
// wait-state breakdown after the run; combined with -timeline, the critical
// path is overlaid as its own track in the exported trace.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/conceptual"
	"repro/internal/critpath"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/mpip"
	"repro/internal/netmodel"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	var (
		n         = flag.Int("n", 0, "number of tasks (default: the program's REQUIRE num_tasks)")
		modelName = flag.String("model", "bluegene", "platform model (bluegene, ethernet, ideal)")
		profile   = flag.Bool("profile", false, "print the mpiP-style profile")
		critFlag  = flag.Bool("critpath", false, "print the critical-path & wait-state profile")
		verify    = flag.Bool("verify", false, "trace the run and model-check its MP-net (report after the run; exit 1 on a deadlock)")
		scale     = flag.Float64("scale-compute", 1.0, "multiply all COMPUTE durations (what-if studies)")
	)
	tcli := telemetry.NewCLI()
	flag.Parse()
	if flag.NArg() != 1 {
		fatal(fmt.Errorf("usage: ncrun [flags] prog.ncptl"))
	}
	if err := tcli.Start(); err != nil {
		fatal(err)
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := conceptual.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	tasks := *n
	if tasks == 0 {
		tasks = prog.NumTasks
	}
	if tasks <= 0 {
		fatal(fmt.Errorf("task count unknown: pass -n or add REQUIRE num_tasks"))
	}
	model := netmodel.Preset(*modelName)
	if model == nil {
		fatal(fmt.Errorf("unknown model %q", *modelName))
	}
	if *scale != 1.0 {
		prog = scaleCompute(prog, *scale)
	}

	prof := mpip.NewProfile()
	var col *trace.Collector
	if *verify {
		col = trace.NewCollector(tasks)
	}
	var timeline func(int) mpi.Tracer
	if tl := tcli.Timeline(); tl != nil {
		timeline = mpi.TimelineTracer(tl)
	}
	tracers := func(rank int) mpi.Tracer {
		mt := mpi.MultiTracer{prof.TracerFor(rank)}
		if col != nil {
			mt = append(mt, col.TracerFor(rank))
		}
		if timeline != nil {
			mt = append(mt, timeline(rank))
		}
		return mt
	}
	mpiOpts := []mpi.Option{mpi.WithTracer(tracers)}
	var graph *mpi.DepGraph
	if *critFlag {
		graph = mpi.NewDepGraph()
		mpiOpts = append(mpiOpts, mpi.WithCausalProfile(graph))
	}
	res, err := conceptual.Execute(prog, tasks, model,
		conceptual.WithMPIOptions(mpiOpts...))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("tasks: %d  platform: %s\n", tasks, model.Name)
	fmt.Printf("total virtual time: %.3f s\n", res.ElapsedUS/1e6)
	for _, entry := range res.Logs {
		fmt.Printf("task %d  %s: %.1f\n", entry.Task, entry.Label, entry.Value)
	}
	if *profile {
		fmt.Println(prof)
	}
	if graph != nil {
		cp := critpath.Analyze(graph)
		fmt.Println(cp)
		if tl := tcli.Timeline(); tl != nil {
			critpath.Overlay(tl, cp)
		}
	}
	if err := tcli.Finish(); err != nil {
		fatal(err)
	}
	if col != nil {
		// Model-check the run's own communication trace: the benchmark
		// executed, but a wildcard receive it performed may still admit a
		// deadlocking match the schedule happened to avoid — exactly what
		// the checker explores.
		rep, err := harness.VerifyTrace(col.Trace(), model, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, rep)
		if !rep.Passed() {
			os.Exit(1)
		}
	}
}

func scaleCompute(p *conceptual.Program, factor float64) *conceptual.Program {
	var walk func([]conceptual.Stmt) []conceptual.Stmt
	walk = func(stmts []conceptual.Stmt) []conceptual.Stmt {
		out := make([]conceptual.Stmt, len(stmts))
		for i, s := range stmts {
			switch x := s.(type) {
			case *conceptual.LoopStmt:
				out[i] = &conceptual.LoopStmt{Count: x.Count, Body: walk(x.Body)}
			case *conceptual.ComputeStmt:
				out[i] = &conceptual.ComputeStmt{Who: x.Who, USecs: x.USecs * factor}
			default:
				out[i] = s
			}
		}
		return out
	}
	return &conceptual.Program{Comments: p.Comments, NumTasks: p.NumTasks, Stmts: walk(p.Stmts)}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ncrun:", err)
	os.Exit(1)
}
