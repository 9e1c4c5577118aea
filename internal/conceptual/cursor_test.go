package conceptual

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// differentialPrograms covers every statement kind the lowering handles,
// including the subtler shapes: subgroup collectives (planned communicators
// with non-world roots), self-relative and absolute peers, async send/recv
// with awaits, reduce in all three modes (allreduce, rooted, reduce+bcast),
// multicast as broadcast and as many-to-many, and reset/log interplay.
func differentialPrograms() map[string]*Program {
	ringBody := []Stmt{
		&SendStmt{Who: AllTasks, Async: true, Size: 4096, Dest: RelRank(1)},
		&RecvStmt{Who: AllTasks, Async: true, Size: 4096, Source: RelRank(-1)},
		&AwaitStmt{Who: AllTasks},
	}
	return map[string]*Program{
		"ring": {Stmts: []Stmt{
			&ResetStmt{Who: AllTasks},
			&LoopStmt{Count: 25, Body: ringBody},
			&LogStmt{Who: OneTask(0), Label: "ring"},
		}},
		"blocking-pairs": {Stmts: []Stmt{
			&LoopStmt{Count: 10, Body: []Stmt{
				&SendStmt{Who: TaskSel{Kind: SelEnum, Enum: []int{0, 2, 4}}, Size: 512, Dest: RelRank(1)},
				&RecvStmt{Who: TaskSel{Kind: SelEnum, Enum: []int{1, 3, 5}}, Size: 512, Source: RelRank(-1)},
				&SendStmt{Who: TaskSel{Kind: SelEnum, Enum: []int{1, 3, 5}}, Size: 512, Dest: RelRank(-1)},
				&RecvStmt{Who: TaskSel{Kind: SelEnum, Enum: []int{0, 2, 4}}, Size: 512, Source: RelRank(1)},
			}},
		}},
		"collectives": {Stmts: []Stmt{
			&SyncStmt{Who: AllTasks},
			&LoopStmt{Count: 8, Body: []Stmt{
				&ReduceStmt{Srcs: AllTasks, Dsts: AllTasks, Size: 64},
				&ReduceStmt{Srcs: AllTasks, Dsts: OneTask(0), Size: 1024},
				&MulticastStmt{Srcs: OneTask(0), Dsts: AllTasks, Size: 2048},
				&MulticastStmt{Srcs: AllTasks, Dsts: AllTasks, Size: 128},
			}},
			&SyncStmt{Who: AllTasks},
		}},
		"subgroups": {Stmts: []Stmt{
			&SyncStmt{Who: TaskSel{Kind: SelRange, Lo: 0, Hi: 3}},
			&LoopStmt{Count: 6, Body: []Stmt{
				&ReduceStmt{Srcs: TaskSel{Kind: SelRange, Lo: 2, Hi: 5},
					Dsts: TaskSel{Kind: SelRange, Lo: 2, Hi: 5}, Size: 256},
				&ReduceStmt{Srcs: TaskSel{Kind: SelRange, Lo: 1, Hi: 6}, Dsts: OneTask(3), Size: 64},
				&ReduceStmt{Srcs: TaskSel{Kind: SelRange, Lo: 0, Hi: 4},
					Dsts: TaskSel{Kind: SelRange, Lo: 3, Hi: 5}, Size: 32},
				&MulticastStmt{Srcs: OneTask(2),
					Dsts: TaskSel{Kind: SelStride, Stride: 2, Offset: 0}, Size: 512},
				&MulticastStmt{Srcs: TaskSel{Kind: SelRange, Lo: 4, Hi: 6},
					Dsts: TaskSel{Kind: SelRange, Lo: 4, Hi: 6}, Size: 96},
			}},
			&SyncStmt{Who: AllTasks},
		}},
		"mixed": {Stmts: []Stmt{
			&ResetStmt{Who: AllTasks},
			&LoopStmt{Count: 12, Body: []Stmt{
				&ComputeStmt{Who: AllTasks, USecs: 40},
				&SendStmt{Who: OneTask(1), Size: 8192, Dest: AbsRank(0)},
				&RecvStmt{Who: OneTask(0), Size: 8192, Source: AbsRank(1)},
				&ReduceStmt{Srcs: AllTasks, Dsts: AllTasks, Size: 8},
			}},
			&LogStmt{Who: AllTasks, Label: "mixed"},
		}},
	}
}

// execTraced executes p with a trace collector attached and returns the
// result plus the encoded trace bytes, so representations can be compared at
// the clock, log and trace level at once.
func execTraced(t *testing.T, p *Program, n int, opts ...RunOption) (*RunResult, []byte) {
	t.Helper()
	col := trace.NewCollector(n)
	opts = append(opts, WithMPIOptions(mpi.WithTracer(col.TracerFor)))
	res, err := Execute(p, n, netmodel.BlueGeneL(), opts...)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, col.Trace()); err != nil {
		t.Fatalf("encode trace: %v", err)
	}
	return res, buf.Bytes()
}

// TestCursorMatchesReferences is the cross-representation differential for
// coNCePTuaL execution: the stackless cursor production path must produce
// bit-identical per-task clocks, identical logs and a byte-identical encoded
// trace against the tree-walk reference on every differential kernel.
// Byte-identical traces depend on the shared deterministic call-site
// stamping — a representation that walked the stack instead would diverge
// here.
func TestCursorMatchesReferences(t *testing.T) {
	for name, p := range differentialPrograms() {
		for _, n := range []int{7, 8} {
			t.Run(fmt.Sprintf("%s/n%d", name, n), func(t *testing.T) {
				base, baseTrace := execTraced(t, p, n) // stackless cursors
				res, refTrace := execTraced(t, p, n, WithTreeWalk())
				if base.ElapsedUS != res.ElapsedUS {
					t.Errorf("ElapsedUS: cursor %v, treewalk %v", base.ElapsedUS, res.ElapsedUS)
				}
				for i := range res.PerTaskUS {
					if base.PerTaskUS[i] != res.PerTaskUS[i] {
						t.Errorf("task %d clock: cursor %v, treewalk %v",
							i, base.PerTaskUS[i], res.PerTaskUS[i])
					}
				}
				if len(base.Logs) != len(res.Logs) {
					t.Fatalf("logs: cursor %d entries, treewalk %d", len(base.Logs), len(res.Logs))
				}
				for i := range res.Logs {
					if base.Logs[i] != res.Logs[i] {
						t.Errorf("log %d: cursor %+v, treewalk %+v", i, base.Logs[i], res.Logs[i])
					}
				}
				if !bytes.Equal(baseTrace, refTrace) {
					t.Errorf("encoded trace differs between cursor and treewalk")
				}
			})
		}
	}
}

// TestCursorMatchesReferencesOnGoroutineRuntime pins the fallback: when the
// caller forces the goroutine runtime, Execute cannot use cursors and must
// route to the tree walk — with identical results.
func TestCursorMatchesReferencesOnGoroutineRuntime(t *testing.T) {
	p := differentialPrograms()["ring"]
	n := 8
	base, err := Execute(p, n, netmodel.BlueGeneL())
	if err != nil {
		t.Fatalf("cursor Execute: %v", err)
	}
	gr, err := Execute(p, n, netmodel.BlueGeneL(),
		WithMPIOptions(mpi.WithGoroutineRuntime()))
	if err != nil {
		t.Fatalf("goroutine-runtime Execute: %v", err)
	}
	for i := range base.PerTaskUS {
		if base.PerTaskUS[i] != gr.PerTaskUS[i] {
			t.Errorf("task %d clock: cursor %v, goroutine runtime %v",
				i, base.PerTaskUS[i], gr.PerTaskUS[i])
		}
	}
}

// TestExecuteGoroutineFree pins the tentpole resource claim: under the event
// engine, Execute drives every task as a stackless cursor, so a 128-task
// program adds only O(1) goroutines (the run's watchdog), not one per task.
// A sampler thread watches the process-wide goroutine count for the whole
// run; the coroutine path would hold ~128 extra goroutines alive throughout
// and trips the bound reliably.
func TestExecuteGoroutineFree(t *testing.T) {
	const n = 128
	p := &Program{Stmts: []Stmt{
		&LoopStmt{Count: 50, Body: []Stmt{
			&SendStmt{Who: AllTasks, Async: true, Size: 1024, Dest: RelRank(1)},
			&RecvStmt{Who: AllTasks, Async: true, Size: 1024, Source: RelRank(-1)},
			&AwaitStmt{Who: AllTasks},
			&ReduceStmt{Srcs: AllTasks, Dsts: AllTasks, Size: 64},
		}},
	}}
	base := runtime.NumGoroutine()
	stop := make(chan struct{})
	sampled := make(chan struct{})
	var maxG atomic.Int64
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if g := int64(runtime.NumGoroutine()); g > maxG.Load() {
				maxG.Store(g)
			}
			runtime.Gosched()
		}
	}()
	if _, err := Execute(p, n, netmodel.BlueGeneL()); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	close(stop)
	<-sampled
	// Allow the watchdog, the sampler itself and unrelated runtime
	// goroutines; n/4 would already mean per-task goroutines came back.
	if max := maxG.Load(); max > int64(base+16) {
		t.Errorf("goroutine high-water mark %d (baseline %d): cursor execution must not spawn per-task goroutines", max, base)
	}
}

// TestCompileResolvesPlannedComms checks the lowering's communicator
// resolution table directly: world-covering unions map to the world
// reference, planned subgroups map to their plan slot.
func TestCompileResolvesPlannedComms(t *testing.T) {
	n := 8
	p := &Program{Stmts: []Stmt{
		&SyncStmt{Who: TaskSel{Kind: SelRange, Lo: 0, Hi: 3}},
		&ReduceStmt{Srcs: AllTasks, Dsts: AllTasks, Size: 8},
	}}
	plans := collectCommPlans(p.Stmts, n)
	if len(plans) != 1 {
		t.Fatalf("expected 1 planned communicator, got %d", len(plans))
	}
	c := &compiler{n: n, planIdx: map[string]int{plans[0].key: 0}}
	sub := TaskSel{Kind: SelRange, Lo: 0, Hi: 3}
	if ref, _ := c.commRefFor(sub.Set(n)); ref != 0 {
		t.Errorf("subgroup resolved to %d, want plan slot 0", ref)
	}
	if ref, _ := c.commRefFor(AllTasks.Set(n)); ref != worldRef {
		t.Errorf("world union resolved to %d, want worldRef", ref)
	}
}
