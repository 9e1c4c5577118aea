package mpi

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/telemetry"
)

// TestEngineReuseTelemetry pins the pool's observable accounting: with
// telemetry on, a three-run sequence at one world size is exactly one miss
// (the cold build) plus two hits (warm resets), and every acquisition lands a
// sample in the setup-time histogram. The on/off bit-identity of these
// counters rides the package-wide guarantee (no telemetry feeds back into
// virtual time) pinned by TestTelemetryOnOffBitIdentical at the root.
func TestEngineReuseTelemetry(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	eng := NewEngine()
	defer eng.Close()

	hits0 := ctrWorldReuseHits.Value()
	misses0 := ctrWorldReuseMisses.Value()
	setup0 := histRunSetupUS.Stats().Count
	wait0 := histEnginePoolWaitUS.Stats().Count
	done0 := ctrWorldsCompleted.Value()

	for i := 0; i < 3; i++ {
		if _, err := Run(16, netmodel.Ideal(), cleanBody, WithEngine(eng)); err != nil {
			t.Fatalf("pooled run %d: %v", i, err)
		}
	}

	if d := ctrWorldReuseMisses.Value() - misses0; d != 1 {
		t.Errorf("world_reuse_misses grew by %d, want 1 (single cold build)", d)
	}
	if d := ctrWorldReuseHits.Value() - hits0; d != 2 {
		t.Errorf("world_reuse_hits grew by %d, want 2 (two warm resets)", d)
	}
	if d := histRunSetupUS.Stats().Count - setup0; d != 3 {
		t.Errorf("run_setup_us observed %d samples, want 3 (one per acquisition)", d)
	}
	if d := histEnginePoolWaitUS.Stats().Count - wait0; d != 3 {
		t.Errorf("engine_pool_wait_us observed %d samples, want 3 (one per pooled acquisition)", d)
	}
	if d := ctrWorldsCompleted.Value() - done0; d != 3 {
		t.Errorf("worlds_completed grew by %d, want 3 (one per successful run)", d)
	}
}

// TestEngineSizeClassesAndEviction pins the pooling policy: worlds are keyed
// by size (a run at a new size never reuses a differently-sized world), and
// the rank budget evicts the largest cached class first.
func TestEngineSizeClassesAndEviction(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	eng := NewEngine()
	defer eng.Close()
	eng.maxRanks = 24 // forces eviction with toy worlds

	misses0 := ctrWorldReuseMisses.Value()
	for _, n := range []int{16, 8, 16} {
		if _, err := Run(n, netmodel.Ideal(), cleanBody, WithEngine(eng)); err != nil {
			t.Fatalf("run at %d ranks: %v", n, err)
		}
	}
	// 16 cold, 8 cold, then the 16-rank release (16+8=24 fits) leaves both
	// cached and the third run is a 16-rank hit.
	if d := ctrWorldReuseMisses.Value() - misses0; d != 2 {
		t.Errorf("misses grew by %d, want 2 (one per size class)", d)
	}
	// A 12-rank world (cold) overflows the budget on release; the 16-rank
	// class is evicted first, so a following 8-rank run still hits.
	hits0 := ctrWorldReuseHits.Value()
	if _, err := Run(12, netmodel.Ideal(), cleanBody, WithEngine(eng)); err != nil {
		t.Fatalf("run at 12 ranks: %v", err)
	}
	if _, err := Run(8, netmodel.Ideal(), cleanBody, WithEngine(eng)); err != nil {
		t.Fatalf("run at 8 ranks: %v", err)
	}
	if d := ctrWorldReuseHits.Value() - hits0; d != 1 {
		t.Errorf("hits grew by %d, want 1 (8-rank world survived the eviction)", d)
	}
	if _, ok := eng.cachedWorlds()[16]; ok {
		t.Error("16-rank class still cached; eviction should drop the largest class first")
	}
}

// TestEngineCloseRemainsUsable pins that Close is a drain, not a kill: runs
// issued after Close build cold, complete correctly, and leave nothing cached
// or running.
func TestEngineCloseRemainsUsable(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewEngine()
	if _, err := Run(8, netmodel.Ideal(), cleanBody, WithEngine(eng)); err != nil {
		t.Fatalf("pooled run: %v", err)
	}
	eng.Close()
	res, err := Run(8, netmodel.Ideal(), cleanBody, WithEngine(eng))
	if err != nil {
		t.Fatalf("run after Close: %v", err)
	}
	if len(res.PerRankUS) != 8 {
		t.Fatalf("result has %d ranks, want 8", len(res.PerRankUS))
	}
	waitForGoroutines(t, base)
	if total, classes := eng.cached, eng.cachedWorlds(); total != 0 || len(classes) != 0 {
		t.Errorf("engine cached %d ranks across %d classes after Close", total, len(classes))
	}
}

// TestEngineConcurrentCloseAndBudget pins the pool's accounting under
// concurrent use: while mixed-size worlds run from several goroutines
// against a tiny rank budget, the cached total always equals the ranks the
// free lists hold and never exceeds the budget; and a Close landing while
// runs are in flight leaves nothing cached and no rank goroutine running
// once they finish (a release racing Close must not re-cache its world).
func TestEngineConcurrentCloseAndBudget(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewEngine()
	eng.maxRanks = 24
	sizes := []int{4, 8, 16}

	// consistent checks the invariants on one locked snapshot.
	consistent := func() {
		eng.mu.Lock()
		total, sum := eng.cached, 0
		for n, l := range eng.free {
			sum += n * len(l)
		}
		eng.mu.Unlock()
		if total != sum || total > eng.maxRanks {
			t.Errorf("cached %d ranks, free lists hold %d, budget %d", total, sum, eng.maxRanks)
		}
	}

	// runAll starts `workers` goroutines that each run `runs` pooled worlds,
	// cycling through the sizes; onRun is called after each finished run.
	runAll := func(workers, runs int, onRun func()) *sync.WaitGroup {
		var wg sync.WaitGroup
		wg.Add(workers)
		for g := 0; g < workers; g++ {
			go func() {
				defer wg.Done()
				for i := 0; i < runs; i++ {
					n := sizes[(g+i)%len(sizes)]
					res, err := Run(n, netmodel.Ideal(), cleanBody, WithEngine(eng))
					if err != nil {
						t.Errorf("run at %d ranks: %v", n, err)
						return
					}
					if len(res.PerRankUS) != n {
						t.Errorf("run at %d ranks returned %d clocks", n, len(res.PerRankUS))
					}
					onRun()
				}
			}()
		}
		return &wg
	}

	runAll(4, 20, consistent).Wait()
	var total int
	for n, c := range eng.cachedWorlds() {
		total += n * c
	}
	if total != eng.cached || total > eng.maxRanks {
		t.Fatalf("quiescent pool: cached %d, cachedWorlds sums to %d, budget %d", eng.cached, total, eng.maxRanks)
	}

	var done atomic.Int32
	wg := runAll(4, 20, func() { done.Add(1) })
	for done.Load() < 8 {
		runtime.Gosched()
	}
	eng.Close()
	wg.Wait()
	if total, classes := eng.cached, eng.cachedWorlds(); total != 0 || len(classes) != 0 {
		t.Errorf("engine cached %d ranks across %d classes after Close", total, len(classes))
	}
	waitForGoroutines(t, base)
}
