package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// Telemetry handles for the configuration pool.
var (
	ctrConfigsDone   = telemetry.NewCounter("harness.configs_done")
	ctrConfigsFailed = telemetry.NewCounter("harness.configs_failed")
	ctrWorkerPanics  = telemetry.NewCounter("harness.worker_panics")
	ctrPoolJobsRun   = telemetry.NewCounter("harness.pool_jobs_run")
	ctrPoolPanics    = telemetry.NewCounter("harness.pool_job_panics")
)

// poolOverride pins the number of experiment configurations the harness runs
// concurrently. Zero means "use GOMAXPROCS". Every configuration (one traced
// app, one generated-benchmark execution, one what-if variant) is an
// independent simulated world, so fanning them across workers changes only
// wall-clock time, never results: each job writes its own index-addressed
// result slot and builds its own collectors, profiles and models.
var poolOverride atomic.Int32

// runTimeoutNS overrides the wall-clock deadline forwarded to every simulated
// run the harness starts. Zero keeps the runtime default.
var runTimeoutNS atomic.Int64

// sharedEngine pools simulated worlds across every run the harness starts.
// Experiment batches replay the same few world sizes dozens of times (trace,
// generate, replay, what-if variants), so after the first configuration at a
// size every later one gets a warm world. The pool is safe for the
// fan-out workers to share, and pooling never changes results — the
// pooled-determinism suite pins warm runs bit-identical to cold ones.
var sharedEngine = mpi.NewEngine()

// SharedEngine exposes the harness's world pool so co-hosted components
// (benchd's pipeline stages) reuse the same warm worlds instead of
// maintaining a second pool.
func SharedEngine() *mpi.Engine { return sharedEngine }

// sharedRunPool is the work-stealing pool of worker Ps that executes every
// world-driving task the harness fans out — experiment configurations
// (forEach) and benchd job bodies (Pool) alike. One pool per process keeps
// the machine's Ps busy without oversubscription no matter how many callers
// fan out concurrently; tasks that wait on sub-tasks help execute pending
// work instead of blocking, so nested fan-out cannot deadlock the fixed
// worker set.
var sharedRunPool = mpi.NewRunPool(0)

// SharedRunPool exposes the harness's work-stealing run pool so co-hosted
// components can drive worlds through the same worker set.
func SharedRunPool() *mpi.RunPool { return sharedRunPool }

// SetParallelism sets how many experiment configurations run concurrently.
// k <= 0 restores the default (GOMAXPROCS). Results are identical for every
// worker count.
func SetParallelism(k int) {
	if k < 0 {
		k = 0
	}
	poolOverride.Store(int32(k))
}

// Parallelism returns the effective concurrent-configuration count.
func Parallelism() int {
	if k := poolOverride.Load(); k > 0 {
		return int(k)
	}
	return runtime.GOMAXPROCS(0)
}

// SetRunTimeout bounds the real (wall-clock) duration of each simulated run
// the harness launches. d <= 0 restores the runtime's default deadline.
func SetRunTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	runTimeoutNS.Store(int64(d))
}

// runOptions returns the mpi options every harness-started run receives:
// the shared world pool, plus the configured wall-clock deadline if any.
func runOptions() []mpi.Option {
	opts := []mpi.Option{mpi.WithEngine(sharedEngine)}
	if d := time.Duration(runTimeoutNS.Load()); d > 0 {
		opts = append(opts, mpi.WithTimeout(d))
	}
	return opts
}

// forEach runs fn(i) for every i in [0, n) on up to Parallelism() workers.
// Jobs must be independent and write results into index-addressed slots, so
// the outcome does not depend on scheduling. The returned error is the
// lowest-index failure, which keeps error reporting deterministic too. Each
// job is a whole simulated world, so work is handed out one index at a time.
func forEach(n int, fn func(i int) error) error {
	return forEachNamed(n, nil, fn)
}

// forEachNamed is forEach with a job-naming function used in failure
// reports: a panic inside fn(i) is recovered and surfaces as that one
// configuration's error — naming the configuration — instead of tearing
// down the whole experiment run, and the remaining jobs still complete.
// name may be nil, in which case failed jobs are reported by index.
func forEachNamed(n int, name func(i int) string, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// The serial path keeps fail-fast semantics but still converts a
		// panic into a named error.
		for i := 0; i < n; i++ {
			if err := runJob(name, i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	if workers >= sharedRunPool.Workers() {
		// Full fan-out: scatter one task per configuration across the run
		// pool's per-worker deques, one steal away from any idle P. The
		// caller helps while waiting, so a nested fan-out (a pooled job
		// that itself calls forEach) executes instead of deadlocking on a
		// saturated worker set.
		fns := make([]func(), n)
		for i := range fns {
			i := i
			fns[i] = func() { errs[i] = runJob(name, i, fn) }
		}
		mpi.WaitAll(sharedRunPool.SubmitBatch(fns))
	} else {
		// A parallelism cap below the pool size is honored with runner
		// tasks pulling an index cursor: at most `workers` configurations
		// are in flight no matter how many Ps the pool has.
		var cursor atomic.Int64
		runner := func() {
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = runJob(name, i, fn)
			}
		}
		ts := make([]*mpi.RunTicket, workers)
		for w := range ts {
			ts[w] = sharedRunPool.Submit(runner)
		}
		mpi.WaitAll(ts)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// jobName renders the display name for job i.
func jobName(name func(i int) string, i int) string {
	if name != nil {
		if s := name(i); s != "" {
			return s
		}
	}
	return fmt.Sprintf("#%d", i)
}

// ErrQueueFull is returned by Pool.Submit when the bounded queue has no free
// slot; callers translate it into backpressure (benchd answers 429).
var ErrQueueFull = errors.New("harness: job queue full")

// ErrPoolClosed is returned by Pool.Submit after Drain began.
var ErrPoolClosed = errors.New("harness: pool closed")

// Pool is a long-lived bounded worker pool for service-style workloads, as
// opposed to forEach's one-shot experiment fan-out. Jobs carry a
// context.Context that the worker hands to the job body; the body is
// expected to thread it into everything cancellable it starts (simulated
// runs via mpi.WithContext, stage boundaries via ctx.Err checks), so a
// cancelled or timed-out job actually stops pipeline work instead of leaking
// goroutines. Submit never blocks: a full queue is reported as ErrQueueFull
// and left to the caller's backpressure policy.
type Pool struct {
	jobs chan poolJob
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

type poolJob struct {
	ctx context.Context
	run func(ctx context.Context)
}

// NewPool starts a pool with the given number of workers and queue capacity.
// workers <= 0 uses Parallelism(); queueCap <= 0 means no buffering (a job is
// accepted only if a worker is idle and receiving).
func NewPool(workers, queueCap int) *Pool {
	if workers <= 0 {
		workers = Parallelism()
	}
	if queueCap < 0 {
		queueCap = 0
	}
	p := &Pool{jobs: make(chan poolJob, queueCap)}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				// The worker goroutine is only admission control (it bounds
				// in-flight jobs at `workers`); the job body itself runs on
				// the shared work-stealing pool, alongside every other world
				// the process is driving, instead of on a goroutine of its
				// own. Run's helping wait keeps this deadlock-free when the
				// pool is saturated: the dispatcher executes pending tasks
				// itself rather than parking.
				j := j
				sharedRunPool.Run(func() { p.runOne(j) })
			}
		}()
	}
	return p
}

// runOne executes a submitted job, containing a panic to that job: a
// crashing request must not take down the pool's worker (and with it the
// daemon's capacity).
func (p *Pool) runOne(j poolJob) {
	defer func() {
		if r := recover(); r != nil {
			ctrPoolPanics.Inc()
			telemetry.Eventf("harness: pool job panic: %v", r)
		}
	}()
	ctrPoolJobsRun.Inc()
	j.run(j.ctx)
}

// Submit enqueues a job without blocking. The job body receives ctx (never
// nil) when a worker picks it up; a body that observes ctx already cancelled
// should record that outcome itself — the pool does not second-guess it.
func (p *Pool) Submit(ctx context.Context, run func(ctx context.Context)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.jobs <- poolJob{ctx: ctx, run: run}:
		return nil
	default:
		return ErrQueueFull
	}
}

// QueueLen reports how many accepted jobs are waiting for a worker.
func (p *Pool) QueueLen() int { return len(p.jobs) }

// QueueCap reports the queue's capacity.
func (p *Pool) QueueCap() int { return cap(p.jobs) }

// Drain stops accepting new jobs and blocks until every previously accepted
// job — queued or running — has finished. This is the graceful-shutdown
// guarantee benchd relies on: no accepted job is lost.
func (p *Pool) Drain() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// runJob executes one configuration, recovering a panic into an error that
// names the configuration, and counts the outcome.
func runJob(name func(i int) string, i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			jb := jobName(name, i)
			ctrWorkerPanics.Inc()
			telemetry.Eventf("harness: worker panic in configuration %s: %v", jb, r)
			err = fmt.Errorf("harness: configuration %s panicked: %v\n%s", jb, r, debug.Stack())
		}
		if err != nil {
			ctrConfigsFailed.Inc()
		} else {
			ctrConfigsDone.Inc()
		}
	}()
	return fn(i)
}
