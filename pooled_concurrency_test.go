package repro

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// runKernelErr is runKernel without the testing.T plumbing, safe to call
// from the fan-out goroutines (t.Fatalf must not run off the test
// goroutine).
func runKernelErr(name string, n int, opts ...mpi.Option) (*mpi.Result, []byte, error) {
	app := apps.ByName(name)
	col := trace.NewCollector(n)
	opts = append(opts, mpi.WithTracer(col.TracerFor))
	res, err := mpi.Run(n, netmodel.BlueGeneL(), app.Body(apps.NewConfig(n, apps.ClassS)), opts...)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, col.Trace()); err != nil {
		return nil, nil, err
	}
	return res, buf.Bytes(), nil
}

// TestConcurrentPooledDeterminism pins that driving many pooled worlds
// concurrently changes nothing but wall-clock time. Every kernel runs
// serially once for a baseline, then three concurrent repetitions — one
// goroutine per world — through a shared Engine at GOMAXPROCS 1, 4 and 8,
// mixing world reuse and cross-world scheduling races, and every repetition
// must reproduce the baseline's per-rank clocks and encoded trace byte for
// byte. Worlds are
// single-threaded internally, so the only way this fails is shared state
// leaking between worlds; -race (make check runs this under it) catches the
// data-race form of the same bug.
func TestConcurrentPooledDeterminism(t *testing.T) {
	type kern struct {
		name string
		n    int
	}
	var kerns []kern
	for _, name := range apps.Names() {
		app := apps.ByName(name)
		n := 16
		for !app.ValidRanks(n) {
			n--
		}
		kerns = append(kerns, kern{name: name, n: n})
	}
	baseRes := make([]*mpi.Result, len(kerns))
	baseTrace := make([][]byte, len(kerns))
	for i, k := range kerns {
		var err error
		if baseRes[i], baseTrace[i], err = runKernelErr(k.name, k.n); err != nil {
			t.Fatalf("%s baseline: %v", k.name, err)
		}
	}

	const reps = 3
	for _, procs := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("gomaxprocs-%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			eng := mpi.NewEngine()
			defer eng.Close()

			results := make([]*mpi.Result, len(kerns)*reps)
			traces := make([][]byte, len(kerns)*reps)
			errs := make([]error, len(kerns)*reps)
			var wg sync.WaitGroup
			wg.Add(len(results))
			for i := range results {
				i := i
				k := kerns[i%len(kerns)]
				go func() {
					defer wg.Done()
					results[i], traces[i], errs[i] = runKernelErr(k.name, k.n, mpi.WithEngine(eng))
				}()
			}
			wg.Wait()

			for i := range results {
				if errs[i] != nil {
					t.Fatalf("%s rep %d: %v", kerns[i%len(kerns)].name, i/len(kerns), errs[i])
				}
				k := kerns[i%len(kerns)]
				want, got := baseRes[i%len(kerns)], results[i]
				for r := range want.PerRankUS {
					if want.PerRankUS[r] != got.PerRankUS[r] {
						t.Errorf("%s rep %d rank %d clock: concurrent %v, serial %v",
							k.name, i/len(kerns), r, got.PerRankUS[r], want.PerRankUS[r])
					}
				}
				if !bytes.Equal(baseTrace[i%len(kerns)], traces[i]) {
					t.Errorf("%s rep %d: concurrent pooled trace differs from serial baseline",
						k.name, i/len(kerns))
				}
			}
		})
	}
}
