package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/mpnet"
	"repro/internal/netmodel"
)

// BenchmarkVerifyCheck measures model-checker throughput — explored states
// per second against rank count — on LU's wildcard-heavy sweep trace. Each
// iteration re-explores the net under a fixed state budget, so ns/op is
// the cost of one bounded exploration and the states/sec metric is the
// checker's raw state throughput; BENCH_10.json archives both as the
// verify_throughput series; perfbench's verify-lu4 workload tracks the
// checker end to end.
func BenchmarkVerifyCheck(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("check-%dranks", n), func(b *testing.B) {
			run, err := harness.TraceApp("lu", apps.NewConfig(n, apps.ClassS), netmodel.BlueGeneL())
			if err != nil {
				b.Fatalf("TraceApp: %v", err)
			}
			opts := &mpnet.Options{MaxStates: 1 << 13}
			net, err := mpnet.FromTrace(run.Trace, opts)
			if err != nil {
				b.Fatalf("FromTrace: %v", err)
			}
			var states int64
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				v := net.Check(opts)
				states += int64(v.StatesExplored)
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(states)/elapsed, "states/sec")
			}
		})
	}
}
