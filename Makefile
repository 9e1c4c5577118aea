GO ?= go

.PHONY: test check bench bench-all race verify-fuzz timeline serve

test:
	$(GO) test ./...

# check is the pre-commit gate: static analysis, the race detector over the
# concurrent subsystems — the parallel trace pipeline, the simulated MPI
# transport (the discrete-event scheduler's token handoff and the goroutine
# reference runtime's mutex+cond mailboxes and collective rendezvous), the
# coNCePTuaL executors (stackless cursors and the tree-walk reference), the
# harness worker pool, the telemetry registry and the benchd service — the
# differential suite that pins the event engine and the goroutine reference
# runtime to bit-identical traces and clocks, also under -race, plus short
# fuzz passes over the untrusted-upload trace decoder and the coNCePTuaL
# parser.
check:
	$(GO) vet ./...
	$(GO) test -race ./internal/trace/... ./internal/mpi/... ./internal/conceptual/... ./internal/harness/... ./internal/telemetry/... ./internal/service/... ./internal/critpath/... ./internal/mpnet/...
	$(GO) test -race -run 'TestEventEngineMatchesGoroutineRuntime|TestRunToRunDeterminism|TestCritPath|TestRunPoolConcurrentDeterminism' .
	$(GO) test -race -run 'TestVerifySuite|TestVerifyCounterexampleReplay' .
	$(GO) test -race -short -run 'TestReplayRepresentationsBitIdentical|TestPooledWorldDeterminism|TestPooledReplayDeterminism' .
	$(GO) test -run NONE -fuzz FuzzDecode -fuzztime 10s ./internal/trace/
	$(GO) test -run NONE -fuzz FuzzParse -fuzztime 10s ./internal/conceptual/

# verify-fuzz drives the MP-net exporter and the bounded model checker
# with untrusted trace documents: anything the codec accepts must lower,
# export and check without panicking or exploding.
verify-fuzz:
	$(GO) test -run NONE -fuzz FuzzExport -fuzztime 10s ./internal/mpnet/

race:
	$(GO) test -race ./...

# bench runs the repository benchmark (perfbench/, declared in
# BENCHMARK.json): every workload once untraced for the end-to-end metrics
# and once traced for the per-layer split, appending each result set to
# .bench_build/results.jsonl, then prints the medians and spreads. The
# BENCH_N.json files at the root are archived history and are not rewritten.
bench:
	for w in pipeline-lu64 pipeline-bt256 serve-mix verify-lu4; do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 20 --trace 1 || exit 1; \
	done
	python3 perfbench/run.py compare .bench_build/results.jsonl

# bench-all runs the full evaluation-reproduction suite without touching the
# recorded baseline.
bench-all:
	$(GO) test -run NONE -bench=. -benchmem .

# timeline produces a ready-to-view virtual-time timeline of a 64-rank ring
# trace run; load the JSON at https://ui.perfetto.dev (or
# chrome://tracing) to browse per-rank MPI spans on the simulated clock.
timeline:
	$(GO) run ./cmd/tracegen -app ring -n 64 -class S -o /dev/null -timeline timeline.json
	@echo "wrote timeline.json — open https://ui.perfetto.dev and load it"

# serve starts the generation daemon with a persistent result cache; see
# README "Serving" for the request walkthrough.
serve:
	$(GO) run ./cmd/benchd -addr :8125 -cache-dir .benchd-cache
