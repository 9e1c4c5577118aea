// Command perfbench is the repository's end-to-end benchmark. It drives the
// generation pipeline in process, through the same public calls the CLIs and
// benchd use, on four named workloads (see README.md), checks every
// request's output, and prints one result set.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out file]
//	perfbench compare <results.jsonl>                  (medians, spreads, tracing overhead)
//	perfbench compare <parent.jsonl> <change.jsonl>    (verdict per workload and metric)
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 every layer call is wrapped in a span and the last
// line carries the per-layer metrics instead. The full result set (host,
// seed, samples, per-span self and total times) is appended as one JSON
// line to --out; a traced run also writes its raw spans beside it.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/stats"
)

// metricDef names one reported metric and its unit. The lists below are the
// ones BENCHMARK.json declares; the self-test pins that they agree.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"request_p50_s", "s"},
	{"request_p90_s", "s"},
	{"throughput_rps", "1/s"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
	{"timing_err_pct", "%"},
	{"trace_bytes", "bytes"},
	{"source_bytes", "bytes"},
}

// perLayer lists the per-layer metrics. A metric of a layer a workload does
// not exercise reads 0 on that workload.
var perLayer = []metricDef{
	{"trace.collect_s", "s"},
	{"trace.events", "count"},
	{"trace.nodes", "count"},
	{"trace.compression", "events/node"},
	{"trace.encode_s", "s"},
	{"trace.decode_s", "s"},
	{"wildcard.resolve_s", "s"},
	{"wildcard.recvs", "count"},
	{"wildcard.nodes_out", "count"},
	{"align.align_s", "s"},
	{"align.nodes_out", "count"},
	{"core.emit_s", "s"},
	{"core.stmts", "count"},
	{"conceptual.print_s", "s"},
	{"conceptual.execute_s", "s"},
	{"conceptual.calls", "count"},
	{"conceptual.calls_per_s", "1/s"},
	{"mpip.diff_s", "s"},
	{"replay.equiv_s", "s"},
	{"service.request_s", "s"},
	{"service.hit_p50_s", "s"},
	{"service.miss_p50_s", "s"},
	{"service.hit_ratio", "ratio"},
	{"service.rejects", "count"},
	{"mpnet.lower_s", "s"},
	{"mpnet.check_s", "s"},
	{"mpnet.states", "count"},
	{"mpnet.states_per_s", "1/s"},
	{"mpnet.crossval_s", "s"},
	{"unattributed_s", "s"},
	{"traced_request_p50_s", "s"},
}

// scale selects the workload sizes: full is the benchmark, tiny is the
// self-test's quick pass over the same code.
type scale int

const (
	full scale = iota
	tiny
)

// config is what a workload's set-up receives.
type config struct {
	scale scale
	seed  int64
	// corrupt makes the workload damage one of its own outputs before the
	// checks see it; only the self-test sets it, to prove the checks fail.
	corrupt bool
}

// outcome is what one request reports besides its error.
type outcome struct {
	served bool // answered by benchd
	hit    bool // served from benchd's result cache
}

// session is one set-up workload: it answers requests until closed.
type session interface {
	// clients is the number of closed-loop clients driving the session.
	clients() int
	// request runs one request for the given client, with its layer calls
	// wrapped in spans on tr (nil in the untraced run), and checks its
	// output. A failed check is a *checkError.
	request(client int, tr *tracer) (outcome, error)
	// facts returns the exact, deterministic values the session measured
	// while it was set up and served: the end-to-end artifact guards
	// (timing_err_pct, trace_bytes, source_bytes) and the layers' counts.
	facts() map[string]float64
	close()
}

// checkError marks a request whose output failed a correctness check.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

func checkFailed(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// errRefused marks a request benchd refused with 429.
var errRefused = errors.New("refused by the server (429)")

type workload struct {
	name string
	open func(cfg config) (session, error)
	// setups is how many times a run sets the workload up; setup_s is their
	// median, so one slow set-up does not move it. serve-mix's set-up is
	// short and varies most, so it takes more.
	setups int
}

var workloads = []workload{
	{"pipeline-lu64", openPipelineLU, 3},
	{"pipeline-bt256", openPipelineBT, 3},
	{"serve-mix", openServeMix, 5},
	{"verify-lu4", openVerifyLU, 3},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostInfo is recorded with every result set.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// layerStat is one span name's median self and total time per request.
type layerStat struct {
	SelfP50  float64 `json:"self_p50_s"`
	TotalP50 float64 `json:"total_p50_s"`
}

// record is one run's result set, as appended to --out.
type record struct {
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Traced      bool                 `json:"traced"`
	Seconds     int                  `json:"seconds"`
	Time        string               `json:"time"`
	Host        hostInfo             `json:"host"`
	Correct     bool                 `json:"correct"`
	Attempted   int                  `json:"attempted"`
	Failed      int                  `json:"failed"`
	CheckFailed int                  `json:"check_failed"`
	Refused     int                  `json:"refused"`
	FailRatio   float64              `json:"fail_ratio"`
	Errors      []string             `json:"errors,omitempty"`
	Metrics     map[string]metric    `json:"metrics"`
	SetupS      []float64            `json:"setup_s_samples"`
	RequestS    []float64            `json:"request_s_samples"`
	Layers      map[string]layerStat `json:"layers,omitempty"`
}

// result is the contract line printed last on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "1 wraps every layer call in a span and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results.jsonl"), "file the full result set is appended to (empty: none)")
	commit := fs.String("commit", "unknown", "source commit, recorded with the result set")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	rec, spans, err := run(w, config{scale: full, seed: *seed}, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		return err
	}
	rec.Host.Commit = *commit
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			return err
		}
		if rec.Traced {
			name := fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed)
			if err := writeJSON(filepath.Join(filepath.Dir(*out), name), spans); err != nil {
				return err
			}
		}
	}
	line, err := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted,
		Failed: rec.Failed + rec.CheckFailed + rec.Refused, Metrics: rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// sample is one finished request.
type sample struct {
	wall  time.Duration
	err   error
	out   outcome
	spans []span
}

// run sets the workload up w.setups times, keeps the last session, drives it
// with its closed-loop clients for d, and assembles the result set. An error
// is returned only when the workload cannot be set up; failures of single
// requests are counted in the record.
func run(w workload, cfg config, d time.Duration, traced bool) (*record, []span, error) {
	var setupS []float64
	var s session
	for i := 0; i < w.setups; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		s, err = w.open(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer s.close()

	samples, elapsed := measure(s, d, traced)
	rec := assemble(w.name, cfg, s, setupS, samples, elapsed, traced)
	rec.Seconds = int(d / time.Second)
	var spans []span
	for _, smp := range samples {
		spans = append(spans, smp.spans...)
	}
	return rec, spans, nil
}

// measure drives s with its clients until d has passed; each client sends
// its next request only after the previous one returned. It returns the
// samples and the time from the start until the last request finished.
func measure(s session, d time.Duration, traced bool) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	perClient := make([][]sample, s.clients())
	var last time.Time
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tr *tracer
			if traced {
				tr = newTracer(start)
			}
			for time.Now().Before(deadline) {
				if tr != nil {
					tr.request = len(perClient[c])
				}
				t0 := time.Now()
				end := tr.begin("request")
				out, err := s.request(c, tr)
				end()
				smp := sample{wall: time.Since(t0), err: err, out: out}
				if tr != nil {
					smp.spans = tr.spans
					tr.spans = nil
				}
				perClient[c] = append(perClient[c], smp)
			}
			mu.Lock()
			if now := time.Now(); now.After(last) {
				last = now
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, ss := range perClient {
		all = append(all, ss...)
	}
	return all, last.Sub(start)
}

func median(vs []float64) float64 { return stats.Summarize(vs).Median }

func assemble(name string, cfg config, s session, setupS []float64, samples []sample, elapsed time.Duration, traced bool) *record {
	rec := &record{
		Workload: name,
		Seed:     cfg.seed,
		Traced:   traced,
		Time:     time.Now().UTC().Format(time.RFC3339),
		Host:     host(),
		SetupS:   setupS,
		Metrics:  make(map[string]metric),
	}
	var ok, hits, misses []float64
	errSeen := map[string]bool{}
	for _, smp := range samples {
		rec.Attempted++
		var ce *checkError
		switch {
		case smp.err == nil:
			ok = append(ok, smp.wall.Seconds())
			switch {
			case smp.out.served && smp.out.hit:
				hits = append(hits, smp.wall.Seconds())
			case smp.out.served:
				misses = append(misses, smp.wall.Seconds())
			}
			continue
		case errors.As(smp.err, &ce):
			rec.CheckFailed++
		case errors.Is(smp.err, errRefused):
			rec.Refused++
		default:
			rec.Failed++
		}
		if msg := smp.err.Error(); !errSeen[msg] && len(rec.Errors) < 8 {
			errSeen[msg] = true
			rec.Errors = append(rec.Errors, msg)
		}
	}
	rec.RequestS = ok
	bad := rec.Failed + rec.CheckFailed + rec.Refused
	if rec.Attempted > 0 {
		rec.FailRatio = float64(bad) / float64(rec.Attempted)
	}
	rec.Correct = bad == 0 && rec.Attempted > 0
	facts := s.facts()
	reqSum := stats.Summarize(ok)

	set := func(name, unit string, v float64) { rec.Metrics[name] = metric{Value: v, Unit: unit} }
	if !traced {
		for _, m := range endToEnd {
			var v float64
			switch m.name {
			case "setup_s":
				v = median(setupS)
			case "request_p50_s":
				v = reqSum.Median
			case "request_p90_s":
				v = reqSum.Percentile(0.9)
			case "throughput_rps":
				if elapsed > 0 {
					v = float64(len(ok)) / elapsed.Seconds()
				}
			case "ok_ratio":
				v = 1 - rec.FailRatio
			case "peak_rss_mb":
				v = peakRSSMB()
			default:
				v = facts[m.name]
			}
			set(m.name, m.unit, v)
		}
		return rec
	}

	// Per-layer times are self times, so together with unattributed_s they
	// partition the request's wall time.
	perName := map[string][]float64{}
	totals := map[string][]float64{}
	for _, smp := range samples {
		if smp.err != nil || len(smp.spans) == 0 {
			continue
		}
		total, self := layerTimes(smp.spans)
		for n, d := range self {
			perName[n] = append(perName[n], d.Seconds())
			totals[n] = append(totals[n], total[n].Seconds())
		}
	}
	rec.Layers = make(map[string]layerStat)
	for n := range perName {
		rec.Layers[n] = layerStat{SelfP50: median(perName[n]), TotalP50: median(totals[n])}
	}
	for _, m := range perLayer {
		var v float64
		switch {
		case m.name == "unattributed_s":
			v = rec.Layers["request"].SelfP50
		case m.name == "traced_request_p50_s":
			v = reqSum.Median
		case m.name == "service.hit_p50_s":
			v = median(hits)
		case m.name == "service.miss_p50_s":
			v = median(misses)
		case m.name == "service.hit_ratio":
			if n := len(hits) + len(misses); n > 0 {
				v = float64(len(hits)) / float64(n)
			}
		case m.name == "service.rejects":
			v = float64(rec.Refused)
		case m.name == "conceptual.calls_per_s":
			if t := rec.Layers["conceptual.execute"].SelfP50; t > 0 {
				v = facts["conceptual.calls"] / t
			}
		case m.name == "mpnet.states_per_s":
			if t := rec.Layers["mpnet.check"].SelfP50; t > 0 {
				v = facts["mpnet.states"] / t
			}
		case strings.HasSuffix(m.name, "_s"):
			v = rec.Layers[strings.TrimSuffix(m.name, "_s")].SelfP50
		default:
			v = facts[m.name]
		}
		set(m.name, m.unit, v)
	}
	return rec
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func host() hostInfo {
	h := hostInfo{
		CPUs:       runtime.NumCPU(),
		CPUModel:   "unknown",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append result set: %w", err)
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
