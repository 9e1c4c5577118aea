package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/netmodel"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Serve-mix shape. The cache holds a quarter of the mix's distinct
// requests, so under the Zipf skew about two thirds of the requests are
// served from the cache and the rest are cold fills that evict older
// entries. With hits clearly in the majority the median request is a hit;
// near one half it would jump between a hit's and a fill's latency.
const (
	serveClients    = 2
	serveZipfS      = 1.1
	serveDeckSize   = 400
	serveCacheSize  = 16
	serveReqTimeout = time.Minute
)

var (
	serveLangs  = []string{"conceptual", "c", "go"}
	serveModels = []string{"bluegene", "ethernet", "infiniband"}
)

// serveKey is one distinct request of the mix.
type serveKey struct {
	req    service.Request
	verify bool
	// originalUS is the traced app's virtual time, for uploads generated
	// from a trace the benchmark collected itself (0 otherwise).
	originalUS float64
}

// serveMix runs benchd in process behind a loopback httptest server and
// drives it with closed-loop clients, each working through its own seeded
// shuffle of a Zipf-weighted deck of the distinct requests.
type serveMix struct {
	ts      *httptest.Server
	srv     *service.Server
	client  *service.Client
	log     *admissionLog
	keys    []serveKey
	decks   []*deck
	want    []string // per key: digest of its first response
	corrupt bool
	count   map[string]float64
}

// appRanks is one app at one rank count.
type appRanks struct {
	app string
	n   int
}

// serveApps lists the app requests of the mix: every app of the suite at up
// to five of the rank counts its decomposition accepts, up to 64. The
// solvers whose generation is costly at scale stop early (bt and sp at 9
// ranks, lu at 8), so a cold fill stays cheap and the service layers, not
// generation, dominate; the pipeline workloads measure those solvers at
// scale.
func serveApps(sc scale) []appRanks {
	ranks := []int{4, 8, 9, 16, 32, 36, 64}
	perApp := 5
	if sc == tiny {
		ranks, perApp = []int{4}, 1
	}
	solverCap := map[string]int{"bt": 9, "sp": 9, "lu": 8}
	var out []appRanks
	for _, name := range apps.Names() {
		a := apps.ByName(name)
		k := 0
		for _, n := range ranks {
			if c, ok := solverCap[name]; ok && n > c {
				break
			}
			if k < perApp && a.ValidRanks(n) {
				out = append(out, appRanks{name, n})
				k++
			}
		}
	}
	return out
}

// serveUploads are the small wildcard-free traces uploaded as documents,
// each both for generation and for /v1/verify.
var serveUploads = []appRanks{{"bt", 4}, {"cg", 8}, {"mg", 8}, {"ft", 4}, {"is", 8}, {"ep", 16}}

// serveKeys builds the mix's distinct requests in popularity order. The key
// set and its order are fixed; the seed only drives the clients' draws.
func serveKeys(sc scale) ([]serveKey, error) {
	var keys []serveKey
	for i, an := range serveApps(sc) {
		keys = append(keys, serveKey{req: service.Request{
			App: an.app, N: an.n, Class: "S",
			Lang: serveLangs[i%len(serveLangs)], Model: serveModels[(i/len(serveLangs))%len(serveModels)],
		}})
	}
	uploads := serveUploads
	if sc == tiny {
		uploads = uploads[:1]
	}
	for i, u := range uploads {
		model := serveModels[i%len(serveModels)]
		run, err := harness.TraceApp(u.app, apps.NewConfig(u.n, apps.ClassS), netmodel.Preset(model))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, run.Trace); err != nil {
			return nil, fmt.Errorf("encode upload: %w", err)
		}
		doc := buf.String()
		keys = append(keys,
			serveKey{req: service.Request{Trace: doc, Model: model, Lang: serveLangs[i%len(serveLangs)]}, originalUS: run.ElapsedUS},
			serveKey{req: service.Request{Trace: doc, Model: model}, verify: true})
	}
	// A fixed shuffle spreads cheap and costly requests over the popularity
	// ranks, so the most popular requests are not all of one size.
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys, nil
}

// openServeMix starts a fresh daemon and sends every distinct request once,
// which fixes each key's reference response and leaves the cache and the
// world pool warm.
func openServeMix(cfg config) (session, error) {
	keys, err := serveKeys(cfg.scale)
	if err != nil {
		return nil, err
	}
	log := &admissionLog{hits: map[string]int{}, misses: map[string]int{}}
	srv, err := service.NewServer(service.Config{CacheEntries: serveCacheSize, Logger: slog.New(log)})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	s := &serveMix{
		ts: ts, srv: srv, log: log, keys: keys,
		client: &service.Client{BaseURL: ts.URL, HTTPClient: ts.Client()},
		want:   make([]string, len(keys)),
	}
	var sourceBytes, traceBytes, errSum float64
	uploads := 0
	for i, k := range keys {
		res, err := s.send(k)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", describe(k), err)
		}
		s.log.take(res.Key)
		s.want[i] = digest(res)
		sourceBytes += float64(len(res.Source))
		if k.verify {
			traceBytes += float64(len(k.req.Trace))
		}
		if k.originalUS > 0 {
			errSum += stats.AbsPercentError(res.ElapsedUS, k.originalUS)
			uploads++
		}
	}
	s.count = map[string]float64{
		"timing_err_pct": errSum / math.Max(1, float64(uploads)),
		"trace_bytes":    traceBytes,
		"source_bytes":   sourceBytes,
	}
	cards := zipfDeck(len(keys))
	for c := 0; c < serveClients; c++ {
		rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(c)))
		s.decks = append(s.decks, &deck{rng: rng, cards: append([]int(nil), cards...)})
	}
	s.corrupt = cfg.corrupt
	return s, nil
}

func describe(k serveKey) string {
	if k.req.Trace != "" {
		return fmt.Sprintf("upload (verify=%v, lang=%q, model=%s)", k.verify, k.req.Lang, k.req.Model)
	}
	return fmt.Sprintf("%s/%d %s %s", k.req.App, k.req.N, k.req.Lang, k.req.Model)
}

func (s *serveMix) send(k serveKey) (*service.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), serveReqTimeout)
	defer cancel()
	req := k.req
	if k.verify {
		return s.client.Verify(ctx, &req)
	}
	return s.client.Generate(ctx, &req)
}

func (s *serveMix) clients() int              { return serveClients }
func (s *serveMix) facts() map[string]float64 { return s.count }

func (s *serveMix) close() {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), serveReqTimeout)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // nothing is queued once every client returned
}

func (s *serveMix) request(client int, tr *tracer) (outcome, error) {
	i := s.decks[client].next()
	k := s.keys[i]
	end := tr.begin("service.request")
	res, err := s.send(k)
	end()
	if err != nil {
		var busy *service.BusyError
		if errors.As(err, &busy) {
			return outcome{}, errRefused
		}
		return outcome{}, err
	}
	hit := s.log.take(res.Key)
	if s.corrupt && hit {
		res.Source += " "
	}
	if digest(res) != s.want[i] {
		return outcome{served: true, hit: hit}, checkFailed("%s: response differs from the first response to the same request", describe(k))
	}
	return outcome{served: true, hit: hit}, nil
}

// zipfDeck returns the key indices one client's deck holds: key k appears
// in proportion to its Zipf weight 1/(k+1)^s, at least once. Every deck has
// the same composition and the seed only orders it, so a run's mix does not
// drift with the seed the way independent draws would.
func zipfDeck(keys int) []int {
	weights := make([]float64, keys)
	sum := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -serveZipfS)
		sum += weights[k]
	}
	var cards []int
	for k, w := range weights {
		for c := max(1, int(math.Round(serveDeckSize*w/sum))); c > 0; c-- {
			cards = append(cards, k)
		}
	}
	return cards
}

// deck deals one client's requests: a fresh seeded shuffle of the cards
// for every pass. A deck is used by its client's goroutine only.
type deck struct {
	rng   *rand.Rand
	cards []int
	pos   int
}

func (d *deck) next() int {
	if d.pos == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	k := d.cards[d.pos]
	d.pos = (d.pos + 1) % len(d.cards)
	return k
}

// digest covers what a repeat of a request must reproduce byte for byte:
// the source, the predicted time, the profile and any verification verdict.
func digest(res *service.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%x\x00%s\x00", res.Key, res.Source, math.Float64bits(res.ElapsedUS), res.Profile)
	if res.Verify != nil {
		v, _ := json.Marshal(res.Verify.Verdict) // plain struct: cannot fail
		h.Write(v)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// admissionLog is benchd's job logger: it counts, per request key, the
// admissions served from the cache ("job done" with a cache tier) and the
// ones queued as cold fills ("job submitted"). A client that got a response
// for a key takes one admission of that key, which tells it whether it was
// a hit. Admission is logged before the response is written.
type admissionLog struct {
	mu           sync.Mutex
	hits, misses map[string]int
}

func (l *admissionLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *admissionLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *admissionLog) WithGroup(string) slog.Handler            { return l }

func (l *admissionLog) Handle(_ context.Context, r slog.Record) error {
	var key, cache string
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "key":
			key = a.Value.String()
		case "cache":
			cache = a.Value.String()
		}
		return true
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case r.Message == "job done" && cache != "miss":
		l.hits[key]++
	case r.Message == "job submitted":
		l.misses[key]++
	}
	return nil
}

// take consumes one admission of key and reports whether it was a hit.
func (l *admissionLog) take(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hits[key] > 0 {
		l.hits[key]--
		return true
	}
	l.misses[key]--
	return false
}
