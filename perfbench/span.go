package main

import "time"

// span is one timed call into a layer: its name, its start and end as
// offsets from the tracer's epoch, and the index of the span that was open
// when it began (-1 for a request's root).
type span struct {
	Name    string        `json:"name"`
	Parent  int           `json:"parent"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	Request int           `json:"request"`
}

// tracer records the spans of one client's requests in memory. A nil
// *tracer is the untraced run: begin returns a no-op and records nothing, so
// both runs execute the same calls in the same order. A tracer is used by
// one goroutine at a time.
type tracer struct {
	epoch   time.Time
	spans   []span
	stack   []int
	request int
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func noop() {}

// begin opens a span named after the layer call it wraps and returns the
// function that closes it. Spans nest by call order.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return noop
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.epoch), Request: t.request})
	t.stack = append(t.stack, idx)
	return func() {
		t.spans[idx].End = time.Since(t.epoch)
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// layerTimes returns, for the spans of one request, each name's total time
// (summed durations) and self time (durations minus the part covered by
// child spans). The root span's self time is the request's unattributed
// time.
func layerTimes(spans []span) (total, self map[string]time.Duration) {
	total = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	for _, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return total, self
}
