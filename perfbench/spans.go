package main

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans stay in
// memory while the benchmark runs and are written out when it ends.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Run    int    `json:"run"`    // iteration of the workload's job list
	Name   string `json:"name"`
	Arg    string `json:"arg,omitempty"` // the call's subject, e.g. the application
	Start  int64  `json:"start_ns"`      // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder collects spans from any number of goroutines. A nil
// *Recorder records nothing, so the untraced run makes exactly the same
// calls with spans off.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Begin(run, parent int, name, arg string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Run: run, Name: name, Arg: arg, Start: now, End: -1})
	return len(r.spans)
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Do runs fn inside a span named name.
func (r *Recorder) Do(run, parent int, name, arg string, fn func(id int) error) error {
	id := r.Begin(run, parent, name, arg)
	defer r.End(id)
	return fn(id)
}

// Spans returns a copy of every closed span, in opening order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// JSON encodes the closed spans.
func (r *Recorder) JSON() ([]byte, error) { return json.MarshalIndent(r.Spans(), "", " ") }

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Children may overlap (two
// workers run jobs under one parent at once), so the covered part is
// the length of the union of the children's intervals, clipped to the
// parent.
func SelfTimes(spans []Span) map[int]int64 {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered returns the length of the union of the intervals of cs,
// clipped to [lo, hi].
func covered(lo, hi int64, cs []Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range cs {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// SpanTotals sums, per span name, the total and self time in seconds.
type SpanTotals struct {
	Count       int
	Total, Self float64
}

// Totals folds spans by name.
func Totals(spans []Span) map[string]*SpanTotals {
	self := SelfTimes(spans)
	out := map[string]*SpanTotals{}
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &SpanTotals{}
			out[s.Name] = t
		}
		t.Count++
		t.Total += float64(s.Dur()) / 1e9
		t.Self += float64(self[s.ID]) / 1e9
	}
	return out
}
