package main

import (
	"math"
	"testing"
)

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 70},
		{ID: 4, Parent: 3, Name: "b.inner", Start: 45, End: 55},
	}
	self := SelfTimes(spans)
	want := map[int]int64{1: 100 - 20 - 30, 2: 20, 3: 30 - 10, 4: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

// Two workers run jobs under one parent at once: the parent's covered
// time is the union of the children's intervals, not their sum.
func TestSelfTimeOverlappingChildrenOnTwoWorkers(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// worker 1: [5,40) then [40,60)
		{ID: 2, Parent: 1, Name: "job", Start: 5, End: 40},
		{ID: 3, Parent: 1, Name: "job", Start: 40, End: 60},
		// worker 2: [10,50), then idle, then [70,90)
		{ID: 4, Parent: 1, Name: "job", Start: 10, End: 50},
		{ID: 5, Parent: 1, Name: "job", Start: 70, End: 90},
	}
	// Union: [5,60) + [70,90) = 55 + 20 = 75.
	if got := SelfTimes(spans)[1]; got != 25 {
		t.Fatalf("root self %d, want 25", got)
	}
	tot := Totals(spans)
	if j := tot["job"]; j.Count != 4 || math.Abs(j.Total-115e-9) > 1e-15 {
		t.Fatalf("job totals %+v", j)
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 10, End: 20},
		{ID: 2, Parent: 1, Name: "late", Start: 15, End: 30},
		{ID: 3, Parent: 1, Name: "early", Start: 0, End: 12},
	}
	if got := SelfTimes(spans)[1]; got != 3 {
		t.Fatalf("root self %d, want 3 (covered [10,12) and [15,20))", got)
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *Recorder
	called := false
	if err := r.Do(0, 0, "x", "", func(id int) error { called = id == 0; return nil }); err != nil || !called {
		t.Fatalf("nil recorder: err %v, called %v", err, called)
	}
	if r.Spans() != nil {
		t.Fatal("nil recorder returned spans")
	}
}

func TestRecorderParentsAndRuns(t *testing.T) {
	r := NewRecorder()
	root := r.Begin(3, 0, "root", "")
	_ = r.Do(3, root, "child", "PinLock", func(int) error { return nil })
	open := r.Begin(3, root, "unclosed", "")
	_ = open
	r.End(root)
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("closed spans %d, want 2 (unclosed spans are not reported)", len(spans))
	}
	if c := spans[1]; c.Parent != root || c.Run != 3 || c.Arg != "PinLock" || c.End < c.Start {
		t.Fatalf("child span %+v", c)
	}
}

// The closed-loop pool runs every job exactly once across its workers,
// records each job as a child span of the pass, and turns a panicking
// job into that job's error.
func TestRunPoolClosedLoop(t *testing.T) {
	c := &iterCtx{rec: NewRecorder(), run: 1}
	c.root = c.rec.Begin(1, 0, "pass", "")
	const n = 64
	hits := make([]int, n)
	var jobs []job
	for i := 0; i < n; i++ {
		jobs = append(jobs, job{span: "job", fn: func() error {
			hits[i]++
			if i == 7 {
				panic("job 7")
			}
			return nil
		}})
	}
	errs := runPool(c, 2, jobs)
	c.rec.End(c.root)
	for i := range jobs {
		if hits[i] != 1 {
			t.Errorf("job %d ran %d times", i, hits[i])
		}
		if (errs[i] != nil) != (i == 7) {
			t.Errorf("job %d: err %v", i, errs[i])
		}
	}
	spans := c.rec.Spans()
	if len(spans) != n+1 {
		t.Fatalf("%d spans, want %d", len(spans), n+1)
	}
	for _, s := range spans[1:] {
		if s.Parent != c.root || s.Run != 1 {
			t.Fatalf("job span %+v not a child of the pass", s)
		}
	}
}
