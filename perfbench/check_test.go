package main

import (
	"math"
	"strings"
	"testing"
)

// fakeState sets up a workload whose passes return fixed results.
func fakeState(t *testing.T, run func(c *iterCtx) *iterOut, refOut *string, refExact map[string]uint64) *state {
	t.Helper()
	w := &workload{name: "fake", workers: 1, run: run}
	cfg := &config{workload: "fake", seconds: 1e-9, outDir: t.TempDir()}
	return &state{cfg: cfg, w: w, refOut: refOut, refExact: refExact, refName: "fake"}
}

func okPass(c *iterCtx) *iterOut {
	o := newIterOut()
	o.ops = 4
	o.output = "table\nrow 1\n"
	o.exact["mach.cycles"] = 1234
	return o
}

func TestWrongReferenceCountsAFailure(t *testing.T) {
	wrong := "table\nrow 2\n"
	st := fakeState(t, okPass, &wrong, map[string]uint64{"mach.cycles": 1234})
	rep := report(st, measure(st))
	r := rep.result
	if r.Correct || r.Failed != 1 || r.Attempted != 4 {
		t.Fatalf("result %+v, want incorrect with 1 of 4 failed", r)
	}
	if !strings.Contains(rep.text, `line 2: want "row 2", got "row 1"`) {
		t.Fatalf("report does not locate the difference:\n%s", rep.text)
	}
}

func TestMatchingReferencePasses(t *testing.T) {
	ref := "table\nrow 1\n"
	st := fakeState(t, okPass, &ref, map[string]uint64{"mach.cycles": 1234})
	r := report(st, measure(st)).result
	if !r.Correct || r.Failed != 0 || r.Attempted != 4 {
		t.Fatalf("result %+v, want correct", r)
	}
	for _, m := range endToEnd {
		if _, ok := r.Metrics[m.Name]; !ok {
			t.Errorf("untraced result lacks %s", m.Name)
		}
	}
	if len(r.Metrics) != len(endToEnd) {
		t.Errorf("untraced result has %d metrics, want %d", len(r.Metrics), len(endToEnd))
	}
}

// Drifted exact counts are flagged, not failed.
func TestExactCountDriftIsFlagged(t *testing.T) {
	ref := "table\nrow 1\n"
	st := fakeState(t, okPass, &ref, map[string]uint64{"mach.cycles": 999})
	rep := report(st, measure(st))
	if !rep.result.Correct || !strings.Contains(rep.text, "DIFFERS (recorded 999)") {
		t.Fatalf("drift should be flagged only: %+v\n%s", rep.result, rep.text)
	}
}

func TestPanickingPassIsAFailureNotACrash(t *testing.T) {
	boom := func(c *iterCtx) *iterOut {
		var m map[string]int
		m["x"] = 1 // nil map write
		return nil
	}
	st := fakeState(t, boom, nil, nil)
	rep := report(st, measure(st))
	if r := rep.result; r.Correct || r.Failed != 1 || r.Attempted != 1 {
		t.Fatalf("result %+v, want 1 of 1 failed", r)
	}
	if !strings.Contains(rep.text, "panicked") {
		t.Fatalf("report does not name the panic:\n%s", rep.text)
	}
}

func TestSpanCallRecoversPanics(t *testing.T) {
	c := &iterCtx{rec: NewRecorder()}
	err := c.span("boom", "", func() error { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err %v", err)
	}
	if s := c.rec.Spans(); len(s) != 1 || s[0].Name != "boom" {
		t.Fatalf("panicking call's span not closed: %+v", s)
	}
}

func TestTracedResultCarriesEveryPerLayerMetric(t *testing.T) {
	ref := "table\nrow 1\n"
	st := fakeState(t, okPass, &ref, nil)
	st.cfg.trace = true
	m := measure(st)
	if len(m.iters) < 2 || m.iters[0].traced || !m.iters[1].traced {
		t.Fatalf("a traced run alternates traced and untraced passes: %+v", m.iters)
	}
	r := report(st, m).result
	if len(r.Metrics) != len(perLayer) {
		t.Fatalf("traced result has %d metrics, want %d", len(r.Metrics), len(perLayer))
	}
	for _, pl := range perLayer {
		if v, ok := r.Metrics[pl.Name]; !ok || v.Unit != pl.Unit {
			t.Errorf("traced result: %s = %+v", pl.Name, v)
		}
	}
}

func TestParseCountsRejectsMalformed(t *testing.T) {
	if _, err := parseCounts([]byte("a 1\nb two\n")); err == nil {
		t.Fatal("non-integer count parsed")
	}
	m, err := parseCounts([]byte(formatCounts(map[string]uint64{"x.y": 7, "a": 18446744073709551615})))
	if err != nil || m["x.y"] != 7 || m["a"] != 18446744073709551615 {
		t.Fatalf("round trip: %v %v", m, err)
	}
}

// Timings are scaled by the reference probe time over the run's median
// probe time.
func TestHostSpeedScaling(t *testing.T) {
	st := fakeState(t, okPass, nil, nil)
	it := func(probe float64) iteration {
		return iteration{wall: 2, probe: probe, out: okPass(nil)}
	}
	// Median probe 2×reference: the host ran at half speed.
	m := &measured{iters: []iteration{it(2 * probeRefSeconds), it(2 * probeRefSeconds), it(probeRefSeconds)}}
	got := report(st, m).result.Metrics
	if v := got["scaled_wall_s"].Value; math.Abs(v-1) > 1e-9 {
		t.Errorf("scaled_wall_s = %v, want 1 (2 s at half speed)", v)
	}
	if v := got["scaled_ops_per_s"].Value; math.Abs(v-4) > 1e-9 {
		t.Errorf("scaled_ops_per_s = %v, want 4 (4 ops in 1 scaled s)", v)
	}
}

func TestHostProbeMeasures(t *testing.T) {
	if p := newHostProbe(2).measure(); !(p > 0) {
		t.Fatalf("probe chunk time %v, want > 0", p)
	}
}
