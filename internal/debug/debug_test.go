package debug

import (
	"strings"
	"testing"

	"opec/internal/apps"
	"opec/internal/exper"
	"opec/internal/inject"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/trace"
)

// keyOverwriteSpec is the paper's §6.1 case study: Lock_Task's first
// activation smuggles a rogue byte into KEY, the MPU denies it, and the
// restart policy recovers the operation.
const keyOverwriteSpec = "store:Lock_Task:1:KEY:0:-1:0xee"

// golden records the §6.1 KEY-overwrite run.
func golden(t *testing.T) *Session {
	t.Helper()
	spec, err := inject.ParseSpec(keyOverwriteSpec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		App:    apps.PinLockN(1),
		Spec:   &spec,
		Policy: monitor.Policy{Kind: monitor.RestartOperation},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBlameGoldenKeyOverwrite reproduces the §6.1 forensics: blame with
// no cycle walks the recovered fault back to the exact rogue store —
// operation, function, PC, value, verdict — and reports the recovery
// that followed.
func TestBlameGoldenKeyOverwrite(t *testing.T) {
	s := golden(t)
	out, err := s.Blame(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"in op Lock_Task", "MemManage write", "(KEY+0)",
		"rogue store:", "fn=Lock_Task", "pc=0x", "value=0xee", "DENIED MemManage",
		"then:", "restart attempt=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("blame output missing %q:\n%s", want, out)
		}
	}
	// The benign HAL boot faults (tolerated privileged-peripheral pokes)
	// must not be blamed by default.
	if strings.Contains(out, "BusFault") {
		t.Errorf("blame picked a boot BusFault over the recovered fault:\n%s", out)
	}
}

// TestSeekGoldenBothBackends is the acceptance sweep: seek to a sample
// of every region of the golden trace — first events, the fault, the
// recovery, the final event — restores from the nearest keyframe and
// proves the regenerated suffix byte-identical. The name dates from
// when the sweep also ran on a second execution engine; the interp
// subtest is the interpreter, the only engine.
func TestSeekGoldenBothBackends(t *testing.T) {
	t.Run("interp", func(t *testing.T) {
		s := golden(t)
		st := s.Store()
		targets := []int{0, 1, st.Len() / 4, st.Len() / 2, st.Len() - 1}
		if faults := st.ByKind(trace.EvFault); len(faults) > 0 {
			targets = append(targets, faults[len(faults)-1])
		}
		if recs := st.ByKind(trace.EvRecovery); len(recs) > 0 {
			targets = append(targets, recs[0])
		}
		for _, idx := range targets {
			c := st.Event(idx).Cycle
			out, err := s.Seek(c)
			if err != nil {
				t.Fatalf("seek %d (event %d): %v", c, idx, err)
			}
			if !strings.Contains(out, "byte-identical") {
				t.Fatalf("seek %d did not verify the suffix:\n%s", c, out)
			}
		}
	})
}

// TestSeekPastEndRejected pins the out-of-range diagnostic.
func TestSeekPastEndRejected(t *testing.T) {
	s := golden(t)
	if _, err := s.Seek(s.Store().LastCycle() + 1); err == nil {
		t.Fatal("seek past the end of the run succeeded")
	}
}

// TestWatchKeyGolden covers the data-watchpoint query: the KEY watch
// must show the legitimate monitor-path writes landing and the rogue
// store denied, each attributed to its operation.
func TestWatchKeyGolden(t *testing.T) {
	s := golden(t)
	addr, n, err := s.ResolveGlobal("KEY")
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Watch(addr, n, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"op=Key_Init", "op=Lock_Task", "DENIED MemManage", "value=0xee", "write attempts",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("watch output missing %q:\n%s", want, out)
		}
	}

	// Range restriction: a window before the injection sees no denial.
	early, err := s.Watch(addr, n, 0, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(early, "DENIED") {
		t.Errorf("watch [0,10000] saw the cycle-60807 denial:\n%s", early)
	}
}

// TestLastWriterGolden covers the backward slice: at a cycle after the
// fault, the last landed writer is the legitimate monitor write and the
// denied rogue attempt is reported alongside.
func TestLastWriterGolden(t *testing.T) {
	s := golden(t)
	addr, n, err := s.ResolveGlobal("KEY")
	if err != nil {
		t.Fatal(err)
	}
	fc, err := s.FaultCycle()
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.LastWriter(addr, n, fc+1000)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "landed") {
		t.Errorf("last-writer shows no landed write:\n%s", out)
	}
	if !strings.Contains(out, "later denied attempt") || !strings.Contains(out, "value=0xee") {
		t.Errorf("last-writer lost the denied rogue attempt:\n%s", out)
	}
}

// TestReplayCoordinateRoundTrip proves any finding is debuggable from
// its '<snapid>@<spec>' coordinate alone: a second session opened from
// the coordinate answers queries byte-identically, and a corrupted
// snapshot id is rejected.
func TestReplayCoordinateRoundTrip(t *testing.T) {
	s := golden(t)
	coord := s.Coordinate()
	id, spec, err := inject.ParseCoord(coord)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		App:        apps.PinLockN(1),
		Spec:       &spec,
		WantSnapID: id,
		Policy:     monitor.Policy{Kind: monitor.RestartOperation},
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Blame(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s2.Blame(0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("replayed session's blame differs:\n--- original\n%s--- replay\n%s", a, b)
	}

	cfg.WantSnapID = "0000000000000000"
	if _, err := New(cfg); err == nil {
		t.Fatal("session accepted a coordinate with the wrong snapshot id")
	}
}

// TestCleanSessionQueries exercises the no-spec path: a clean run has a
// snapshot but no replay coordinate, and with no recovery in the
// stream, blame falls back to the run's first (benign HAL) fault.
func TestCleanSessionQueries(t *testing.T) {
	s, err := New(Config{App: apps.PinLockN(1)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Coordinate() != "" {
		t.Errorf("clean run has coordinate %q", s.Coordinate())
	}
	if !strings.Contains(s.Info(), "clean run, snapshot ") {
		t.Errorf("info does not name the snapshot:\n%s", s.Info())
	}
	out, err := s.Blame(0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "BusFault") {
		t.Errorf("clean-run blame should land on the tolerated HAL BusFault:\n%s", out)
	}
}

// TestKeyframeEquivalenceAllWorkloads is the keyframe-restore
// equivalence sweep: on every workload, every held keyframe's state
// digest is reproduced at its exact stream position by a re-execution.
func TestKeyframeEquivalenceAllWorkloads(t *testing.T) {
	for _, app := range exper.AppsFor(exper.Quick) {
		t.Run(app.Name, func(t *testing.T) {
			s, err := New(Config{App: app})
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Keyframes().Frames()) == 0 {
				t.Fatal("no keyframes captured")
			}
			if err := s.VerifyKeyframes(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// goldenSlowPath records the golden run with every interpreter fast
// path off: no certificate elision, no lookup caches.
func goldenSlowPath(t *testing.T) *Session {
	t.Helper()
	p, c := mach.DisableProofs, mach.DisableCaches
	defer func() { mach.DisableProofs, mach.DisableCaches = p, c }()
	mach.DisableProofs, mach.DisableCaches = true, true
	return golden(t)
}

// TestKeyframeDigestsMatchAcrossBackends records the golden run with
// the interpreter's fast paths on and off and compares every keyframe:
// same cycles, same stream positions, same state digests — certificate
// elision and the lookup caches checkpoint identical architected
// states. The name dates from when the comparison was against a second
// execution engine.
func TestKeyframeDigestsMatchAcrossBackends(t *testing.T) {
	a := golden(t)
	b := goldenSlowPath(t)
	fa, fb := a.Keyframes().Frames(), b.Keyframes().Frames()
	if len(fa) == 0 {
		t.Fatal("golden run captured no keyframes")
	}
	if len(fa) != len(fb) {
		t.Fatalf("keyframe counts differ: fast=%d slow=%d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Cycle != fb[i].Cycle || fa[i].Event != fb[i].Event ||
			fa[i].State.Digest() != fb[i].State.Digest() {
			t.Errorf("keyframe %d differs: fast {cycle=%d event=%d %s} slow {cycle=%d event=%d %s}",
				i, fa[i].Cycle, fa[i].Event, fa[i].State.Digest(),
				fb[i].Cycle, fb[i].Event, fb[i].State.Digest())
		}
	}
}

// TestSnapshotIDStableAcrossBackends runs the golden trial to
// completion with the fast paths on and off and snapshots the final
// architected state: the content-addressed ids must agree, so replay
// coordinates do not depend on the fast-path switches. The name dates
// from when the comparison was against a second execution engine.
func TestSnapshotIDStableAcrossBackends(t *testing.T) {
	a := golden(t)
	b := goldenSlowPath(t)
	if a.SnapshotID() != b.SnapshotID() {
		t.Fatalf("boot snapshot ids differ: fast=%s slow=%s", a.SnapshotID(), b.SnapshotID())
	}
	sa, err := a.m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sa.ID() != sb.ID() {
		t.Errorf("post-run snapshot ids differ: fast=%s slow=%s", sa.ID(), sb.ID())
	}
}

// TestStoreRefusesStaleBuffer is the monotonicity assertion across
// Snapshot/Restore boundaries: re-executing from the boot checkpoint
// rewinds the clock, so recording two executions into ONE buffer
// produces cycle regressions — which the buffer counts and the indexed
// store refuses to ingest. Fresh-buffer recordings stay clean.
func TestStoreRefusesStaleBuffer(t *testing.T) {
	s := golden(t)
	if s.Store().regressions != 0 || s.store.buf.CycleRegressions() != 0 {
		t.Fatalf("clean recording counted %d regressions", s.store.buf.CycleRegressions())
	}

	buf := trace.NewBuffer(0)
	stale := NewStore(buf)
	if _, _, _, err := s.execute(buf, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.execute(buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.CycleRegressions() == 0 {
		t.Fatal("restore boundary crossed with no cycle regression counted")
	}
	if err := stale.Finish(); err == nil || !strings.Contains(err.Error(), "regress") {
		t.Fatalf("store accepted a non-monotonic recording: %v", err)
	}
}

// TestKeyframerEviction pins the memory bound: a tight Max forces
// decimation, which keeps the boot anchor, doubles the stride, and
// accounts every released frame.
func TestKeyframerEviction(t *testing.T) {
	spec, err := inject.ParseSpec(keyOverwriteSpec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		App:          apps.PinLockN(1),
		Spec:         &spec,
		Policy:       monitor.Policy{Kind: monitor.RestartOperation},
		MaxKeyframes: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	k := s.Keyframes()
	if len(k.Frames()) > 8 {
		t.Errorf("held %d keyframes, bound is 8", len(k.Frames()))
	}
	if k.evicted == 0 {
		t.Error("tight bound evicted nothing on a 1M-cycle run")
	}
	if k.Frames()[0].Reason != "boot" {
		t.Errorf("decimation lost the boot anchor: first frame is %q", k.Frames()[0].Reason)
	}
	if k.stride <= DefaultKeyframeEvery {
		t.Errorf("stride %d never doubled under eviction pressure", k.stride)
	}
	// The decimated set still answers seeks everywhere.
	if _, err := s.Seek(s.Store().LastCycle()); err != nil {
		t.Fatal(err)
	}
}

// TestDebugCounters pins the debug_* observability surface in the
// unified registry: query count and timing, re-executions, index sizes
// and checkpointer state all appear.
func TestDebugCounters(t *testing.T) {
	s := golden(t)
	if _, err := s.Blame(0); err != nil {
		t.Fatal(err)
	}
	reg := &trace.Registry{}
	reg.Register(s)
	got := map[string]uint64{}
	for _, c := range reg.Snapshot() {
		got[c.Name] = c.Value
	}
	for _, name := range []string{
		"debug.queries", "debug.query_ns", "debug.reexecs",
		"debug.store.events", "debug.store.dropped",
		"debug.store.kind_buckets", "debug.store.domain_buckets",
		"debug.keyframes.held", "debug.keyframes.evicted", "debug.keyframes.stride",
	} {
		if _, ok := got[name]; !ok {
			t.Errorf("counter %s missing from the registry snapshot", name)
		}
	}
	if got["debug.queries"] != 1 || got["debug.reexecs"] < 2 {
		t.Errorf("queries=%d reexecs=%d, want 1 query and >=2 executions",
			got["debug.queries"], got["debug.reexecs"])
	}
	if got["debug.store.events"] == 0 || got["debug.keyframes.held"] == 0 {
		t.Errorf("index-size counters empty: %v", got)
	}
}
