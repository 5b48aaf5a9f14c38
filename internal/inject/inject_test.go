package inject

import (
	"errors"
	"reflect"
	"testing"

	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/run"
)

// ParseCoord accepts '<snapshot-id>@<spec>', splitting at the first
// '@', and rejects a missing '@', an empty id or an empty spec with the
// -replay usage text.
func TestParseCoord(t *testing.T) {
	id, spec, err := ParseCoord("26a2a02199ee8ebb@store:Lock_Task:1:KEY:0:-1:0xee")
	want := Spec{Kind: RogueStore, Func: "Lock_Task", N: 1, Target: "KEY", Bit: -1, Value: 0xEE}
	if err != nil || id != "26a2a02199ee8ebb" || !reflect.DeepEqual(spec, want) {
		t.Errorf("ParseCoord = (%q, %#v, %v), want (26a2a02199ee8ebb, %#v, nil)", id, spec, err, want)
	}
	for _, bad := range []string{"", "@", "26a2a02199ee8ebb", "26a2a02199ee8ebb@", "@store:Lock_Task:1:KEY:0:-1:0xee"} {
		_, _, err := ParseCoord(bad)
		if wantErr := "-replay wants '<snapshot-id>@<spec>', got \"" + bad + "\""; err == nil || err.Error() != wantErr {
			t.Errorf("ParseCoord(%q) error = %v, want %s", bad, err, wantErr)
		}
	}
	if _, _, err := ParseCoord("id@nope:f:1:g:0:0:0"); err == nil {
		t.Error("ParseCoord accepted an unknown spec kind")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []Spec{
		{Kind: RogueStore, Func: "Lock_Task", N: 1, Target: "KEY", Bit: -1, Value: 0xEE},
		{Kind: BitFlip, Func: "Unlock_Task", N: 2, Target: "PinRxBuffer", Off: 3, Bit: 5},
		{Kind: BadGate, Func: "main", N: 1, Target: "hash_buf", Bit: -1, Args: []uint32{0xFFFFFFFF, 4}},
		{Kind: StackExhaust, Func: "Lock_Task", N: 1, Bit: -1},
		{Kind: PeriphCorrupt, Func: "main", N: 1, Target: "USART2", Off: 0x1C, Bit: -1, Value: 0xDEADBEEF},
	}
	for _, s := range specs {
		got, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("parse %q: %v", s.String(), err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("round trip %q: got %+v, want %+v", s.String(), got, s)
		}
	}
	if _, err := ParseSpec("bogus:main:1:x:0:0:0"); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ParseSpec("store:main"); err == nil {
		t.Error("truncated spec accepted")
	}
	for _, bad := range []string{
		"flip:Lock_Task:1:KEY:0:8:0x0",
		"flip:Lock_Task:1:KEY:0:-1:0x0",
		"flip:Lock_Task:1:KEY:0:31:0x0",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("bit flip outside the byte accepted: %q", bad)
		}
	}
	for bit := 0; bit < 8; bit++ {
		s := Spec{Kind: BitFlip, Func: "Lock_Task", N: 1, Target: "KEY", Bit: bit}
		if _, err := ParseSpec(s.String()); err != nil {
			t.Errorf("bit %d rejected: %v", bit, err)
		}
	}
}

func compilePinLock(t *testing.T, rounds int) (*apps.Instance, *core.Build) {
	t.Helper()
	inst := apps.PinLockN(rounds).New()
	b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst, b
}

func TestPlanIsDeterministic(t *testing.T) {
	inst1, b1 := compilePinLock(t, 2)
	inst2, b2 := compilePinLock(t, 2)
	cfg := DefaultConfig(42)
	p1 := Plan(b1, inst1.Devices, cfg)
	p2 := Plan(b2, inst2.Devices, cfg)
	if len(p1) == 0 {
		t.Fatal("empty plan")
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Error("same seed produced different plans")
	}
	// Every generated spec must survive the replay codec.
	for _, s := range p1 {
		got, err := ParseSpec(s.String())
		if err != nil || !reflect.DeepEqual(got, s) {
			t.Errorf("plan spec %q does not round-trip (%v)", s.String(), err)
		}
	}
	// The catalogue must include the §6.1 shape: a rogue store from
	// some operation and at least one gate trial.
	kinds := map[Kind]bool{}
	for _, s := range p1 {
		kinds[s.Kind] = true
	}
	for _, k := range []Kind{RogueStore, BitFlip, BadGate, StackExhaust, PeriphCorrupt} {
		if !kinds[k] {
			t.Errorf("plan missing %v trials", k)
		}
	}
}

// The §6.1 case study under RestartOperation: the rogue store from the
// compromised Lock_Task is contained by the MPU, the operation is
// restarted once, and the PinLock session completes with its
// correctness check passing.
func TestCaseStudyRestartCompletesSession(t *testing.T) {
	spec := Spec{Kind: RogueStore, Func: "Lock_Task", N: 1, Target: "KEY", Bit: -1, Value: 0xEE}
	out, err := RunOPEC(apps.PinLockN(2), spec, monitor.Policy{Kind: monitor.RestartOperation}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict != Recovered {
		t.Fatalf("verdict = %v (%s), want recovered", out.Verdict, out.Err)
	}
	if out.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", out.Restarts)
	}
}

// The same attack under Abort (the paper's behaviour) is contained by
// the MPU and kills the run.
func TestCaseStudyAbortContainsByMPU(t *testing.T) {
	spec := Spec{Kind: RogueStore, Func: "Lock_Task", N: 1, Target: "KEY", Bit: -1, Value: 0xEE}
	out, err := RunOPEC(apps.PinLockN(1), spec, monitor.Policy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict != ContainedMPU {
		t.Fatalf("verdict = %v (%s), want contained-mpu", out.Verdict, out.Err)
	}
	if out.Restarts != 0 || out.Quarantines != 0 {
		t.Errorf("recovery activity under abort: %+v", out)
	}
}

// The §6.1 case study under Quarantine: the compromised Unlock_Task is
// disabled (so the session can never finish unlocking), but Lock_Task
// keeps running and keeps locking — partial service, not a dead device.
func TestCaseStudyQuarantineKeepsLockTaskRunning(t *testing.T) {
	inst, b := compilePinLock(t, 2)
	inst.MaxCycles = 8_000_000
	spec := Spec{Kind: RogueStore, Func: "Unlock_Task", N: 1, Target: "lock_count", Bit: -1, Value: 0xEE}
	fire, _, err := buildFire(spec, inst, b.Board, nil)
	if err != nil {
		t.Fatal(err)
	}
	trigger := inst.Mod.MustFunc(spec.Func)
	res, runErr := run.OPECWith(inst, b, run.Options{
		Policy: monitor.Policy{Kind: monitor.Quarantine},
		Arm: func(m *mach.Machine) {
			m.Arm(&mach.Injection{Func: trigger, N: spec.N, Fire: fire})
		},
	})
	// Without unlocks the main loop can never satisfy its exit
	// condition; the run ends at the cycle budget by construction.
	if !errors.Is(runErr, mach.ErrCycleLimit) {
		t.Fatalf("run = %v, want cycle limit", runErr)
	}
	if res.Mon.Stats.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1", res.Mon.Stats.Quarantines)
	}
	if got := res.Read("lock_count", 0, 4); got < 2 {
		t.Errorf("lock_count = %d, want >= 2 (Lock_Task must keep running)", got)
	}
	if got := res.Read("unlock_count", 0, 4); got != 0 {
		t.Errorf("unlock_count = %d, want 0 (Unlock_Task is disabled)", got)
	}
}

// Recovery on a second workload (acceptance: policies keep non-faulting
// operations running in at least two workloads): the first planned
// rogue store against Animation recovers under RestartOperation.
func TestAnimationRestartRecovers(t *testing.T) {
	app := apps.AnimationN(2)
	inst := app.New()
	b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	var spec Spec
	found := false
	for _, s := range Plan(b, inst.Devices, DefaultConfig(1)) {
		if s.Kind == RogueStore && s.Func != "main" {
			spec, found = s, true
			break
		}
	}
	if !found {
		t.Skip("no non-main rogue-store trial planned for Animation")
	}
	out, err := RunOPEC(app, spec, monitor.Policy{Kind: monitor.RestartOperation}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict != Recovered {
		t.Fatalf("%s verdict = %v (%s), want recovered", spec, out.Verdict, out.Err)
	}
	if out.Restarts == 0 {
		t.Error("no restart recorded")
	}
}

// Quarantine on a second workload: with Animation's Frame_Task (the
// picture-index advance) quarantined at its first entry, the remaining
// operations still open, load and draw frames, and the session runs to
// completion — a stuck animation, not a dead panel.
func TestAnimationQuarantineCompletesDegraded(t *testing.T) {
	inst := apps.AnimationN(2).New()
	b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: RogueStore, Func: "Frame_Task", N: 1, Target: "pics_shown", Bit: -1, Value: 0xEE}
	fire, _, err := buildFire(spec, inst, b.Board, nil)
	if err != nil {
		t.Fatal(err)
	}
	trigger := inst.Mod.MustFunc(spec.Func)
	res, runErr := run.OPECWith(inst, b, run.Options{
		Policy: monitor.Policy{Kind: monitor.Quarantine},
		Arm: func(m *mach.Machine) {
			m.Arm(&mach.Injection{Func: trigger, N: spec.N, Fire: fire})
		},
	})
	if runErr != nil {
		t.Fatalf("degraded session did not complete: %v", runErr)
	}
	if res.Mon.Stats.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1", res.Mon.Stats.Quarantines)
	}
	if got := res.Read("pics_shown", 0, 4); got != 2 {
		t.Errorf("pics_shown = %d, want 2 (draw pipeline must keep running)", got)
	}
	if got := res.Read("pic_index", 0, 4); got != 0 {
		t.Errorf("pic_index = %d, want 0 (quarantined Frame_Task must not run)", got)
	}
}

// Escape asymmetry on a single §6.1 trial: OPEC contains the rogue
// store, the merged-region ACES configuration lets it land.
func TestRogueStoreEscapesACESMergedRegions(t *testing.T) {
	spec := Spec{Kind: RogueStore, Func: "Lock_Task", N: 1, Target: "KEY", Bit: -1, Value: 0xEE}
	outO, err := RunOPEC(apps.PinLockN(1), spec, monitor.Policy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if outO.Verdict != ContainedMPU {
		t.Fatalf("OPEC verdict = %v (%s), want contained-mpu", outO.Verdict, outO.Err)
	}
	outA, err := RunACES(apps.PinLockN(1), spec, 2, 0) // FilenameNoOpt
	if err != nil {
		t.Fatal(err)
	}
	if outA.Verdict != Escaped {
		t.Fatalf("ACES-2 verdict = %v (%s), want escaped", outA.Verdict, outA.Err)
	}
}
