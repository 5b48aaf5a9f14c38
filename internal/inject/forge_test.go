package inject

import (
	"reflect"
	"testing"

	"opec/internal/apps"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/trace"
)

// The forge's byte-identity contract on a single trial: forking the
// §6.1 rogue store from the checkpoint returns the same outcome as a
// power-on run, and the forge machine is reusable — the same trial
// forked again agrees with itself. The first fork captures the
// trigger's resume point and the later ones start there.
func TestForgeMatchesPowerOnTrial(t *testing.T) {
	app := apps.PinLockN(2)
	spec := Spec{Kind: RogueStore, Func: "Lock_Task", N: 1, Target: "KEY", Bit: -1, Value: 0xEE}
	pol := monitor.Policy{Kind: monitor.RestartOperation}

	want, err := RunOPEC(app, spec, pol, 0)
	if err != nil {
		t.Fatal(err)
	}
	forge, err := NewForge(app)
	if err != nil {
		t.Fatal(err)
	}
	if forge.SnapshotID() == "" {
		t.Fatal("forge has no snapshot id")
	}
	for i := 0; i < 3; i++ {
		got, err := forge.Run(spec, pol, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("fork %d: outcome %+v != power-on %+v", i, got, want)
		}
	}
	if rs := forge.ResumeStats(); rs.Captured != 1 || rs.Resumed != 2 || rs.PrefixCycles == 0 {
		t.Errorf("resume stats %+v, want 1 capture then 2 resumed trials skipping a prefix", rs)
	}
}

// Only plain Run trials resume. Traced and observed runs need the
// whole event stream, so they fork from boot and leave the tallies
// alone; a different policy or budget is a different prefix.
func TestForgeResumesOnlyUntracedRuns(t *testing.T) {
	app := apps.PinLockN(2)
	spec := Spec{Kind: BitFlip, Func: "Lock_Task", N: 1, Target: "KEY", Bit: 3}
	pol := monitor.Policy{Kind: monitor.RestartOperation}
	forge, err := NewForge(app)
	if err != nil {
		t.Fatal(err)
	}
	want, err := forge.TraceRun(spec, pol, 0, trace.NewBuffer(1<<12), false)
	if err != nil {
		t.Fatal(err)
	}
	if rs := forge.ResumeStats(); rs != (ResumeStats{}) {
		t.Fatalf("traced run touched the resume tallies: %+v", rs)
	}
	for i := 0; i < 2; i++ {
		got, err := forge.Run(spec, pol, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d: outcome %+v != traced %+v", i, got, want)
		}
	}
	if _, err := forge.Run(spec, monitor.Policy{}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := forge.Run(spec, pol, 1<<30); err != nil {
		t.Fatal(err)
	}
	if got, err := forge.TraceRun(spec, pol, 0, trace.NewBuffer(1<<12), false); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("traced run after resumed ones: %+v, %v; want %+v", got, err, want)
	}
	if rs := forge.ResumeStats(); rs.Captured != 3 || rs.Resumed != 1 {
		t.Errorf("resume stats %+v, want 3 captures (one per policy and budget) and 1 resumed trial", rs)
	}
}

// The certificate-lifecycle regression (restart-after-injection under
// OPEC_MACH_PARANOID semantics): the restore that starts every forge
// trial reinstates the boot-time certificate table, and the Arm hook
// clears it again before the trial runs. If that ordering were
// reversed, an in-trial restart would execute the corrupted operation
// with elision re-enabled, and paranoid mode would panic on the first
// elided access that disagrees with the full protection check — which
// the forge's recover would surface as a CrashedMonitor verdict.
//
// The rogue store is the known restart driver (contained by the MPU,
// operation restarted once); the planned bit-flip trials sweep the
// same lifecycle across corrupted-data runs.
func TestForgeRestartAfterInjectionParanoid(t *testing.T) {
	savedP, savedD := mach.ParanoidProofs, mach.DisableProofs
	defer func() { mach.ParanoidProofs, mach.DisableProofs = savedP, savedD }()
	mach.ParanoidProofs, mach.DisableProofs = true, false

	app := apps.PinLockN(2)
	forge, err := NewForge(app)
	if err != nil {
		t.Fatal(err)
	}
	pol := monitor.Policy{Kind: monitor.RestartOperation}

	out, err := forge.Run(Spec{Kind: RogueStore, Func: "Lock_Task", N: 1, Target: "KEY", Bit: -1, Value: 0xEE}, pol, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict == CrashedMonitor {
		t.Fatalf("paranoid restart trial crashed: %s", out.Err)
	}
	if out.Verdict != Recovered || out.Restarts != 1 {
		t.Fatalf("restart trial: verdict %v restarts %d (%s), want recovered after 1 restart",
			out.Verdict, out.Restarts, out.Err)
	}

	inst, b := compilePinLock(t, 2)
	restarted := false
	for _, sp := range Plan(b, inst.Devices, DefaultConfig(42)) {
		if sp.Kind != BitFlip {
			continue
		}
		out, err := forge.Run(sp, pol, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out.Verdict == CrashedMonitor {
			t.Errorf("%s: paranoid bit-flip trial crashed: %s", sp, out.Err)
		}
		restarted = restarted || out.Restarts > 0
	}
	if !restarted {
		t.Log("no planned bit flip tripped a restart at this seed; rogue-store leg covered the restart path")
	}
}

// TestForgeBitFlipAfterForkXlatParanoid runs the §6.1 rogue store and
// then every planned bit flip on one forge, each trial forked from the
// checkpoint, once with every certificate elision re-adjudicated
// (paranoid) and once with elision disabled. The rogue store's trial
// runs with the boot certificates installed; every later fork clears
// them, so an elision on a stale certificate would crash the paranoid
// forge, and any other divergence shows up in the outcome fields. The
// name dates from when this pinned a second execution engine's
// translation caches against the interpreter.
func TestForgeBitFlipAfterForkXlatParanoid(t *testing.T) {
	savedP, savedD := mach.ParanoidProofs, mach.DisableProofs
	defer func() { mach.ParanoidProofs, mach.DisableProofs = savedP, savedD }()

	app := apps.PinLockN(2)
	pol := monitor.Policy{Kind: monitor.RestartOperation}
	inst, b := compilePinLock(t, 2)
	specs := []Spec{
		{Kind: RogueStore, Func: "Lock_Task", N: 1, Target: "KEY", Bit: -1, Value: 0xEE},
	}
	for _, sp := range Plan(b, inst.Devices, DefaultConfig(42)) {
		if sp.Kind == BitFlip {
			specs = append(specs, sp)
		}
	}

	outcomes := func(paranoid, noProofs bool) []Outcome {
		t.Helper()
		mach.ParanoidProofs, mach.DisableProofs = paranoid, noProofs
		f, err := NewForge(app)
		if err != nil {
			t.Fatal(err)
		}
		outs := make([]Outcome, len(specs))
		for i, sp := range specs {
			if outs[i], err = f.Run(sp, pol, 0); err != nil {
				t.Fatalf("%s: %v", sp, err)
			}
		}
		return outs
	}
	paranoid := outcomes(true, false)
	checked := outcomes(false, true)
	for i, sp := range specs {
		po, co := paranoid[i], checked[i]
		if po.Verdict == CrashedMonitor && co.Verdict != CrashedMonitor {
			t.Errorf("%s: paranoid trial crashed where the checked one did not (stale certificate?): %s", sp, po.Err)
			continue
		}
		if !reflect.DeepEqual(po, co) {
			t.Errorf("%s: fork outcome diverges:\n  paranoid: %+v\n  checked:  %+v", sp, po, co)
		}
	}
}
