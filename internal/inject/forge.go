package inject

import (
	"errors"
	"fmt"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/run"
	"opec/internal/trace"
)

// Forge is the boot-once/fork-many trial engine. A Forge compiles and
// boots one (app, scheme) pair, checkpoints the machine at the
// pre-injection point, and then runs every trial by restoring the
// checkpoint instead of rebuilding from power-on — the expensive
// per-trial work (app construction, compilation, static proof search,
// boot-time memory initialization) is paid once per campaign row.
//
// Correctness contract: Forge.Run(spec, pol, maxCycles) returns an
// Outcome byte-identical to RunOPEC(app, spec, pol, maxCycles) —
// verdict, error text, cycle count and recovery counters — because
// the checkpoint is taken at exactly the point the power-on path would
// arm the injection, and restore rewinds clock, stats and monitor
// bookkeeping to their boot values. cmd/opec-bench's differential mode
// asserts this over whole campaigns.
//
// The snapshot ID plus a spec string is a complete replay coordinate:
// `opec-run -replay '<id>@<spec>'` rebuilds the forge (compilation is
// deterministic), verifies the ID matches, and re-runs the single
// trial.
//
// Run also skips the clean prefix trials share. Trials with the same
// trigger (function, entry count), policy and budget run identically
// until the trigger fires, so the first such trial captures a resume
// point inside its Fire hook, before perturbing anything, and every
// later one forks from there (run.ResumePoint) — with the same
// byte-identity contract. The replay coordinate stays the boot
// checkpoint's ID. TraceRun and ObservedRun always fork from boot:
// their consumers need the whole event stream.
type Forge struct {
	App *apps.App

	inst *apps.Instance
	opec *run.OPECContext // exactly one of opec/acesCtx is set
	aces *run.ACESContext

	points map[resumeKey]resumeSlot
	resume ResumeStats
}

// resumeKey identifies the clean prefix a trial shares with others.
type resumeKey struct {
	fn     string
	n      int
	pol    monitor.Policy
	budget uint64
}

// resumeSlot is one prefix's resume point, or why none was captured.
type resumeSlot struct {
	point *run.ResumePoint
	err   error
}

// ResumeStats counts a forge's use of resume points. Every Run trial
// is either resumed, the one that captured its prefix's point, or
// declined for one reason.
type ResumeStats struct {
	Resumed      uint64 // trials forked from their trigger's resume point
	PrefixCycles uint64 // clean-prefix cycles the resumed trials skipped
	Captured     uint64 // resume points taken
	// Declines by reason: the trigger fired inside an IRQ handler, the
	// trigger never fired, or the machine refused the checkpoint.
	DeclinedIRQ         uint64
	DeclinedUntriggered uint64
	DeclinedRefused     uint64
}

// Add accumulates o into s.
func (s *ResumeStats) Add(o ResumeStats) {
	s.Resumed += o.Resumed
	s.PrefixCycles += o.PrefixCycles
	s.Captured += o.Captured
	s.DeclinedIRQ += o.DeclinedIRQ
	s.DeclinedUntriggered += o.DeclinedUntriggered
	s.DeclinedRefused += o.DeclinedRefused
}

// decline counts one trial that could not resume because capture
// failed with err.
func (s *ResumeStats) decline(err error) {
	if errors.Is(err, mach.ErrCheckpointInIRQ) {
		s.DeclinedIRQ++
	} else {
		s.DeclinedRefused++
	}
}

// ResumeStats returns the forge's resume tallies so far.
func (f *Forge) ResumeStats() ResumeStats { return f.resume }

// NewForge compiles and boots app under OPEC and checkpoints it.
func NewForge(app *apps.App) (*Forge, error) {
	inst := app.New()
	b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
	if err != nil {
		return nil, fmt.Errorf("inject: compile %s: %w", app.Name, err)
	}
	ctx, err := run.BootOPEC(inst, b)
	if err != nil {
		return nil, fmt.Errorf("inject: boot %s: %w", app.Name, err)
	}
	return &Forge{App: app, inst: inst, opec: ctx}, nil
}

// NewACESForge compiles and boots app under the ACES baseline with the
// given strategy and checkpoints it.
func NewACESForge(app *apps.App, strat aces.Strategy) (*Forge, error) {
	inst := app.New()
	b, err := aces.Compile(inst.Mod, inst.Board, strat)
	if err != nil {
		return nil, fmt.Errorf("inject: compile %s under %v: %w", app.Name, strat, err)
	}
	ctx, err := run.BootACES(inst, b)
	if err != nil {
		return nil, fmt.Errorf("inject: boot %s: %w", app.Name, err)
	}
	return &Forge{App: app, inst: inst, aces: ctx}, nil
}

// SnapshotID identifies the checkpoint all trials fork from.
func (f *Forge) SnapshotID() string {
	if f.opec != nil {
		return f.opec.SnapshotID()
	}
	return f.aces.SnapshotID()
}

// Reset rewinds to the checkpoint without running a trial — the
// fork-latency benchmark times this in isolation.
func (f *Forge) Reset() error {
	if f.opec != nil {
		return f.opec.Reset()
	}
	return f.aces.Reset()
}

// Build returns the compiled OPEC build, nil for an ACES forge.
func (f *Forge) Build() *core.Build {
	if f.opec != nil {
		return f.opec.B
	}
	return nil
}

// Instance returns the booted workload instance. Trials fork from a
// checkpoint, so its device and memory state is the boot-time state —
// the fuzzing engine reads its seed corpus (the scripted frame queue)
// from here.
func (f *Forge) Instance() *apps.Instance { return f.inst }

// Run executes one trial from the checkpoint. A maxCycles of 0 keeps
// the instance's own budget.
func (f *Forge) Run(spec Spec, pol monitor.Policy, maxCycles uint64) (Outcome, error) {
	if f.opec != nil {
		return f.runOPEC(spec, pol, maxCycles, nil, false, nil)
	}
	return f.runACES(spec, maxCycles)
}

// TraceRun is Run with an event trace attached to the forked trial
// (the forked analogue of TraceOPEC). With cov set, the machine also
// emits per-block coverage events into the trace — the fuzzing
// engine's feedback channel. OPEC forges only.
func (f *Forge) TraceRun(spec Spec, pol monitor.Policy, maxCycles uint64, buf *trace.Buffer, cov bool) (Outcome, error) {
	if f.opec == nil {
		return Outcome{}, fmt.Errorf("inject: TraceRun on an ACES forge")
	}
	return f.runOPEC(spec, pol, maxCycles, buf, cov, nil)
}

// ObservedRun is TraceRun with a machine observer: after the standard
// trial arming (restore, proofs cleared, injection armed) and before
// the run, observe receives the forked machine. The time-travel
// debugger binds its keyframe checkpointer and data watchpoints here —
// observation points that must attach after the restore that would
// otherwise clear them. The observer must not perturb architected
// state; trials stay byte-identical with and without one. OPEC forges
// only.
func (f *Forge) ObservedRun(spec Spec, pol monitor.Policy, maxCycles uint64, buf *trace.Buffer, cov bool, observe func(*mach.Machine)) (Outcome, error) {
	if f.opec == nil {
		return Outcome{}, fmt.Errorf("inject: ObservedRun on an ACES forge")
	}
	return f.runOPEC(spec, pol, maxCycles, buf, cov, observe)
}

func (f *Forge) runOPEC(spec Spec, pol monitor.Policy, maxCycles uint64, buf *trace.Buffer, cov bool, observe func(*mach.Machine)) (out Outcome, err error) {
	out.Spec = spec
	b := f.opec.B
	fire, state, err := buildFire(spec, f.inst, b.Board, nil)
	if err != nil {
		return out, err
	}
	trigger := f.inst.Mod.Func(spec.Func)
	if trigger == nil {
		return out, fmt.Errorf("inject: %s: no trigger function %q", f.App.Name, spec.Func)
	}

	defer func() {
		if r := recover(); r != nil {
			out.Verdict = CrashedMonitor
			out.Err = fmt.Sprintf("panic: %v", r)
			err = nil
		}
	}()
	key := resumeKey{fn: spec.Func, n: spec.N, pol: pol, budget: maxCycles}
	res, runErr := f.fork(key, buf == nil && observe == nil, fire, func(fire func(*mach.Machine) error) run.Options {
		return run.Options{
			Policy:    pol,
			MaxCycles: maxCycles,
			Trace:     buf,
			Arm: func(m *mach.Machine) {
				// Same arming as the power-on path (TraceOPEC): campaigns run
				// fully adjudicated. The restore that preceded this call
				// reinstated the boot-time certificate table; clearing it here,
				// after restore, is what keeps a later in-trial restart from
				// resurrecting elision for the corrupted run.
				m.InstallProofs(nil)
				// The assignment (not a conditional set) matters: CovEvents is
				// host-side machine state the snapshot doesn't rewind, so a
				// coverage-traced trial must not leak the flag into the next
				// plain trial on the same forge.
				m.CovEvents = cov
				m.Arm(&mach.Injection{Func: trigger, N: spec.N, Fire: fire})
				if observe != nil {
					observe(m)
				}
			},
		}
	})
	var checkErr error
	if runErr == nil {
		checkErr = run.AndCheck(f.inst, res)
	}
	if res != nil {
		out.Cycles = res.Cycles
		if res.Mon != nil {
			out.Restarts = res.Mon.Stats.Restarts
			out.Quarantines = res.Mon.Stats.Quarantines
			out.RestartCycles = res.Mon.Stats.RestartCycles
			out.RejectNonEntry = res.Mon.Stats.GateRejectNonEntry
			out.RejectQuarantined = res.Mon.Stats.GateRejectQuarantined
		}
	}
	out.Verdict, out.Err = classify(state, out.Restarts+out.Quarantines, runErr, checkErr)
	return out, nil
}

func (f *Forge) runACES(spec Spec, maxCycles uint64) (out Outcome, err error) {
	out.Spec = spec
	if spec.Kind == BadGate {
		// ACES has no supervisor-call gate to attack (matches RunACES).
		return out, nil
	}
	b := f.aces.B
	fire, state, err := buildFire(spec, f.inst, b.Board, b)
	if err != nil {
		return out, err
	}
	trigger := f.inst.Mod.Func(spec.Func)
	if trigger == nil {
		return out, fmt.Errorf("inject: %s: no trigger function %q", f.App.Name, spec.Func)
	}

	defer func() {
		if r := recover(); r != nil {
			out.Verdict = CrashedMonitor
			out.Err = fmt.Sprintf("panic: %v", r)
			err = nil
		}
	}()
	key := resumeKey{fn: spec.Func, n: spec.N, budget: maxCycles}
	res, runErr := f.fork(key, true, fire, func(fire func(*mach.Machine) error) run.Options {
		return run.Options{
			MaxCycles: maxCycles,
			Arm: func(m *mach.Machine) {
				m.Arm(&mach.Injection{Func: trigger, N: spec.N, Fire: fire})
			},
		}
	})
	var checkErr error
	if runErr == nil {
		checkErr = run.AndCheck(f.inst, res)
	}
	if res != nil {
		out.Cycles = res.Cycles
	}
	out.Verdict, out.Err = classify(state, 0, runErr, checkErr)
	return out, nil
}

// forker is the booted context a forge forks trials from.
type forker interface {
	Fork(run.Options) (*run.Result, error)
	ForkFrom(*run.ResumePoint, run.Options) (*run.Result, error)
	Capture() (*run.ResumePoint, error)
}

// fork runs one trial whose injection hook is fire; opts builds the
// trial's options around the hook to arm. A resumable trial forks from
// its prefix's resume point when one exists; the first trial of a
// prefix captures it, wrapping fire so the capture precedes the
// perturbation.
func (f *Forge) fork(key resumeKey, resumable bool, fire func(*mach.Machine) error, opts func(func(*mach.Machine) error) run.Options) (*run.Result, error) {
	var ctx forker = f.aces
	if f.opec != nil {
		ctx = f.opec
	}
	if !resumable {
		return ctx.Fork(opts(fire))
	}
	slot, known := f.points[key]
	switch {
	case slot.point != nil:
		f.resume.Resumed++
		f.resume.PrefixCycles += slot.point.PrefixCycles()
		return ctx.ForkFrom(slot.point, opts(fire))
	case known:
		f.resume.decline(slot.err)
		return ctx.Fork(opts(fire))
	}
	fired := false
	res, err := ctx.Fork(opts(func(m *mach.Machine) error {
		fired = true
		p, err := ctx.Capture()
		if err != nil {
			f.resume.decline(err)
		} else {
			f.resume.Captured++
		}
		if f.points == nil {
			f.points = make(map[resumeKey]resumeSlot)
		}
		f.points[key] = resumeSlot{point: p, err: err}
		return fire(m)
	}))
	if !fired {
		f.resume.DeclinedUntriggered++
	}
	return res, err
}
