package run

import (
	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/mach"
	"opec/internal/monitor"
)

// This file implements boot-once/fork-many execution: an OPECContext
// (or ACESContext) boots an instance exactly the way OPECWith does,
// checkpoints machine and runtime state at the point OPECWith would
// arm an injection, and then serves any number of Fork runs, each of
// which restores the checkpoint instead of re-compiling and re-booting
// from power-on. The correctness contract is byte-identity: a Fork
// with given Options returns the same Result fields, the same error
// text and the same absolute cycle count as a fresh OPECWith call with
// those Options, because the clock, stats and monitor bookkeeping all
// rewind to their boot values.

// OPECContext is a booted, checkpointed OPEC instance.
type OPECContext struct {
	Inst *apps.Instance
	B    *core.Build
	Mon  *monitor.Monitor

	snap    *mach.Snapshot
	monSnap *monitor.Snapshot
}

// BootOPEC boots the compiled build once and checkpoints it at the
// pre-run point.
func BootOPEC(inst *apps.Instance, b *core.Build) (*OPECContext, error) {
	bus, err := newBus(inst)
	if err != nil {
		return nil, err
	}
	mon, err := monitor.Boot(b, bus)
	if err != nil {
		return nil, err
	}
	snap, err := mon.M.Snapshot()
	if err != nil {
		return nil, err
	}
	return &OPECContext{Inst: inst, B: b, Mon: mon, snap: snap, monSnap: mon.Snapshot()}, nil
}

// SnapshotID identifies the checkpoint's machine state; together with
// an injection spec it is a complete replay coordinate.
func (c *OPECContext) SnapshotID() string { return c.snap.ID() }

// Reset rewinds machine and monitor to the checkpoint without running
// anything (the fork-latency benchmark times exactly this).
func (c *OPECContext) Reset() error {
	if err := c.Mon.M.Restore(c.snap); err != nil {
		return err
	}
	c.Mon.Restore(c.monSnap)
	return nil
}

// Fork restores the checkpoint and runs it under opts, mirroring
// OPECWith's post-boot sequence exactly.
func (c *OPECContext) Fork(opts Options) (*Result, error) {
	if err := c.Reset(); err != nil {
		return nil, err
	}
	mon := c.Mon
	mon.Policy = opts.Policy
	mon.M.MaxCycles = c.Inst.MaxCycles
	if opts.MaxCycles > 0 {
		mon.M.MaxCycles = opts.MaxCycles
	}
	if opts.Trace != nil {
		mon.AttachTrace(opts.Trace)
	}
	if opts.Arm != nil {
		opts.Arm(mon.M)
	}
	res := &Result{Machine: mon.M, Read: reader(mon.M, c.Inst), Mon: mon, Build: c.B}
	err := mon.Run()
	res.Cycles = mon.M.Clock.Now()
	return res, finish(mon.M, err, "operation "+mon.Current().Name)
}

// ACESContext is OPECContext's baseline counterpart.
type ACESContext struct {
	Inst *apps.Instance
	B    *aces.Build
	RT   *aces.Runtime

	snap   *mach.Snapshot
	rtSnap *aces.Snapshot
}

// BootACES boots the ACES build once and checkpoints it.
func BootACES(inst *apps.Instance, b *aces.Build) (*ACESContext, error) {
	bus, err := newBus(inst)
	if err != nil {
		return nil, err
	}
	rt, err := aces.Boot(b, bus)
	if err != nil {
		return nil, err
	}
	snap, err := rt.M.Snapshot()
	if err != nil {
		return nil, err
	}
	return &ACESContext{Inst: inst, B: b, RT: rt, snap: snap, rtSnap: rt.Snapshot()}, nil
}

// SnapshotID identifies the checkpoint's machine state.
func (c *ACESContext) SnapshotID() string { return c.snap.ID() }

// Reset rewinds machine and runtime to the checkpoint.
func (c *ACESContext) Reset() error {
	if err := c.RT.M.Restore(c.snap); err != nil {
		return err
	}
	c.RT.Restore(c.rtSnap)
	return nil
}

// Fork restores the checkpoint and runs it under opts, mirroring
// ACESWith's post-boot sequence exactly.
func (c *ACESContext) Fork(opts Options) (*Result, error) {
	if err := c.Reset(); err != nil {
		return nil, err
	}
	rt := c.RT
	rt.M.MaxCycles = c.Inst.MaxCycles
	if opts.MaxCycles > 0 {
		rt.M.MaxCycles = opts.MaxCycles
	}
	if opts.Trace != nil {
		rt.AttachTrace(opts.Trace)
	}
	if opts.Arm != nil {
		opts.Arm(rt.M)
	}
	res := &Result{Machine: rt.M, Read: reader(rt.M, c.Inst), ACES: rt, ABld: c.B}
	err := rt.Run()
	res.Cycles = rt.M.Clock.Now()
	return res, finish(rt.M, err, "compartment "+rt.Current().Name)
}
