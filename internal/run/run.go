// Package run executes workload instances under the three build
// flavours the evaluation compares: the vanilla baseline (privileged,
// MPU off), OPEC (operation isolation under the monitor) and ACES
// (compartment isolation under its runtime).
package run

import (
	"fmt"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/dev"
	"opec/internal/image"
	"opec/internal/mach"
	"opec/internal/monitor"
	"opec/internal/trace"
)

// Result captures one finished run.
type Result struct {
	Cycles  uint64
	Machine *mach.Machine
	Read    apps.ReadGlobal

	// Exactly one of the following is set, matching the flavour.
	Van   *image.Vanilla
	Mon   *monitor.Monitor
	Build *core.Build // OPEC compile output (set with Mon)
	ACES  *aces.Runtime
	ABld  *aces.Build
}

// newBus builds the bus for an instance and attaches its devices.
func newBus(inst *apps.Instance) (*mach.Bus, error) {
	bus := mach.NewBus(inst.Board.FlashSize, inst.Board.SRAMSize, inst.Clk)
	// Every board has the flash-interface block the clock bring-up
	// programs, plus the GPIO ports the pin-mux table touches that the
	// workloads don't model behaviourally.
	if err := bus.Attach(dev.NewFlashIF()); err != nil {
		return nil, err
	}
	if err := bus.Attach(dev.NewGPIO(mach.GPIOBBase, inst.Clk)); err != nil {
		return nil, err
	}
	if err := bus.Attach(dev.NewGPIO(mach.GPIOCBase, inst.Clk)); err != nil {
		return nil, err
	}
	for _, d := range inst.Devices {
		if err := bus.Attach(d); err != nil {
			return nil, err
		}
	}
	if inst.NeedsDMA2D {
		if err := bus.Attach(dev.NewDMA2D(inst.Clk, bus)); err != nil {
			return nil, err
		}
	}
	return bus, nil
}

func reader(m *mach.Machine, inst *apps.Instance) apps.ReadGlobal {
	return func(name string, off uint32, size int) uint32 {
		g := inst.Mod.Global(name)
		if g == nil {
			panic(fmt.Sprintf("run: no global %q", name))
		}
		addr, f := m.GlobalAddr(g, true)
		if f != nil {
			panic(f)
		}
		v, f := m.Bus.RawLoad(addr+off, size)
		if f != nil {
			panic(f)
		}
		return v
	}
}

// finish normalizes a run's outcome. A failure is wrapped with where
// the program was when it happened — the faulting operation or
// compartment — so containment verdicts (and users) see where the
// fault was caught, on top of the interpreter's ExecError which names
// the faulting function and PC.
func finish(m *mach.Machine, err error, where string) error {
	if err != nil {
		if where != "" {
			return fmt.Errorf("run: in %s: %w", where, err)
		}
		return err
	}
	if !m.Halted {
		return fmt.Errorf("run: program returned without reaching its halt point")
	}
	return nil
}

// Options tunes a run beyond the paper's defaults.
type Options struct {
	// Policy selects the monitor's fault-recovery policy (OPEC only).
	Policy monitor.Policy
	// Arm, when non-nil, runs right before execution starts — the
	// fault-injection campaign uses it to arm a mach.Injection.
	Arm func(m *mach.Machine)
	// Trace, when non-nil, receives the run's event stream: exception
	// entries, gate crossings, MPU programming, faults, recovery
	// actions. Attached right after boot, before execution starts; nil
	// keeps every emit site on its zero-cost path.
	Trace *trace.Buffer
	// MaxCycles, when non-zero, overrides the instance's cycle budget
	// for this run (the campaign forge sets per-trial budgets on a
	// shared checkpointed machine).
	MaxCycles uint64
}

// OPECWith is OPECPrecompiled with Options. Unlike the plain entry
// points it returns the partial Result alongside a run error, so
// callers can inspect monitor stats and memory after a contained
// fault.
func OPECWith(inst *apps.Instance, b *core.Build, opts Options) (*Result, error) {
	bus, err := newBus(inst)
	if err != nil {
		return nil, err
	}
	mon, err := monitor.Boot(b, bus)
	if err != nil {
		return nil, err
	}
	mon.Policy = opts.Policy
	mon.M.MaxCycles = inst.MaxCycles
	if opts.MaxCycles > 0 {
		mon.M.MaxCycles = opts.MaxCycles
	}
	if opts.Trace != nil {
		mon.AttachTrace(opts.Trace)
	}
	if opts.Arm != nil {
		opts.Arm(mon.M)
	}
	res := &Result{Machine: mon.M, Read: reader(mon.M, inst), Mon: mon, Build: b}
	err = mon.Run()
	res.Cycles = mon.M.Clock.Now()
	return res, finish(mon.M, err, "operation "+mon.Current().Name)
}

// ACESWith is ACESPrecompiled with Options (Policy does not apply: the
// baseline runtime has no recovery). Like OPECWith it returns the
// partial Result alongside a run error.
func ACESWith(inst *apps.Instance, b *aces.Build, opts Options) (*Result, error) {
	bus, err := newBus(inst)
	if err != nil {
		return nil, err
	}
	rt, err := aces.Boot(b, bus)
	if err != nil {
		return nil, err
	}
	rt.M.MaxCycles = inst.MaxCycles
	if opts.MaxCycles > 0 {
		rt.M.MaxCycles = opts.MaxCycles
	}
	if opts.Trace != nil {
		rt.AttachTrace(opts.Trace)
	}
	if opts.Arm != nil {
		opts.Arm(rt.M)
	}
	res := &Result{Machine: rt.M, Read: reader(rt.M, inst), ACES: rt, ABld: b}
	err = rt.Run()
	res.Cycles = rt.M.Clock.Now()
	return res, finish(rt.M, err, "compartment "+rt.Current().Name)
}

// Vanilla runs the instance as the unprotected baseline binary.
func Vanilla(inst *apps.Instance) (*Result, error) {
	return VanillaWith(inst, Options{})
}

// VanillaWith is Vanilla with Options (Policy does not apply; Trace
// still records exceptions, IRQs and calls even with the MPU off).
func VanillaWith(inst *apps.Instance, opts Options) (*Result, error) {
	van, err := image.BuildVanilla(inst.Mod, inst.Board)
	if err != nil {
		return nil, err
	}
	bus, err := newBus(inst)
	if err != nil {
		return nil, err
	}
	m := van.Instantiate(bus)
	m.MaxCycles = inst.MaxCycles
	if opts.Trace != nil {
		m.AttachTrace(opts.Trace)
	}
	if opts.Arm != nil {
		opts.Arm(m)
	}
	res := &Result{Machine: m, Read: reader(m, inst), Van: van}
	_, err = m.Run(inst.Mod.MustFunc("main"))
	res.Cycles = m.Clock.Now()
	return res, finish(m, err, "")
}

// OPEC compiles the instance with OPEC-Compiler and runs it under
// OPEC-Monitor.
func OPEC(inst *apps.Instance) (*Result, error) {
	b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
	if err != nil {
		return nil, err
	}
	return OPECPrecompiled(inst, b)
}

// OPECPMP is OPEC on the RISC-V PMP backend (the paper's Section 7
// portability target).
func OPECPMP(inst *apps.Instance) (*Result, error) {
	b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
	if err != nil {
		return nil, err
	}
	bus, err := newBus(inst)
	if err != nil {
		return nil, err
	}
	mon, err := monitor.BootPMP(b, bus)
	if err != nil {
		return nil, err
	}
	mon.M.MaxCycles = inst.MaxCycles
	if err := finish(mon.M, mon.Run(), "operation "+mon.Current().Name); err != nil {
		return nil, err
	}
	return &Result{Cycles: mon.M.Clock.Now(), Machine: mon.M, Read: reader(mon.M, inst), Mon: mon, Build: b}, nil
}

// OPECPrecompiled runs an instance whose module was already compiled
// with core.Compile (callers that inspect or modify the compiled module
// — e.g. attack injection — before running).
func OPECPrecompiled(inst *apps.Instance, b *core.Build) (*Result, error) {
	res, err := OPECWith(inst, b, Options{})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ACESPrecompiled is OPECPrecompiled's ACES counterpart.
func ACESPrecompiled(inst *apps.Instance, b *aces.Build) (*Result, error) {
	res, err := ACESWith(inst, b, Options{})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ACES compiles the instance with the baseline's strategy and runs it
// under the ACES runtime.
func ACES(inst *apps.Instance, strat aces.Strategy) (*Result, error) {
	b, err := aces.Compile(inst.Mod, inst.Board, strat)
	if err != nil {
		return nil, err
	}
	return ACESPrecompiled(inst, b)
}

// AndCheck runs the instance's correctness check against a result.
func AndCheck(inst *apps.Instance, res *Result) error {
	if inst.Check == nil {
		return nil
	}
	return inst.Check(res.Read)
}
