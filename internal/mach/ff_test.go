package mach_test

import (
	"fmt"
	"strings"
	"testing"

	"opec/internal/fuzz"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/trace"
)

// Exactness tests for the wait fast-forward (ff.go). Every case runs a
// synthetic poll loop against a scripted device with fast-forward on,
// with only fast-forward off, and under DisableCaches (which turns it
// off together with the lookup caches), traced and untraced. Everything
// observable must match: the error, cycles, instruction count, the
// counters (all but mach.ff.* against fast-forward off; all but the
// fast-path tallies against DisableCaches), the trace ring's render,
// Emitted/Dropped, the profiler's attribution and the coverage sink's
// features. Each case also states whether the skip must fire, so no
// case passes by never exercising it.

const scriptBase = mach.USART2Base

// Scripted device registers.
const (
	scriptSR   = 0x0 // bit0: ready once the clock reaches readyAt
	scriptDR   = 0x4 // impure: every read returns the next sequence value
	scriptWAIT = 0x8 // write n: ready n cycles from now
)

// scriptDev is a Pollable device whose ready flag is scheduled by a
// store, like the workloads' UART, SDIO and DCMI models.
type scriptDev struct {
	clk     *mach.Clock
	readyAt uint64
	seq     uint32
	never   bool // SR never reads ready
	pending bool // IRQ line (never raised by these tests)
}

func (d *scriptDev) Name() string { return "SCRIPT" }
func (d *scriptDev) Base() uint32 { return scriptBase }
func (d *scriptDev) Size() uint32 { return 0x400 }
func (d *scriptDev) Load(off uint32, _ int) uint32 {
	switch off {
	case scriptSR:
		if !d.never && d.clk.Now() >= d.readyAt {
			return 1
		}
	case scriptDR:
		d.seq++
		return d.seq
	}
	return 0
}
func (d *scriptDev) Store(off uint32, _ int, v uint32) {
	if off == scriptWAIT {
		d.readyAt = d.clk.Now() + uint64(v)
	}
}
func (d *scriptDev) PureLoad(off uint32) bool { return off != scriptDR }
func (d *scriptDev) NextChange(now uint64) uint64 {
	if !d.never && now < d.readyAt {
		return d.readyAt
	}
	return mach.Never
}
func (d *scriptDev) IRQPending() bool { return d.pending }
func (d *scriptDev) IRQAck()          { d.pending = false }

// countSink is a trace sink that is not repeat-aware.
type countSink struct{ n int }

func (s *countSink) HandleEvent(trace.Event) { s.n++ }

// ffCase is one scenario: body builds the poll loop's iteration (it
// returns the loop's exit condition), setup wires the machine, and
// tracedSkips/untracedSkips state whether the fast-forward must fire in
// traced and untraced runs (ring and sink limits only bind when
// tracing).
type ffCase struct {
	name          string
	body          func(fb *ir.FuncBuilder, m *ir.Module) ir.Value
	setup         func(mm *mach.Machine, dev *scriptDev)
	ringCap       int
	plainSink     bool
	maxCycles     uint64
	wantErr       bool
	tracedSkips   bool
	untracedSkips bool
}

// buildModule assembles main: arm the device, wait, record, re-arm,
// wait again. The wait helper calls an accessor (the UART_WaitOnFlag ->
// LL_USART_IsActiveFlag shape) unless the case supplies its own body.
func buildModule(c ffCase) *ir.Module {
	m := ir.NewModule("ff-" + c.name)
	flag := m.AddGlobal(&ir.Global{Name: "flag", Typ: ir.I32})
	out := m.AddGlobal(&ir.Global{Name: "out", Typ: ir.I32})
	m.AddGlobal(&ir.Global{Name: "scratch", Typ: ir.I32})

	acc := ir.NewFunc(m, "IsReady", "ll.c", ir.I32)
	acc.Ret(acc.And(acc.Load(ir.I32, ir.CI(scriptBase+scriptSR)), ir.CI(1)))
	other := ir.NewFunc(m, "Other", "other.c", ir.I32)
	other.Ret(ir.CI(0))

	wait := ir.NewFunc(m, "Wait", "hal.c", nil)
	loop := wait.NewBlock("poll")
	done := wait.NewBlock("ready")
	wait.Br(loop)
	wait.SetBlock(loop)
	var cond ir.Value
	if c.body != nil {
		cond = c.body(wait, m)
	} else {
		cond = wait.Call(m.MustFunc("IsReady"))
	}
	f := wait.Load(ir.I32, flag)
	wait.CondBr(wait.Or(cond, f), done, loop)
	wait.SetBlock(done)
	wait.RetVoid()

	mb := ir.NewFunc(m, "main", "main.c", ir.I32)
	mb.Store(ir.I32, ir.CI(scriptBase+scriptWAIT), ir.CI(40_003))
	mb.Call(wait.F)
	mb.Store(ir.I32, out, mb.Load(ir.I32, ir.CI(scriptBase+scriptDR)))
	mb.Store(ir.I32, ir.CI(scriptBase+scriptWAIT), ir.CI(77_777))
	mb.Call(wait.F)
	mb.Ret(mb.Load(ir.I32, out))
	return m
}

// ffMode selects how a case runs.
type ffMode int

const (
	ffOn      ffMode = iota
	ffOff            // fast-forward off, caches on
	ffNoCache        // DisableCaches
)

// fastPathCounter reports whether a counter tallies a fast path, so its
// value legitimately depends on DisableCaches.
func fastPathCounter(name string) bool {
	return strings.HasPrefix(name, "mach.ff.") || strings.HasPrefix(name, "mach.tlb.") ||
		name == "mach.bus.dev_cache_hits"
}

// ffObs is everything one run exposes. counters holds every counter but
// mach.ff.*; archCounters drops the other fast-path tallies as well.
type ffObs struct {
	err, counters, archCounters string
	ring, profile               string
	cycles, instrs              uint64
	emitted, dropped            uint64
	features                    []uint32
	skips                       uint64
}

func runFFCase(t *testing.T, c ffCase, traced bool, mode ffMode) ffObs {
	t.Helper()
	saved := mach.DisableCaches
	mach.DisableCaches = mode == ffNoCache
	defer func() { mach.DisableCaches = saved }()

	mod := buildModule(c)
	if err := ir.Verify(mod); err != nil {
		t.Fatalf("verify: %v", err)
	}
	clk := &mach.Clock{}
	bus := mach.NewBus(64<<10, 64<<10, clk)
	if mode == ffOff {
		mach.NoFastForward(bus)
	}
	dev := &scriptDev{clk: clk}
	if err := bus.Attach(dev); err != nil {
		t.Fatal(err)
	}
	mm := mach.NewMachine(mod, bus, mach.FlashBase)
	addrs := map[*ir.Global]uint32{}
	for i, g := range mod.Globals {
		addrs[g] = mach.SRAMBase + uint32(4*i)
	}
	mm.GlobalAddr = func(g *ir.Global, _ bool) (uint32, *mach.Fault) { return addrs[g], nil }
	mm.StackTop = mach.SRAMBase + 64<<10
	mm.StackLimit = mm.StackTop - 16<<10
	mm.Privileged = true
	mm.MaxCycles = 1_000_000
	if c.maxCycles != 0 {
		mm.MaxCycles = c.maxCycles
	}
	var buf *trace.Buffer
	var prof *trace.Profiler
	var cov *fuzz.CovSink
	if traced {
		buf = trace.NewBuffer(c.ringCap)
		prof = trace.NewProfiler(buf)
		cov = fuzz.NewCovSink()
		buf.Attach(cov)
		if c.plainSink {
			buf.Attach(&countSink{})
		}
		mm.AttachTrace(buf)
		mm.CovEvents = true
		buf.Emit(trace.Event{Kind: trace.EvOpActivate, Op: 0, Arg: buf.Intern("main")})
	}
	if c.setup != nil {
		c.setup(mm, dev)
	}
	_, err := mm.Run(mod.MustFunc("main"))
	if (err != nil) != c.wantErr {
		t.Fatalf("run error = %v, want error %v", err, c.wantErr)
	}
	o := ffObs{cycles: clk.Now(), instrs: mm.InstrCount}
	if err != nil {
		o.err = err.Error()
	}
	var all, arch strings.Builder
	for _, ct := range mm.Counters() {
		if ct.Name == "mach.ff.skips" {
			o.skips = ct.Value
		}
		if !strings.HasPrefix(ct.Name, "mach.ff.") {
			fmt.Fprintf(&all, "%s=%d\n", ct.Name, ct.Value)
		}
		if !fastPathCounter(ct.Name) {
			fmt.Fprintf(&arch, "%s=%d\n", ct.Name, ct.Value)
		}
	}
	o.counters, o.archCounters = all.String(), arch.String()
	if traced {
		o.ring = buf.RenderText()
		o.emitted, o.dropped = buf.Emitted(), buf.Dropped()
		o.profile = prof.Finish(clk.Now()).Render()
		o.features = cov.Features()
	}
	return o
}

// compareFF checks got against the stepwise run want; arch limits the
// counter comparison to architected counters.
func compareFF(t *testing.T, what string, want, got ffObs, arch bool) {
	t.Helper()
	if arch {
		want.counters, got.counters = want.archCounters, got.archCounters
	}
	if want.err != got.err {
		t.Errorf("%s error: stepwise %q, fast-forward %q", what, want.err, got.err)
	}
	if want.cycles != got.cycles || want.instrs != got.instrs {
		t.Errorf("%s cycles/instrs: stepwise %d/%d, fast-forward %d/%d",
			what, want.cycles, want.instrs, got.cycles, got.instrs)
	}
	if want.counters != got.counters {
		t.Errorf("%s counters:\n--- stepwise ---\n%s--- fast-forward ---\n%s", what, want.counters, got.counters)
	}
	if want.emitted != got.emitted || want.dropped != got.dropped {
		t.Errorf("%s emitted/dropped: stepwise %d/%d, fast-forward %d/%d",
			what, want.emitted, want.dropped, got.emitted, got.dropped)
	}
	if want.ring != got.ring {
		t.Errorf("%s trace ring render differs", what)
	}
	if want.profile != got.profile {
		t.Errorf("%s profile:\n--- stepwise ---\n%s--- fast-forward ---\n%s", what, want.profile, got.profile)
	}
	if fmt.Sprint(want.features) != fmt.Sprint(got.features) {
		t.Errorf("%s coverage features differ: stepwise %d, fast-forward %d", what, len(want.features), len(got.features))
	}
}

func TestFastForwardExact(t *testing.T) {
	cases := []ffCase{
		{name: "ready-mid-window", tracedSkips: true, untracedSkips: true},
		{
			// The cycle limit must fire at the identical cycle and
			// instruction.
			name: "never-ready", maxCycles: 150_000, wantErr: true,
			tracedSkips: true, untracedSkips: true,
			setup: func(_ *mach.Machine, dev *scriptDev) { dev.never = true },
		},
		{
			// The injection sets the flag the loop also polls, mid-wait.
			name: "instr-injection-in-wait", tracedSkips: true, untracedSkips: true,
			setup: func(mm *mach.Machine, _ *scriptDev) {
				flag := mm.Mod.Global("flag")
				mm.Arm(&mach.Injection{At: 7_001, Fire: func(mm *mach.Machine) error {
					addr, _ := mm.GlobalAddr(flag, true)
					return mm.InjectStore(addr, 4, 1)
				}})
			},
		},
		{
			// Entry-count injection on the polled accessor: every entry
			// is bookkeeping until it fires; the waits skip afterwards.
			name: "entry-injection-on-accessor", tracedSkips: true, untracedSkips: true,
			setup: func(mm *mach.Machine, _ *scriptDev) {
				scratch := mm.Mod.Global("scratch")
				mm.Arm(&mach.Injection{Func: mm.Mod.MustFunc("IsReady"), N: 300, Fire: func(mm *mach.Machine) error {
					addr, _ := mm.GlobalAddr(scratch, true)
					return mm.InjectStore(addr, 4, 0xee)
				}})
			},
		},
		{
			// ACES-style interposition with the callee in the caller's
			// compartment: the hook pushes a marker and pops it.
			name: "oncall-same-compartment", tracedSkips: true, untracedSkips: true,
			setup: func(mm *mach.Machine, _ *scriptDev) {
				var stack []bool
				mm.Handlers.OnCall = func(_, _ *ir.Function) error { stack = append(stack, false); return nil }
				mm.Handlers.OnReturn = func(_, _ *ir.Function) error { stack = stack[:len(stack)-1]; return nil }
			},
		},
		{
			// A cross-compartment callee reprograms the MPU on every call.
			name: "oncall-cross-compartment",
			setup: func(mm *mach.Machine, _ *scriptDev) {
				acc := mm.Mod.MustFunc("IsReady")
				swap := func(base uint32) {
					mm.Bus.MPU.MustSetRegion(7, mach.Region{Enabled: true, Base: base, SizeLog2: 10, Perm: mach.APRW})
					mm.Clock.Advance(20)
				}
				mm.Handlers.OnCall = func(_, callee *ir.Function) error {
					if callee == acc {
						swap(scriptBase)
					}
					return nil
				}
				mm.Handlers.OnReturn = func(_, callee *ir.Function) error {
					if callee == acc {
						swap(mach.SRAMBase)
					}
					return nil
				}
			},
		},
		{
			name: "irq-bound",
			setup: func(mm *mach.Machine, dev *scriptDev) {
				mm.BindIRQ(dev, mm.Mod.MustFunc("Other"))
			},
		},
		{
			// An idempotent store is still a store.
			name: "loop-with-store",
			body: func(fb *ir.FuncBuilder, m *ir.Module) ir.Value {
				fb.Store(ir.I32, m.Global("scratch"), ir.CI(5))
				return fb.Call(m.MustFunc("IsReady"))
			},
		},
		{
			// Spin on the cycle counter instead of the device.
			name: "dwt-spin",
			body: func(fb *ir.FuncBuilder, _ *ir.Module) ir.Value {
				return fb.Gt(fb.Load(ir.I32, ir.CI(mach.DWTCyccnt)), ir.CI(60_000))
			},
		},
		{
			// With coverage events one iteration emits more events than
			// a two-slot ring holds.
			name: "ring-smaller-than-window", ringCap: 2, untracedSkips: true,
		},
		{name: "plain-sink", plainSink: true, untracedSkips: true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, traced := range []bool{true, false} {
				what := fmt.Sprintf("traced=%v", traced)
				got := runFFCase(t, c, traced, ffOn)
				off := runFFCase(t, c, traced, ffOff)
				noCache := runFFCase(t, c, traced, ffNoCache)
				compareFF(t, what+" vs fast-forward off", off, got, false)
				compareFF(t, what+" vs DisableCaches", noCache, got, true)
				if off.skips != 0 || noCache.skips != 0 {
					t.Errorf("%s: skips with fast-forward disabled", what)
				}
				wantSkips := c.untracedSkips
				if traced {
					wantSkips = c.tracedSkips
				}
				if wantSkips && got.skips == 0 {
					t.Errorf("%s: fast-forward never fired", what)
				}
				if !wantSkips && got.skips != 0 {
					t.Errorf("%s: fast-forward fired %d times, want none", what, got.skips)
				}
			}
		})
	}
}
