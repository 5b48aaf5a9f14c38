package mach

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"opec/internal/ir"
)

// resumeModule builds a program whose activation chains mix every call
// kind a checkpoint resumes through:
//
//	main   loop: r = svc task(i, 2, 3, 4, 5, 6); w = wrapper(r); sum += r + w
//	task   (6 params, two spilled) x = mid(a+b+e); hits += f; ret x + c + d
//	mid    loop j < 3: out = icall leaf(v + j); ret out
//	wrapper ret leaf(v * 7)
//	leaf   acc += v; ret old acc
//
// leaf's entries per round: three through mid (inside the SVC), one
// through wrapper (plain calls only).
func resumeModule(rounds uint32) *ir.Module {
	m := ir.NewModule("resume-test")
	acc := m.AddGlobal(&ir.Global{Name: "acc", Typ: ir.I32})
	out := m.AddGlobal(&ir.Global{Name: "out", Typ: ir.I32})
	hits := m.AddGlobal(&ir.Global{Name: "hits", Typ: ir.I32})

	lb := ir.NewFunc(m, "leaf", "a.c", ir.I32, ir.P("v", ir.I32))
	old := lb.Load(ir.I32, acc)
	lb.Store(ir.I32, acc, lb.Add(old, lb.Arg("v")))
	lb.Ret(old)
	leaf := m.MustFunc("leaf")

	mid := ir.NewFunc(m, "mid", "a.c", ir.I32, ir.P("v", ir.I32))
	j := mid.Alloca(ir.I32)
	mid.Store(ir.I32, j, ir.CI(0))
	mloop, mdone := mid.NewBlock("loop"), mid.NewBlock("done")
	mid.Br(mloop)
	mid.SetBlock(mloop)
	jv := mid.Load(ir.I32, j)
	r := mid.ICall(leaf.Signature(), leaf, mid.Add(mid.Arg("v"), jv))
	mid.Store(ir.I32, out, r)
	jn := mid.Add(jv, ir.CI(1))
	mid.Store(ir.I32, j, jn)
	mid.CondBr(mid.Lt(jn, ir.CI(3)), mloop, mdone)
	mid.SetBlock(mdone)
	mid.Ret(mid.Load(ir.I32, out))

	params := []ir.ParamSpec{ir.P("a", ir.I32), ir.P("b", ir.I32), ir.P("c", ir.I32),
		ir.P("d", ir.I32), ir.P("e", ir.I32), ir.P("f", ir.I32)}
	tb := ir.NewFunc(m, "task", "a.c", ir.I32, params...)
	x := tb.Call(m.MustFunc("mid"), tb.Add(tb.Add(tb.Arg("a"), tb.Arg("b")), tb.Arg("e")))
	tb.Store(ir.I32, hits, tb.Add(tb.Load(ir.I32, hits), tb.Arg("f")))
	tb.Ret(tb.Add(tb.Add(x, tb.Arg("c")), tb.Arg("d")))

	wb := ir.NewFunc(m, "wrapper", "a.c", ir.I32, ir.P("v", ir.I32))
	wb.Ret(wb.Call(leaf, wb.Mul(wb.Arg("v"), ir.CI(7))))

	mb := ir.NewFunc(m, "main", "a.c", ir.I32)
	i, sum := mb.Alloca(ir.I32), mb.Alloca(ir.I32)
	mb.Store(ir.I32, i, ir.CI(0))
	mb.Store(ir.I32, sum, ir.CI(0))
	loop, done := mb.NewBlock("loop"), mb.NewBlock("done")
	mb.Br(loop)
	mb.SetBlock(loop)
	iv := mb.Load(ir.I32, i)
	// The gate call as the compiler's instrumentation writes it: the
	// call instruction rewritten in place to an SVC.
	rv := mb.Call(m.MustFunc("task"), iv, ir.CI(2), ir.CI(3), ir.CI(4), ir.CI(5), ir.CI(6))
	rv.Op, rv.Off = ir.OpSvc, 1
	w := mb.Call(m.MustFunc("wrapper"), rv)
	mb.Store(ir.I32, sum, mb.Add(mb.Load(ir.I32, sum), mb.Add(rv, w)))
	in := mb.Add(iv, ir.CI(1))
	mb.Store(ir.I32, i, in)
	mb.CondBr(mb.Lt(in, ir.CI(rounds)), loop, done)
	mb.SetBlock(done)
	mb.Ret(mb.Load(ir.I32, sum))
	return m
}

// hostLog is the host-side state the test runtime's hooks keep; like
// the monitor's, it is captured beside a checkpoint and restored with
// it.
type hostLog struct {
	events         []string
	retries, exits int
}

func (h *hostLog) clone() hostLog {
	return hostLog{events: append([]string(nil), h.events...), retries: h.retries, exits: h.exits}
}

// hooks selects the runtime hooks a resume case installs.
type hooks struct {
	gate  bool // SvcEnter rewrites arguments, SvcExit charges cycles
	calls bool // OnCall/OnReturn log and charge every plain call
	retry bool // SvcFault re-enters a failed body once
	// failExit, when non-zero, makes that (1-based) gate exit fail.
	failExit int
}

func (k hooks) install(mm *Machine, h *hostLog) {
	if k.gate {
		mm.Handlers.SvcEnter = func(entry *ir.Function, args []uint32) ([]uint32, error) {
			h.events = append(h.events, fmt.Sprintf("enter %s %v priv=%v @%d", entry.Name, args, mm.Privileged, mm.Clock.Now()))
			mm.Clock.Advance(40)
			out := append([]uint32(nil), args...)
			out[0] += 1000
			return out, nil
		}
		mm.Handlers.SvcExit = func(entry *ir.Function, ret uint32) error {
			h.events = append(h.events, fmt.Sprintf("exit %s %d @%d", entry.Name, ret, mm.Clock.Now()))
			mm.Clock.Advance(40)
			if h.exits++; h.exits == k.failExit {
				return errors.New("exit refused")
			}
			return nil
		}
	}
	if k.calls {
		mm.Handlers.OnCall = func(caller, callee *ir.Function) error {
			h.events = append(h.events, fmt.Sprintf("call %s>%s @%d", caller.Name, callee.Name, mm.Clock.Now()))
			mm.Clock.Advance(7)
			return nil
		}
		mm.Handlers.OnReturn = func(caller, callee *ir.Function) error {
			h.events = append(h.events, fmt.Sprintf("ret %s<%s @%d", caller.Name, callee.Name, mm.Clock.Now()))
			mm.Clock.Advance(5)
			return nil
		}
	}
	if k.retry {
		mm.Handlers.SvcFault = func(entry *ir.Function, err error) SvcFaultResolution {
			h.events = append(h.events, fmt.Sprintf("fault %s %v priv=%v @%d", entry.Name, err, mm.Privileged, mm.Clock.Now()))
			if h.retries++; h.retries > 1 {
				return SvcFaultResolution{}
			}
			mm.Clock.Advance(100)
			return SvcFaultResolution{Action: SvcRetry}
		}
	}
}

// runRecord is everything observable about a finished run.
type runRecord struct {
	ret    uint32
	err    string
	cycles uint64
	instrs uint64
	priv   bool
	digest string
	events string
}

func record(mm *Machine, h *hostLog, ret uint32, err error) runRecord {
	r := runRecord{
		ret: ret, cycles: mm.Clock.Now(), instrs: mm.InstrCount, priv: mm.Privileged,
		digest: mm.StateDigest(), events: strings.Join(h.events, "\n"),
	}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// checkResume runs resumeModule three ways with one injection armed on
// the n-th entry of trigger: straight through; again with a checkpoint
// captured in the Fire hook before perturbing; then twice resumed from
// that checkpoint. All four runs must be indistinguishable.
func checkResume(t *testing.T, trigger string, n, wantDepth int, k hooks, perturb func(*Machine) error) {
	t.Helper()
	mod := resumeModule(4)
	main, fn := mod.MustFunc("main"), mod.MustFunc(trigger)
	boot := func() (*Machine, *hostLog) {
		mm := testMachine(t, mod)
		mm.Privileged = false // the SVC's saved privilege must come back
		h := &hostLog{}
		k.install(mm, h)
		return mm, h
	}

	mm, h := boot()
	mm.Arm(&Injection{Func: fn, N: n, Fire: perturb})
	ret, err := mm.Run(main)
	want := record(mm, h, ret, err)

	mm, h = boot()
	var cp *Checkpoint
	var saved hostLog
	mm.Arm(&Injection{Func: fn, N: n, Fire: func(m *Machine) error {
		c, err := m.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		cp, saved = c, h.clone()
		return perturb(m)
	}})
	ret, err = mm.Run(main)
	if got := record(mm, h, ret, err); got != want {
		t.Fatalf("capturing run differs from the straight run:\n got %+v\nwant %+v", got, want)
	}
	if cp == nil {
		t.Fatal("trigger never fired")
	}
	if len(cp.frames) != wantDepth {
		t.Errorf("checkpoint depth %d, want %d", len(cp.frames), wantDepth)
	}
	if cp.Cycles() == 0 || cp.Cycles() >= want.cycles {
		t.Errorf("checkpoint at cycle %d, run ends at %d", cp.Cycles(), want.cycles)
	}
	for round := 0; round < 2; round++ {
		if err := mm.ResumeAt(cp); err != nil {
			t.Fatal(err)
		}
		*h = saved.clone()
		mm.Arm(&Injection{Func: fn, N: n, Fire: perturb})
		ret, err := mm.Run(main)
		if got := record(mm, h, ret, err); got != want {
			t.Fatalf("resume %d differs from the straight run:\n got %+v\nwant %+v", round, got, want)
		}
	}
}

// bumpAcc is a perturbation: a store through the checked pipeline.
func bumpAcc(m *Machine) error {
	return m.InjectStore(SRAMBase, 4, 0x1234)
}

// The fifth entry of leaf is round two's first, reached through
// main -> svc task -> mid -> icall leaf: depth 4, inside the gate.
func TestResumeInsideSvcGate(t *testing.T) {
	checkResume(t, "leaf", 5, 4, hooks{gate: true}, bumpAcc)
}

// The fourth entry of leaf is round one's wrapper call: main -> wrapper
// -> leaf, plain calls interposed by OnCall/OnReturn (the ACES
// runtime's compartment switch points); the resumed levels owe their
// OnReturn.
func TestResumeAfterPlainCallHooks(t *testing.T) {
	checkResume(t, "leaf", 4, 3, hooks{gate: true, calls: true}, bumpAcc)
}

// The perturbation fails the body: the fault unwinds through the
// resumed mid and task levels to the resumed SVC, whose restart loop
// re-enters task with the post-SvcEnter arguments the checkpoint kept.
func TestResumeThroughSvcRetry(t *testing.T) {
	injected := errors.New("injected fault")
	checkResume(t, "leaf", 5, 4, hooks{gate: true, calls: true, retry: true},
		func(*Machine) error { return injected })
}

// The resumed gate's exit fails: the error surfaces from the resumed
// SVC level and is located in main, whose call instruction issued it.
func TestResumeGateExitFailure(t *testing.T) {
	checkResume(t, "leaf", 5, 4, hooks{gate: true, failExit: 2}, bumpAcc)
}

// With nothing armed at resumption the run continues unperturbed: a
// checkpoint taken by a no-op hook resumes into the clean run.
func TestResumeWithoutInjectionIsClean(t *testing.T) {
	checkResume(t, "mid", 2, 3, hooks{gate: true, calls: true}, func(*Machine) error { return nil })
}

// A trigger inside an IRQ handler has no call site to resume through:
// the checkpoint declines, and the run is unaffected.
func TestCheckpointDeclinesInsideIRQ(t *testing.T) {
	m := ir.NewModule("resume-irq")
	flag := m.AddGlobal(&ir.Global{Name: "irq_seen", Typ: ir.I32})
	lb := ir.NewFunc(m, "note", "a.c", nil)
	lb.Store(ir.I32, flag, ir.CI(1))
	lb.RetVoid()
	h := ir.NewFunc(m, "USART2_IRQHandler", "stm32f4xx_it.c", nil)
	h.F.IRQHandler = true
	h.Call(m.MustFunc("note"))
	h.RetVoid()
	mb := ir.NewFunc(m, "main", "a.c", ir.I32)
	loop, done := mb.NewBlock("loop"), mb.NewBlock("done")
	mb.Br(loop)
	mb.SetBlock(loop)
	v := mb.Load(ir.I32, flag)
	mb.CondBr(v, done, loop)
	mb.SetBlock(done)
	mb.Ret(ir.CI(7))

	mm := testMachine(t, m)
	mm.BindIRQ(&testIRQDev{stubDevice: stubDevice{name: "USART2", base: USART2Base, size: 0x400}, pending: true},
		m.MustFunc("USART2_IRQHandler"))
	var cerr error
	mm.Arm(&Injection{Func: m.MustFunc("note"), N: 1, Fire: func(mm *Machine) error {
		_, cerr = mm.Checkpoint()
		return nil
	}})
	if ret, err := mm.Run(m.MustFunc("main")); err != nil || ret != 7 {
		t.Fatalf("run = %d, %v", ret, err)
	}
	if !errors.Is(cerr, ErrCheckpointInIRQ) {
		t.Errorf("checkpoint in IRQ handler: err = %v, want ErrCheckpointInIRQ", cerr)
	}
}

// Checkpoint is refused anywhere but an entry trigger's hook: outside
// a run, and in an instruction-count trigger's hook.
func TestCheckpointOnlyAtEntryTrigger(t *testing.T) {
	mod := resumeModule(2)
	mm := testMachine(t, mod)
	if _, err := mm.Checkpoint(); err == nil {
		t.Error("checkpoint outside a run succeeded")
	}
	var cerr error
	mm.Arm(&Injection{At: 20, Fire: func(m *Machine) error {
		_, cerr = m.Checkpoint()
		return nil
	}})
	if _, err := mm.Run(mod.MustFunc("main")); err != nil {
		t.Fatal(err)
	}
	if cerr == nil {
		t.Error("checkpoint in an instruction-count trigger's hook succeeded")
	}
}

// Resuming needs the chain's own root: Run of another function fails
// instead of running the chain under the wrong name.
func TestResumeRejectsOtherRoot(t *testing.T) {
	mod := resumeModule(2)
	mm := testMachine(t, mod)
	var cp *Checkpoint
	mm.Arm(&Injection{Func: mod.MustFunc("leaf"), N: 1, Fire: func(m *Machine) error {
		cp, _ = m.Checkpoint()
		return nil
	}})
	if _, err := mm.Run(mod.MustFunc("main")); err != nil || cp == nil {
		t.Fatalf("capture run: %v (checkpoint %v)", err, cp)
	}
	if err := mm.ResumeAt(cp); err != nil {
		t.Fatal(err)
	}
	if _, err := mm.Run(mod.MustFunc("wrapper"), 1); err == nil {
		t.Error("resumed a main checkpoint under wrapper")
	}
}
