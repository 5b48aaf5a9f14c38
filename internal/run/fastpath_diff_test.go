package run_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/run"
)

// The fast-path differential fuzzer: generate random mixed workloads —
// bounded loops, the full binary-operator set, arrays, stack
// round-trips, spilled arguments — and run each under the vanilla and
// OPEC build flavours in every fast-path configuration the machine
// offers (runtime certificate elision on/off, paranoid re-adjudication
// of every elided access, the lookup caches on/off). A fast path may
// buy wall-clock time only: the return, the error text, the absolute
// cycle count, the final memory and every architected counter must be
// byte-identical to the default configuration.

// genMixedProgram builds a random always-terminating program that mixes
// long pure ALU runs, cmp+branch loop back-edges, load+op+store
// sequences over shared globals and arrays (the accesses the proof
// engine certifies), and helper calls with spilled arguments.
func genMixedProgram(rng *rand.Rand) (*ir.Module, core.Config) {
	m := ir.NewModule("bfuzz")
	nGlobals := 2 + rng.Intn(5)
	var globals []*ir.Global
	for i := 0; i < nGlobals; i++ {
		globals = append(globals, m.AddGlobal(&ir.Global{
			Name: fmt.Sprintf("g%d", i), Typ: ir.I32,
			Init: []byte{byte(rng.Intn(256)), byte(rng.Intn(4)), 0, 0},
		}))
	}
	arr := m.AddGlobal(&ir.Global{Name: "arr", Typ: ir.Array(ir.I32, 8)})

	mix := ir.NewFunc(m, "mix", "util.c", ir.I32, ir.P("a", ir.I32), ir.P("b", ir.I32))
	mix.Ret(mix.Add(mix.Mul(mix.Arg("a"), ir.CI(31)), mix.Arg("b")))

	// Six parameters: the last two always travel through the simulated
	// stack, exercising the spilled-argument accessors on every call.
	wide := ir.NewFunc(m, "mix6", "util.c", ir.I32,
		ir.P("a", ir.I32), ir.P("b", ir.I32), ir.P("c", ir.I32),
		ir.P("d", ir.I32), ir.P("e", ir.I32), ir.P("f", ir.I32))
	{
		s := wide.Xor(wide.Arg("a"), wide.Arg("b"))
		s = wide.Add(s, wide.Mul(wide.Arg("c"), ir.CI(7)))
		s = wide.Xor(s, wide.Arg("d"))
		s = wide.Add(s, wide.Arg("e"))
		s = wide.Xor(s, wide.Arg("f"))
		wide.Ret(s)
	}

	ops := []ir.BinKind{
		ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or, ir.Xor,
		ir.Shl, ir.Shr, ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge,
	}

	nTasks := 1 + rng.Intn(4)
	var entries []string
	for t := 0; t < nTasks; t++ {
		name := fmt.Sprintf("task%d", t)
		entries = append(entries, name)
		fb := ir.NewFunc(m, name, fmt.Sprintf("task%d.c", t), nil)

		// A bounded counting loop per task: cmp+branch back-edge, a
		// random body of RMW steps inside.
		iters := 1 + rng.Intn(6)
		loop := fb.NewBlock("loop")
		done := fb.NewBlock("done")
		iSlot := fb.Alloca(ir.I32)
		fb.Store(ir.I32, iSlot, ir.CI(0))
		fb.Br(loop)
		fb.SetBlock(loop)
		iv := fb.Load(ir.I32, iSlot)

		steps := 1 + rng.Intn(5)
		for s := 0; s < steps; s++ {
			src := globals[rng.Intn(len(globals))]
			dst := globals[rng.Intn(len(globals))]
			v := fb.Load(ir.I32, src)
			switch rng.Intn(6) {
			case 0:
				// Load+op+store with a random operator;
				// |1 keeps divide/shift operands well-behaved without
				// dodging the wraparound cases (they're deterministic).
				k := ops[rng.Intn(len(ops))]
				fb.Store(ir.I32, dst, fb.Bin(k, v, ir.CI(uint32(rng.Intn(100))|1)))
			case 1:
				// A long pure run: chained ALU ops before one store.
				a := fb.Add(v, iv)
				b := fb.Mul(a, ir.CI(uint32(1+rng.Intn(7))))
				c := fb.Xor(b, ir.CI(uint32(rng.Intn(1<<16))))
				d := fb.Shr(c, ir.CI(uint32(rng.Intn(33))))
				fb.Store(ir.I32, dst, fb.Or(d, ir.CI(1)))
			case 2:
				w := fb.Load(ir.I32, dst)
				fb.Store(ir.I32, dst, fb.Call(mix.F, v, w))
			case 3:
				w := fb.Load(ir.I32, dst)
				fb.Store(ir.I32, dst, fb.Call(wide.F, v, w, iv,
					ir.CI(uint32(rng.Intn(256))), w, v))
			case 4:
				// Array element addressed by a masked induction value.
				el := fb.Index(arr, ir.I32, fb.And(fb.Add(iv, v), ir.CI(7)))
				w := fb.Load(ir.I32, el)
				fb.Store(ir.I32, el, fb.Add(w, v))
				fb.Store(ir.I32, dst, w)
			case 5:
				slot := fb.Alloca(ir.I32)
				fb.Store(ir.I32, slot, v)
				fb.Store(ir.I32, dst, fb.Load(ir.I32, slot))
			}
		}

		nx := fb.Add(iv, ir.CI(1))
		fb.Store(ir.I32, iSlot, nx)
		fb.CondBr(fb.Lt(nx, ir.CI(uint32(iters))), loop, done)
		fb.SetBlock(done)
		fb.RetVoid()
	}

	mb := ir.NewFunc(m, "main", "main.c", nil)
	rounds := 1 + rng.Intn(3)
	for r := 0; r < rounds; r++ {
		for t := 0; t < nTasks; t++ {
			mb.Call(m.MustFunc(fmt.Sprintf("task%d", t)))
		}
	}
	mb.Halt()
	mb.RetVoid()

	return m, core.Config{Entries: entries}
}

// runObs is everything one run exposes: outcome, time, memory, and
// the architected counters.
type runObs struct {
	err      string
	cycles   uint64
	globals  []uint32
	counters string
	elided   uint64
}

// fastPathCounter reports whether a counter measures a fast path
// itself rather than architected behaviour: its value legitimately
// depends on which fast paths are switched on.
func fastPathCounter(name string) bool {
	return strings.HasPrefix(name, "mach.proofs.") ||
		strings.HasPrefix(name, "mach.tlb.") ||
		name == "mach.bus.dev_cache_hits"
}

func observeRun(t *testing.T, res *run.Result, err error, m *ir.Module) runObs {
	t.Helper()
	o := runObs{}
	if err != nil {
		o.err = err.Error()
	}
	if res == nil {
		return o
	}
	o.cycles = res.Cycles
	var sb strings.Builder
	for _, c := range res.Machine.Counters() {
		if c.Name == "mach.proofs.elided" {
			o.elided = c.Value
		}
		if !fastPathCounter(c.Name) {
			fmt.Fprintf(&sb, "%s=%d\n", c.Name, c.Value)
		}
	}
	o.counters = sb.String()
	for _, g := range m.Globals {
		addr, f := res.Machine.GlobalAddr(g, true)
		if f != nil {
			t.Fatalf("resolve %s: %v", g.Name, f)
		}
		v, f := res.Machine.Bus.RawLoad(addr, 4)
		if f != nil {
			t.Fatalf("read %s: %v", g.Name, f)
		}
		o.globals = append(o.globals, v)
	}
	return o
}

func compareObs(t *testing.T, what string, want, got runObs) {
	t.Helper()
	if want.err != got.err {
		t.Errorf("%s err:\n  default: %s\n  got:     %s", what, want.err, got.err)
	}
	if want.cycles != got.cycles {
		t.Errorf("%s cycles: default=%d got=%d", what, want.cycles, got.cycles)
	}
	if want.counters != got.counters {
		t.Errorf("%s counters diverge:\n--- default ---\n%s--- got ---\n%s", what, want.counters, got.counters)
	}
	if len(want.globals) != len(got.globals) {
		t.Fatalf("%s global count: %d vs %d", what, len(want.globals), len(got.globals))
	}
	for i := range want.globals {
		if want.globals[i] != got.globals[i] {
			t.Errorf("%s g%d: default=%#x got=%#x", what, i, want.globals[i], got.globals[i])
		}
	}
}

// fastPathConfig is one point of the machine's fast-path lattice. The
// switches are process globals, so set installs them and returns the
// restore func.
type fastPathConfig struct {
	name                         string
	noProofs, paranoid, noCaches bool
}

var fastPathConfigs = []fastPathConfig{
	{name: "default"},
	{name: "noproofs", noProofs: true},
	{name: "paranoid", paranoid: true},
	{name: "nocaches", noCaches: true},
}

func (c fastPathConfig) set() (restore func()) {
	p, q, d := mach.DisableProofs, mach.ParanoidProofs, mach.DisableCaches
	mach.DisableProofs, mach.ParanoidProofs, mach.DisableCaches = c.noProofs, c.paranoid, c.noCaches
	return func() { mach.DisableProofs, mach.ParanoidProofs, mach.DisableCaches = p, q, d }
}

// TestDifferentialInterpVsXlat runs 250 seeds x {vanilla, OPEC} x the
// four fast-path configurations, every observable compared against the
// default configuration. The paranoid configuration re-adjudicates
// every certificate-elided access through the full protection check
// and panics on a disagreement, so it is also the random-program
// soundness check of runtime elision. The name, and its seedN subtest
// ids, date from when the suite compared the interpreter with a second
// execution engine; they are kept so the test ids stay stable.
func TestDifferentialInterpVsXlat(t *testing.T) {
	const trials = 250
	// The random programs fit in a fraction of the Discovery board's
	// flash; trimming it keeps the 2000 power-on buses cheap.
	board := *mach.STM32F4Discovery()
	board.FlashSize = 128 << 10
	var elided uint64
	for seed := int64(0); seed < trials; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			vm, _ := genMixedProgram(rand.New(rand.NewSource(seed)))
			om, cfg := genMixedProgram(rand.New(rand.NewSource(seed)))
			b, err := core.Compile(om, &board, cfg)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			newInst := func(m *ir.Module, cfg core.Config) *apps.Instance {
				return &apps.Instance{
					Mod: m, Cfg: cfg, Board: &board, Clk: &mach.Clock{},
					MaxCycles: 10_000_000,
				}
			}
			var wantV, wantO runObs
			for i, c := range fastPathConfigs {
				restore := c.set()
				res, err := run.VanillaWith(newInst(vm, core.Config{}), run.Options{})
				v := observeRun(t, res, err, vm)
				res, err = run.OPECWith(newInst(om, cfg), b, run.Options{})
				o := observeRun(t, res, err, om)
				restore()
				if i == 0 {
					wantV, wantO = v, o
					elided += o.elided
					continue
				}
				compareObs(t, "vanilla/"+c.name, wantV, v)
				compareObs(t, "opec/"+c.name, wantO, o)
			}
		})
	}
	if elided == 0 {
		t.Fatal("no OPEC run elided a certified access; the proof fast path went unexercised")
	}
}
