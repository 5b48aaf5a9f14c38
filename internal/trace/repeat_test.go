package trace

import (
	"fmt"
	"testing"
)

// repeatWindow is one loop iteration's events: a call into an accessor,
// a branch and the return, spread over delta cycles.
func repeatWindow(b *Buffer, base uint64) []Event {
	fn, caller := b.Intern("IsReady"), b.Intern("Wait")
	return []Event{
		{Cycle: base + 1, Kind: EvBranch, Op: -1, Arg: caller, Arg2: 1},
		{Cycle: base + 3, Kind: EvCall, Op: -1, Arg: fn, Arg2: caller},
		{Cycle: base + 9, Kind: EvCallRet, Op: -1, Arg: fn},
	}
}

// repeatState is what Repeat must reproduce.
func repeatState(b *Buffer, p *Profiler) string {
	return fmt.Sprintf("%s|emitted=%d dropped=%d last=%d regress=%d|%s",
		b.RenderText(), b.Emitted(), b.Dropped(), b.lastCycle, b.CycleRegressions(),
		p.Finish(b.lastCycle+1).Render())
}

// TestRepeatMatchesPerEventEmits checks Buffer.Repeat against k
// per-event Emits of the shifted window, with k*n below, at and above
// the ring capacity, and with a profiler attached that either absorbs
// the window (call/branch only) or must replay it (a phase span inside).
func TestRepeatMatchesPerEventEmits(t *testing.T) {
	const capacity, delta = 12, 10
	for _, phase := range []bool{false, true} {
		for _, k := range []uint64{1, 3, 4, 5, 40} { // k*n: 3..120 vs capacity 12
			t.Run(fmt.Sprintf("phase=%v/k=%d", phase, k), func(t *testing.T) {
				run := func(bulk bool) string {
					b := NewBuffer(capacity)
					p := NewProfiler(b)
					b.Emit(Event{Cycle: 0, Kind: EvOpActivate, Op: 0, Arg: b.Intern("op")})
					win := repeatWindow(b, 100)
					if phase {
						win = append(win, Event{Cycle: 110, Dur: 4, Kind: EvPhase, Op: -1, Arg: uint32(PhaseSync)})
					}
					for _, e := range win {
						b.Emit(e)
					}
					if bulk {
						if !b.Repeat(uint64(len(win)), k, delta) {
							t.Fatal("Repeat declined")
						}
					} else {
						for j := uint64(1); j <= k; j++ {
							for _, e := range win {
								e.Cycle += j * delta
								b.Emit(e)
							}
						}
					}
					return repeatState(b, p)
				}
				if want, got := run(false), run(true); want != got {
					t.Errorf("Repeat diverges from per-event emits:\n--- emits ---\n%s\n--- repeat ---\n%s", want, got)
				}
			})
		}
	}
}

// TestRepeatDeclines checks the cases Repeat must refuse without
// touching the buffer: a window larger than the ring, a sink that is
// not repeat-aware, and repetitions that would regress the stream.
func TestRepeatDeclines(t *testing.T) {
	fill := func(capacity int) *Buffer {
		b := NewBuffer(capacity)
		for _, e := range repeatWindow(b, 0) {
			b.Emit(e)
		}
		return b
	}
	check := func(name string, b *Buffer, n, delta uint64) {
		t.Helper()
		before := b.RenderText()
		emitted := b.Emitted()
		if b.Repeat(n, 5, delta) {
			t.Errorf("%s: Repeat accepted", name)
		}
		if b.RenderText() != before || b.Emitted() != emitted {
			t.Errorf("%s: declined Repeat changed the buffer", name)
		}
	}
	check("window larger than ring", fill(2), 3, 10)
	check("window larger than stream", fill(8), 4, 10)
	plain := fill(8)
	plain.Attach(counter{})
	check("plain sink", plain, 3, 10)
	check("overlapping repetitions", fill(8), 3, 4) // window spans 8 cycles
}

type counter struct{}

func (counter) HandleEvent(Event) {}

// TestRepeatZeroAllocs pins the steady state: once the scratch window
// has grown, a repeat allocates nothing.
func TestRepeatZeroAllocs(t *testing.T) {
	b := NewBuffer(16)
	NewProfiler(b)
	for _, e := range repeatWindow(b, 0) {
		b.Emit(e)
	}
	b.Repeat(3, 1, 10)
	if n := testing.AllocsPerRun(100, func() { b.Repeat(3, 7, 10) }); n != 0 {
		t.Errorf("Repeat allocates %v per call, want 0", n)
	}
}
