package mach

import "opec/internal/ir"

// This file implements exact fast-forward of device-wait loops. Six of
// the seven workloads spend 72-99% of their simulated cycles spinning
// on a cycle-scheduled ready flag; every spin iteration repeats the
// previous one exactly. The interpreter recognises such an iteration
// dynamically and jumps over k of them in O(1), leaving the machine in
// the state stepwise execution would reach: the clock, the instruction
// count, every counter, the trace ring and every trace sink.
//
// Detection. A branch to a block whose index is not above the current
// one arms that block as a loop head (per activation, state kept in the
// pooled frame). The window between two consecutive visits to the head
// is an identical iteration when
//   - the bus effect counter did not move (no store of any kind, no
//     impure device load, no PPB access, no SVC, fault, IRQ, halt or
//     injection bookkeeping happened; see Bus.effects),
//   - the MPU generation did not move (an ACES compartment switch
//     reprograms the MPU), and
//   - the frame registers, SP and privilege equal their values at the
//     previous visit.
//
// Architected state at the head and constant device reads make every
// further iteration execute the same path. Host-side caches (micro-TLB,
// last-device cache, frame pool) only reach their periodic state after
// one iteration, so the skip waits for two consecutive identical windows
// and takes its per-iteration deltas from the second.
//
// Bounds. k is the largest count such that the skipped iterations end
//   - no later than the earliest device change (Pollable.NextChange,
//     evaluated at the start of the first of the two windows),
//   - no later than MaxCycles, so every skipped block-boundary tick
//     passes and ErrCycleLimit fires at the identical cycle, and
//   - no later than an armed instruction-count injection's At.
//
// The skip is declined while IRQs are bound, and, on a traced machine
// whose window emitted events, when they do not fit the ring or an
// attached sink is not repeat-aware (trace.RepeatHandler).
// DisableCaches turns the whole mechanism off; the flag is latched per
// bus at NewBus.

// Pollable is the optional device contract fast-forward relies on. A
// device that does not implement it makes every load from it impure.
type Pollable interface {
	Device
	// PureLoad reports whether reading the register at off has no side
	// effect.
	PureLoad(off uint32) bool
	// NextChange returns a cycle c > now such that, absent stores, every
	// pure register reads the same value on [now, c). ^uint64(0) means
	// never.
	NextChange(now uint64) uint64
}

// Never is the NextChange answer of a device whose pure registers only
// change on stores.
const Never = ^uint64(0)

// devLoad reads a device register, counting impure reads as effects.
func (b *Bus) devLoad(d Device, off uint32, size int) uint32 {
	if p, ok := d.(Pollable); !ok || !p.PureLoad(off) {
		b.effects++
	}
	return d.Load(off, size)
}

// nextChange is the earliest NextChange over the attached devices.
func (b *Bus) nextChange(now uint64) uint64 {
	next := Never
	for _, d := range b.devices {
		if p, ok := d.(Pollable); ok {
			if c := p.NextChange(now); c < next {
				next = c
			}
		}
	}
	return next
}

// ffMark is the machine's counter state at one loop-head visit.
type ffMark struct {
	cycle, instrs               uint64
	elided, checked, reuse      uint64
	devHits, tlbHits, tlbMisses uint64
	events                      uint64
}

func (m *Machine) ffMark() ffMark {
	b := m.Bus
	return ffMark{
		cycle: m.Clock.Now(), instrs: m.InstrCount,
		elided: m.proofElided, checked: m.proofChecked, reuse: m.frameReuse,
		devHits: b.devCacheHits, tlbHits: b.MPU.tlbHits, tlbMisses: b.MPU.tlbMisses,
		events: m.Trace.Emitted(),
	}
}

// ffState is one activation's loop-head tracker.
type ffState struct {
	head    *ir.Block
	effects uint64
	gen     uint64

	// streak counts consecutive visits whose registers matched the
	// capture: 0 armed (nothing captured), 1 captured, >= 2 identical
	// windows behind the current visit.
	streak int
	sp     uint32
	priv   bool
	regs   []uint32

	// first is the cycle of the visit opening the older of the two
	// windows; last is the counter state at the previous visit.
	first uint64
	last  ffMark
}

// rearm runs at every backward branch to head. When the window since
// the previous visit cannot be an identical iteration (another head, an
// effect, an MPU change) it re-arms the tracker at head and reports
// true; otherwise the caller continues with ffVisit. Kept small enough
// to inline: compute loops store on every iteration and end here.
func (s *ffState) rearm(head *ir.Block, b *Bus) bool {
	if head == s.head && b.effects == s.effects && b.MPU.gen == s.gen {
		return false
	}
	s.head, s.effects, s.gen, s.streak = head, b.effects, b.MPU.gen, 0
	return true
}

// ffVisit runs at a backward branch to the armed head after an
// effect-free window. It returns after possibly advancing the machine
// over k identical iterations; the caller then enters head as usual.
func (m *Machine) ffVisit(fr *frame) {
	s := &fr.ff
	if s.streak == 0 || m.SP != s.sp || m.Privileged != s.priv || !equalRegs(fr.regs, s.regs) {
		s.sp, s.priv = m.SP, m.Privileged
		s.regs = append(s.regs[:0], fr.regs...)
		s.streak = 1
		s.last = m.ffMark()
		return
	}
	s.streak++
	now := m.ffMark()
	if s.streak >= 3 {
		if m.ffSkip(s, &now) {
			now = m.ffMark()
		} else {
			m.ffDeclined++
		}
		// Either way the next attempt needs two fresh windows.
		s.streak = 1
	}
	s.first = s.last.cycle
	s.last = now
}

// ffSkip jumps over k iterations of the window (s.last, now], or
// reports false and changes nothing.
func (m *Machine) ffSkip(s *ffState, now *ffMark) bool {
	b := m.Bus
	dc, di := now.cycle-s.last.cycle, now.instrs-s.last.instrs
	if len(m.irqs) > 0 || dc == 0 || di == 0 {
		return false
	}
	k := uint64(0)
	if m.MaxCycles > now.cycle {
		k = (m.MaxCycles - now.cycle) / dc
	}
	if c := b.nextChange(s.first); c <= now.cycle {
		k = 0
	} else if kc := (c - now.cycle) / dc; kc < k {
		k = kc
	}
	if inj := m.inj; inj != nil && inj.Func == nil {
		if inj.At <= now.instrs {
			k = 0
		} else if ki := (inj.At - now.instrs) / di; ki < k {
			k = ki
		}
	}
	if k == 0 {
		return false
	}
	if m.Trace != nil && !m.Trace.Repeat(now.events-s.last.events, k, dc) {
		return false
	}
	m.Clock.Advance(k * dc)
	m.InstrCount += k * di
	m.proofElided += k * (now.elided - s.last.elided)
	m.proofChecked += k * (now.checked - s.last.checked)
	m.frameReuse += k * (now.reuse - s.last.reuse)
	b.devCacheHits += k * (now.devHits - s.last.devHits)
	b.MPU.tlbHits += k * (now.tlbHits - s.last.tlbHits)
	b.MPU.tlbMisses += k * (now.tlbMisses - s.last.tlbMisses)
	m.ffSkips++
	m.ffSkippedInstrs += k * di
	m.ffSkippedCycles += k * dc
	return true
}

func equalRegs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
