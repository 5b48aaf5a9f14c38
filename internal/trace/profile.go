package trace

import (
	"fmt"
	"strings"
)

// Profiler folds the event stream into per-domain cycle attribution —
// wall cycles segmented by EvOpActivate, monitor cycles bucketed by
// EvPhase and exception-cost events. It is a streaming Handler
// (attach with Buffer.Attach before the run), so attribution is exact
// even when the ring wraps and drops events.
//
// Attribution model: the domain activated by the most recent
// EvOpActivate owns all cycles until the next activation. The monitor
// emits the entering operation's activation at the start of a gate
// switch-in and the resuming operation's activation at the end of a
// gate switch-out, so switch costs land in the operation that caused
// them. Monitor phase spans and SVC/fault exception entry/exit costs
// are subtracted from the owner's wall time to yield app cycles.
type Profiler struct {
	buf   *Buffer
	cur   int32
	last  uint64
	ops   map[int32]*OpProfile
	order []int32
}

// OpProfile is one domain's attribution row.
type OpProfile struct {
	Op          string // domain name
	ID          int32
	Activations uint64 // completed gate switch-ins (0 for the default op)
	WallCycles  uint64 // total cycles attributed to the domain
	// Monitor buckets (the Table 4 split).
	SwitchCycles   uint64 // exception entry/exit + fixed gate bookkeeping + protection programming
	SyncCycles     uint64 // shadow copies, reloc table, pointer redirects, stack relocation
	EmuCycles      uint64 // PPB emulation + peripheral virtualization + fault exception cost
	RecoveryCycles uint64 // restart/quarantine handling
	// IRQCycles is the exception entry/exit cost of IRQs delivered while
	// the domain ran. It is informational: vanilla runs pay it too, so it
	// counts as app time, not monitor overhead.
	IRQCycles uint64
	// Sanitization outcomes observed while the domain was entering.
	SanitizeChecks  uint64
	SanitizeRejects uint64
}

// MonitorCycles sums the monitor-overhead buckets.
func (p *OpProfile) MonitorCycles() uint64 {
	return p.SwitchCycles + p.SyncCycles + p.EmuCycles + p.RecoveryCycles
}

// AppCycles is the domain's wall time minus monitor overhead.
func (p *OpProfile) AppCycles() uint64 {
	m := p.MonitorCycles()
	if m > p.WallCycles {
		return 0
	}
	return p.WallCycles - m
}

// NewProfiler returns a profiler resolving names against buf and
// attaches itself to the bus.
func NewProfiler(buf *Buffer) *Profiler {
	p := &Profiler{buf: buf, cur: -1, ops: make(map[int32]*OpProfile)}
	buf.Attach(p)
	return p
}

func (p *Profiler) domain(id int32, nameID uint32) *OpProfile {
	if op, ok := p.ops[id]; ok {
		if op.Op == "?" && nameID != 0 {
			op.Op = p.buf.Name(nameID)
		}
		return op
	}
	op := &OpProfile{Op: p.buf.Name(nameID), ID: id}
	p.ops[id] = op
	p.order = append(p.order, id)
	return op
}

// HandleEvent implements Handler.
func (p *Profiler) HandleEvent(e Event) {
	switch e.Kind {
	case EvOpActivate:
		next := p.domain(e.Op, e.Arg)
		if p.cur >= 0 {
			p.ops[p.cur].WallCycles += e.Cycle - p.last
		}
		p.cur = next.ID
		p.last = e.Cycle
		return
	}
	if p.cur < 0 {
		return // before the first activation (boot)
	}
	cur := p.ops[p.cur]
	switch e.Kind {
	case EvExcEntry, EvExcReturn:
		switch e.Arg {
		case ExcSVC:
			cur.SwitchCycles += e.Dur
		case ExcFault:
			cur.EmuCycles += e.Dur
		case ExcIRQ:
			cur.IRQCycles += e.Dur
		}
	case EvPhase:
		switch Phase(e.Arg) {
		case PhaseSwitch:
			cur.SwitchCycles += e.Dur
		case PhaseSync:
			cur.SyncCycles += e.Dur
		case PhaseEmu:
			cur.EmuCycles += e.Dur
		case PhaseRecovery:
			cur.RecoveryCycles += e.Dur
		}
	case EvRecovery:
		cur.RecoveryCycles += e.Dur
	case EvGateEnter:
		cur.Activations++
	case EvSanitize:
		cur.SanitizeChecks++
		if e.Arg2 != 0 {
			cur.SanitizeRejects++
		}
	}
}

// HandleRepeat implements RepeatHandler. Call, return and branch
// events carry no attribution, so a window of only those is absorbed
// without work; any other window is replayed event by event.
func (p *Profiler) HandleRepeat(iter []Event, k, delta uint64) {
	for _, e := range iter {
		switch e.Kind {
		case EvCall, EvCallRet, EvBranch:
			continue
		}
		for j := uint64(1); j <= k; j++ {
			for _, e := range iter {
				e.Cycle += j * delta
				p.HandleEvent(e)
			}
		}
		return
	}
}

// Profile is the folded result.
type Profile struct {
	Ops        []OpProfile // first-activation order
	FinalCycle uint64
}

// Finish closes the open wall segment at finalCycle (the run's ending
// Clock.Now()) and returns the folded profile. The profiler can keep
// consuming events and be finished again later.
func (p *Profiler) Finish(finalCycle uint64) *Profile {
	out := &Profile{FinalCycle: finalCycle}
	for _, id := range p.order {
		op := *p.ops[id]
		if id == p.cur && finalCycle > p.last {
			op.WallCycles += finalCycle - p.last
		}
		out.Ops = append(out.Ops, op)
	}
	return out
}

// Totals sums every domain's row into one aggregate.
func (pr *Profile) Totals() OpProfile {
	t := OpProfile{Op: "TOTAL", ID: -1}
	for _, op := range pr.Ops {
		t.Activations += op.Activations
		t.WallCycles += op.WallCycles
		t.SwitchCycles += op.SwitchCycles
		t.SyncCycles += op.SyncCycles
		t.EmuCycles += op.EmuCycles
		t.RecoveryCycles += op.RecoveryCycles
		t.IRQCycles += op.IRQCycles
		t.SanitizeChecks += op.SanitizeChecks
		t.SanitizeRejects += op.SanitizeRejects
	}
	return t
}

// Render prints the attribution table (Table 4 analogue for one run).
func (pr *Profile) Render() string {
	var sb strings.Builder
	sb.WriteString("Profile: per-domain cycle attribution (app vs monitor switch/sync/emu/sanitize)\n")
	fmt.Fprintf(&sb, "%-16s %6s %12s %12s %10s %10s %8s %8s %6s %6s\n",
		"Domain", "Acts", "Wall", "App", "Switch", "Sync", "Emu", "Recov", "San", "SanRej")
	rows := append([]OpProfile(nil), pr.Ops...)
	rows = append(rows, pr.Totals())
	for i := range rows {
		op := &rows[i]
		fmt.Fprintf(&sb, "%-16s %6d %12d %12d %10d %10d %8d %8d %6d %6d\n",
			op.Op, op.Activations, op.WallCycles, op.AppCycles(),
			op.SwitchCycles, op.SyncCycles, op.EmuCycles, op.RecoveryCycles,
			op.SanitizeChecks, op.SanitizeRejects)
	}
	t := rows[len(rows)-1]
	if t.WallCycles > 0 {
		fmt.Fprintf(&sb, "monitor overhead: %.2f%% of %d wall cycles",
			100*float64(t.MonitorCycles())/float64(t.WallCycles), t.WallCycles)
		if t.Activations > 0 {
			fmt.Fprintf(&sb, "; switch cycles/activation: %.1f",
				float64(t.SwitchCycles)/float64(t.Activations))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
