package mach

import (
	"errors"
	"fmt"

	"opec/internal/ir"
)

// This file implements call-entry checkpoints: a mid-run capture that
// can be resumed. Activation records live on the host stack (call,
// dispatchCall and svcCall recurse), so a Snapshot must be quiescent.
// A Checkpoint instead records the live activation chain as data —
// every pooled frame plus, for each frame but the innermost, the block
// and index of its in-flight call and what that call still owes the
// caller — and Run re-enters the chain after ResumeAt without
// re-executing anything: each level rebuilds its frame, resumes the
// call below it, then runs the in-flight call's epilogue (OnReturn,
// or the SVC's restart loop and exit gate) and continues after the
// call instruction. Only the innermost level starts from scratch: it
// was captured at its own entry, before its first instruction.
//
// A checkpoint is legal only inside the Fire hook of an entry-count
// injection (Injection.Func set), before the hook perturbs anything —
// the point an inject trial would arm its perturbation at. It is
// refused inside an IRQ handler (ErrCheckpointInIRQ): the handler's
// activation was entered from a block-boundary tick, not from a call
// instruction, so there is no call site to resume.
//
// The resume is exact: the rest of the run — cycles, instruction
// counts, faults, recovery, the final state — matches the run the
// checkpoint was taken from, continued with the same injection. What
// differs are host-side caches: the micro-TLB and the bus's
// last-device cache restart cold (their hit and miss tallies and the
// frame-reuse tally can differ), exactly as after a Restore. A resumed
// run carries no trace of its prefix, so traced runs do not resume.

// ErrCheckpointInIRQ reports a checkpoint request inside an IRQ
// handler.
var ErrCheckpointInIRQ = errors.New("mach: checkpoint inside an IRQ handler")

// Checkpoint is a resumable mid-run capture taken at a call-entry
// injection trigger. It holds everything a Snapshot holds except the
// content hash, plus the activation chain. Like a Snapshot it is
// immutable and shares memory pages copy-on-write; it resumes only on
// the machine it was taken from, or one booted identically.
type Checkpoint struct {
	snap   Snapshot
	frames []frameRec
}

// frameRec is one activation of the chain, outermost first.
type frameRec struct {
	fn      *ir.Function
	regs    []uint32
	args    [4]uint32
	nargs   int
	argBase uint32
	savedSP uint32 // SP at the call's entry, restored at its return
	ff      ffState

	// The in-flight call (all but the innermost frame): the call
	// instruction and its place, and for an SVC the caller's privilege
	// and the body's arguments after SvcEnter.
	site    *ir.Instr
	blk     *ir.Block
	idx     int
	svcPriv bool
	svcArgs []uint32
}

// Cycles returns the clock value the checkpoint was taken at.
func (c *Checkpoint) Cycles() uint64 { return c.snap.cycles }

// Checkpoint captures the machine inside an entry-trigger Fire hook.
func (m *Machine) Checkpoint() (*Checkpoint, error) {
	if m.inIRQ {
		return nil, ErrCheckpointInIRQ
	}
	if m.trigDepth == 0 || m.depth != m.trigDepth {
		return nil, fmt.Errorf("mach: checkpoint outside a call-entry injection trigger")
	}
	c := &Checkpoint{frames: make([]frameRec, m.depth)}
	for d := range c.frames {
		fr := m.frames[d]
		rec := &c.frames[d]
		rec.fn = fr.fn
		rec.regs = append([]uint32(nil), fr.regs...)
		rec.args, rec.nargs, rec.argBase = fr.args, fr.nargs, fr.argBase
		rec.savedSP = fr.argBase
		if fr.nargs > 4 {
			rec.savedSP += 4 * uint32(fr.nargs-4)
		}
		if d == len(c.frames)-1 {
			break // the trigger's own activation: nothing in flight
		}
		if err := rec.recordSite(fr, m.frames[d+1].fn); err != nil {
			return nil, err
		}
		rec.ff = fr.ff
		rec.ff.regs = append([]uint32(nil), fr.ff.regs...)
	}
	m.capture(&c.snap)
	return c, nil
}

// recordSite records fr's in-flight call into callee.
func (rec *frameRec) recordSite(fr *frame, callee *ir.Function) error {
	in := fr.site
	if in == nil || in.Block() == nil || in.Block().Func() != fr.fn {
		return fmt.Errorf("mach: checkpoint: %s has no call in flight", fr.fn.Name)
	}
	switch {
	case in.Op == ir.OpICall, in.Op == ir.OpCall && in.Fn == callee:
	case in.Op == ir.OpSvc && in.Fn == callee:
		rec.svcPriv = fr.svcPriv
		rec.svcArgs = append([]uint32(nil), fr.svcArgs...)
	default:
		return fmt.Errorf("mach: checkpoint: %s's latest call does not enter %s", fr.fn.Name, callee.Name)
	}
	rec.site, rec.blk, rec.idx = in, in.Block(), -1
	for i, x := range rec.blk.Instrs {
		if x == in {
			rec.idx = i
		}
	}
	if rec.idx < 0 {
		return fmt.Errorf("mach: checkpoint: call site of %s not in its block", fr.fn.Name)
	}
	return nil
}

// load rebuilds the pooled frame fr from the record, reusing its
// buffers: the record stays immutable however often it resumes.
func (rec *frameRec) load(fr *frame) {
	fr.fn = rec.fn
	fr.regs = append(fr.regs[:0], rec.regs...)
	fr.args, fr.nargs, fr.argBase = rec.args, rec.nargs, rec.argBase
	ffRegs := fr.ff.regs
	fr.ff = rec.ff
	fr.ff.regs = append(ffRegs[:0], rec.ff.regs...)
	fr.site, fr.svcPriv, fr.svcArgs = rec.site, rec.svcPriv, rec.svcArgs
}

// ResumeAt rewinds the machine to the checkpoint, like Restore, and
// makes the next Run re-enter its activation chain. An injection armed
// after ResumeAt on the checkpoint's trigger function fires at once, as
// it would have on reaching that entry; with none armed the run
// continues unperturbed.
func (m *Machine) ResumeAt(c *Checkpoint) error {
	// The restore's effect bump leaves every loop head the chain's
	// activations armed stale, as the trigger's own effect did in the
	// run the checkpoint came from: each re-arms at its next visit.
	if err := m.restore(&c.snap); err != nil {
		return err
	}
	m.pending = c
	return nil
}

// resumeCall re-enters chain level lvl: the counterpart of call for an
// activation already established when the checkpoint was taken.
func (m *Machine) resumeCall(c *Checkpoint, lvl int) (uint32, error) {
	m.depth++
	defer func() { m.depth-- }()
	rec := &c.frames[lvl]
	fr := m.frameAt(m.depth)
	rec.load(fr)
	fm := m.metaFor(fr.fn)
	localBase := fr.argBase - fm.localBytes

	var ret uint32
	var err error
	if lvl+1 < len(c.frames) {
		ret, err = m.resumeSite(c, lvl, fr, fm, localBase)
	} else {
		if inj := m.inj; inj != nil {
			if inj.Func != fr.fn {
				m.SP = rec.savedSP
				return 0, fmt.Errorf("mach: resume at %s with an injection armed on another trigger", fr.fn.Name)
			}
			if err := m.fire(inj); err != nil {
				m.SP = rec.savedSP
				return 0, m.locate(fr, fm, err)
			}
		}
		ret, err = m.exec(fr, localBase, fm, fr.fn.Entry(), 0)
	}
	m.SP = rec.savedSP
	m.Clock.Advance(CostRet)
	return ret, err
}

// resumeSite finishes fr's in-flight call — the callee is chain level
// lvl+1 — with the epilogue its kind owes, then continues fr after the
// call instruction, as step and exec would have.
func (m *Machine) resumeSite(c *Checkpoint, lvl int, fr *frame, fm *funcMeta, localBase uint32) (uint32, error) {
	rec := &c.frames[lvl]
	callee := c.frames[lvl+1].fn
	ret, err := m.resumeCall(c, lvl+1)
	if rec.site.Op == ir.OpSvc {
		ret, err = m.svcFinish(callee, rec.svcArgs, rec.svcPriv, ret, err)
	} else {
		ret, err = m.callReturn(fr.fn, callee, ret, err)
	}
	if err != nil {
		return 0, m.locate(fr, fm, err)
	}
	fr.regs[rec.site.ID()] = ret
	return m.exec(fr, localBase, fm, rec.blk, rec.idx+1)
}
