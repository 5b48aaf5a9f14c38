package mach

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Mid-run state frames. Snapshot() demands a quiescent machine because
// activation records live on the host stack, and the one resumable
// mid-run capture, Checkpoint (checkpoint.go), is legal only at a
// call-entry injection trigger. A StateFrame makes the weaker — and
// anywhere mid-run safe — capture the time-travel debugger's keyframe
// checkpointer needs: an immutable copy-on-write image of the architected state
// (memory pages, devices, protection unit, CPU scalars) taken at any
// point, including deep inside an activation. It cannot restart
// execution; it anchors deterministic re-execution instead. Seeking to
// a cycle replays the run from its boot checkpoint and verifies, when
// it reaches the keyframe's stream position, that StateDigest matches
// the frame — proving the replayed machine passed through exactly the
// captured state.

// StateFrame is one mid-run capture. Pages are shared copy-on-write
// with the live run (snapshotPages), so capture cost is O(page count)
// pointer copies and holding a frame costs only subsequently-dirtied
// pages.
type StateFrame struct {
	Cycle      uint64
	SP         uint32
	Privileged bool

	digest                string
	flashPages, sramPages [][]byte
}

// CaptureState takes a mid-run state frame. Unlike Snapshot it has no
// quiescence requirement; it is transparent to execution (the page
// freeze affects copy-on-write ownership, never contents or cycles).
func (m *Machine) CaptureState() *StateFrame {
	f := &StateFrame{
		Cycle:      m.Clock.Now(),
		SP:         m.SP,
		Privileged: m.Privileged,
		digest:     m.StateDigest(),
		flashPages: m.Bus.flash.snapshotPages(),
		sramPages:  m.Bus.sram.snapshotPages(),
	}
	return f
}

// Digest returns the frame's content hash (see StateDigest).
func (f *StateFrame) Digest() string { return f.digest }

// Release drops the frame's page references — the checkpointer's
// eviction hook. Evicting promptly matters: a held frame pins every
// page the live run has dirtied since capture.
func (f *StateFrame) Release() { f.flashPages, f.sramPages = nil, nil }

// StateDigest hashes the machine's live architected state — CPU
// scalars, cycle clock, protection unit, memory contents, stateful
// devices — without capturing anything. Two deterministic runs of the
// same program digest identically at the same event-stream position;
// the debugger's seek verification is exactly that comparison.
func (m *Machine) StateDigest() string {
	h := sha256.New()
	b := m.Bus
	fmt.Fprintf(h, "cpu %v %v %v %v %v %v %v\n",
		b.Clock.Now(), m.SP, m.StackTop, m.StackLimit, m.Privileged, m.Halted, m.InstrCount)
	fmt.Fprintf(h, "mpu %v %v\n", b.MPU.Enabled, b.MPU.Regions)
	if p, ok := b.Prot.(*PMP); ok {
		fmt.Fprintf(h, "pmp %v %v\n", p.Enabled, p.Entries)
	}
	hashPages(h, "flash", b.flash.pages)
	hashPages(h, "sram", b.sram.pages)
	for _, d := range b.devices {
		if sd, ok := d.(Stateful); ok {
			fmt.Fprintf(h, "dev %s %#08x ", d.Name(), d.Base())
			h.Write(sd.SaveState())
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
