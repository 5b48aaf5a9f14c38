package mach

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
)

// This file implements machine checkpointing: an explicit Snapshot()
// over everything architected — CPU registers and stack bounds, the
// cycle clock, Flash/SRAM contents (shared copy-on-write with the live
// run, pagedmem.go), MPU regions and enable (or PMP entries), the
// installed proof-certificate table, and device state — plus the
// Restore() that rewinds a machine to it. Injection campaigns boot each
// (app, scheme) once, checkpoint at the pre-injection point, and fork
// every trial from the snapshot by restoring it on the booted machine
// (a worker that needs a second machine boots its own); the
// correctness bar is that a forked trial is byte-identical to a
// power-on boot, verdicts and cycle counts included.
//
// What is deliberately NOT captured:
//   - MaxCycles: a run-budget knob, not machine state; callers reset it
//     per trial (run.Options.MaxCycles).
//   - Trace attachments: snapshots are taken untraced; Restore detaches
//     any buffer so the caller re-attaches per trial.
//   - The armed Injection: Restore disarms; each trial arms its own.
//   - Watch hooks (watch.go): like traces, observers are per-run
//     attachments; Restore clears both the store and raw watches.
//   - Handlers/GlobalAddr: runtime wiring owned by the scheme runtime,
//     unchanged by execution and so shared by reference.

// Stateful is implemented by device models whose register-file state
// mutates during a run. Snapshot captures SaveState() for every
// Stateful device; devices that do not implement it are assumed
// stateless (pure functions of the clock and their configuration) and
// are skipped with no record.
type Stateful interface {
	Device
	// SaveState serializes all mutable state. The returned buffer is
	// private to the caller.
	SaveState() []byte
	// LoadState restores a SaveState buffer. The buffer must be treated
	// as read-only: a snapshot restores any number of times.
	LoadState(data []byte) error
}

// devState is one device's captured state. data is nil for devices
// that are not Stateful.
type devState struct {
	name string
	base uint32
	data []byte
}

// Snapshot is an immutable machine checkpoint. It shares memory pages
// copy-on-write with the machine it was taken from, so taking one is
// O(page count) pointer copies and holding one costs only the pages
// the live run subsequently dirties.
type Snapshot struct {
	id string

	cycles     uint64
	dwtEnabled bool

	privileged             bool
	sp, stackTop, stackLim uint32
	halted                 bool

	instrCount, switchCount, frameReuse uint64
	proofElided, proofChecked           uint64
	devCacheHits                        uint64
	ffSkips, ffSkippedInstrs            uint64
	ffSkippedCycles, ffDeclined         uint64
	tlbHits, tlbMisses, tlbInvals       uint64
	tlbGen                              uint64

	flashPages, sramPages [][]byte

	mpuEnabled   bool
	mpuRegions   [NumRegions]Region
	mpuReconfigs uint64

	hasPMP     bool
	pmpEnabled bool
	pmpEntries [NumPMPEntries]PMPEntry

	// certs[i] is metaByIdx[i]'s certificate row at capture time. Inner
	// slices are never mutated after InstallProofs, so they are shared.
	certs [][]byte

	devs []devState
}

// ID is a content hash of the captured architected state (memory,
// CPU, protection unit, certificates, devices — not the transparent
// cache and fast-forward counters). Two snapshots of identical machine
// states hash identically, which is what makes `snapshot id + spec` a
// complete replay coordinate.
func (s *Snapshot) ID() string { return s.id }

// Snapshot checkpoints the machine. The machine must be quiescent — at
// call depth zero and outside any IRQ — because activation records
// live in host memory, not simulated SRAM; the campaign checkpoint
// point (booted, armed-nothing, about to run) satisfies this.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if m.depth != 0 {
		return nil, fmt.Errorf("mach: snapshot at call depth %d: machine must be quiescent", m.depth)
	}
	if m.inIRQ {
		return nil, fmt.Errorf("mach: snapshot inside IRQ handler: machine must be quiescent")
	}
	b := m.Bus
	s := &Snapshot{
		cycles:       m.Clock.Now(),
		dwtEnabled:   b.dwtEnabled,
		privileged:   m.Privileged,
		sp:           m.SP,
		stackTop:     m.StackTop,
		stackLim:     m.StackLimit,
		halted:       m.Halted,
		instrCount:   m.InstrCount,
		switchCount:  m.SwitchCount,
		frameReuse:   m.frameReuse,
		proofElided:  m.proofElided,
		proofChecked: m.proofChecked,
		devCacheHits: b.devCacheHits,
		tlbHits:      b.MPU.tlbHits,
		tlbMisses:    b.MPU.tlbMisses,
		tlbInvals:    b.MPU.tlbInvals,
		tlbGen:       b.MPU.gen,
		flashPages:   b.flash.snapshotPages(),
		sramPages:    b.sram.snapshotPages(),
		mpuEnabled:   b.MPU.Enabled,
		mpuRegions:   b.MPU.Regions,
		mpuReconfigs: b.MPU.reconfigs,
		certs:        make([][]byte, len(m.metaByIdx)),
	}
	s.ffSkips, s.ffSkippedInstrs = m.ffSkips, m.ffSkippedInstrs
	s.ffSkippedCycles, s.ffDeclined = m.ffSkippedCycles, m.ffDeclined
	for i := range m.metaByIdx {
		s.certs[i] = m.metaByIdx[i].certs
	}
	if p, ok := b.Prot.(*PMP); ok {
		s.hasPMP = true
		s.pmpEnabled = p.Enabled
		s.pmpEntries = p.Entries
	}
	for _, d := range b.devices {
		ds := devState{name: d.Name(), base: d.Base()}
		if sd, ok := d.(Stateful); ok {
			ds.data = sd.SaveState()
		}
		s.devs = append(s.devs, ds)
	}
	s.id = s.hashID()
	return s, nil
}

// hashID computes the snapshot's content identity.
func (s *Snapshot) hashID() string {
	h := sha256.New()
	fmt.Fprintf(h, "cpu %v %v %v %v %v %v %v\n",
		s.cycles, s.privileged, s.sp, s.stackTop, s.stackLim, s.halted, s.dwtEnabled)
	fmt.Fprintf(h, "mpu %v %v\n", s.mpuEnabled, s.mpuRegions)
	if s.hasPMP {
		fmt.Fprintf(h, "pmp %v %v\n", s.pmpEnabled, s.pmpEntries)
	}
	for i, c := range s.certs {
		if len(c) != 0 {
			fmt.Fprintf(h, "cert %d ", i)
			h.Write(c)
		}
	}
	hashPages(h, "flash", s.flashPages)
	hashPages(h, "sram", s.sramPages)
	for _, d := range s.devs {
		fmt.Fprintf(h, "dev %s %#08x ", d.name, d.base)
		h.Write(d.data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func hashPages(h hash.Hash, label string, pages [][]byte) {
	fmt.Fprintf(h, "%s %d\n", label, len(pages))
	for _, p := range pages {
		h.Write(p)
	}
}

// Restore rewinds the machine to the snapshot. Only memory pages that
// diverged since the checkpoint are swapped, so a short trial restores
// in microseconds. The protection-unit restore writes MPU.Regions and
// Enabled directly, so it must — and does — bump the micro-TLB
// generation and reset the bus's last-device cache: a warm TLB serving
// the pre-restore region plan would otherwise adjudicate stale
// permissions (the restore-path cache bug this PR fixes). Trace
// buffers are detached and any armed injection disarmed; the caller
// re-attaches and re-arms per trial.
func (m *Machine) Restore(s *Snapshot) error {
	b := m.Bus
	if len(s.flashPages) != len(b.flash.pages) || len(s.sramPages) != len(b.sram.pages) {
		return fmt.Errorf("mach: restore: snapshot is for a different memory geometry")
	}
	if s.hasPMP {
		if _, ok := b.Prot.(*PMP); !ok {
			return fmt.Errorf("mach: restore: snapshot carries PMP state but the bus protection unit is not a PMP")
		}
	}
	if len(s.devs) != len(b.devices) {
		return fmt.Errorf("mach: restore: snapshot has %d devices, bus has %d", len(s.devs), len(b.devices))
	}
	for i, d := range b.devices {
		ds := s.devs[i]
		if d.Name() != ds.name || d.Base() != ds.base {
			return fmt.Errorf("mach: restore: device %d is %s@%#08x, snapshot expects %s@%#08x",
				i, d.Name(), d.Base(), ds.name, ds.base)
		}
		if ds.data == nil {
			continue
		}
		sd, ok := d.(Stateful)
		if !ok {
			return fmt.Errorf("mach: restore: device %s@%#08x lost its Stateful implementation", ds.name, ds.base)
		}
		if err := sd.LoadState(ds.data); err != nil {
			return fmt.Errorf("mach: restore device %s: %w", ds.name, err)
		}
	}

	b.flash.restorePages(s.flashPages)
	b.sram.restorePages(s.sramPages)
	b.effects++ // memory and devices rewound under any armed loop head
	b.dwtEnabled = s.dwtEnabled
	b.Clock.cycles = s.cycles

	m.Privileged = s.privileged
	m.SP = s.sp
	m.StackTop = s.stackTop
	m.StackLimit = s.stackLim
	m.Halted = s.halted
	m.InstrCount = s.instrCount
	m.SwitchCount = s.switchCount
	m.frameReuse = s.frameReuse
	m.proofElided = s.proofElided
	m.proofChecked = s.proofChecked
	m.depth = 0
	m.inIRQ = false
	m.inj = nil
	m.Trace = nil
	m.watch = nil
	b.rawWatch = nil

	// Protection unit. These are raw Regions/Enabled writes, so the
	// micro-TLB and the last-device cache are explicitly invalidated
	// (satellite bugfix: stale adjudications must not survive restore).
	b.MPU.Enabled = s.mpuEnabled
	b.MPU.Regions = s.mpuRegions
	b.MPU.lastEnabled = s.mpuEnabled
	b.MPU.reconfigs = s.mpuReconfigs
	b.MPU.Trace = nil
	// The generation counter is architecturally invisible but leaks into
	// the trace stream (tlb-inval gen=N), so a replay from the snapshot
	// must resume it exactly where the recorded run did. Rewinding it is
	// only safe together with a full entry flush: entries tagged with
	// later generations would otherwise match the rewound counter.
	b.MPU.gen = s.tlbGen
	b.MPU.flush()
	b.lastDev, b.lastBase, b.lastEnd = nil, 0, 0
	if s.hasPMP {
		p := b.Prot.(*PMP)
		p.Enabled = s.pmpEnabled
		p.Entries = s.pmpEntries
	}

	// Transparent cache counters roll back too so fork-trial counter
	// readings are absolute, not offsets from the previous trial.
	b.devCacheHits = s.devCacheHits
	m.ffSkips = s.ffSkips
	m.ffSkippedInstrs = s.ffSkippedInstrs
	m.ffSkippedCycles = s.ffSkippedCycles
	m.ffDeclined = s.ffDeclined
	b.MPU.tlbHits = s.tlbHits
	b.MPU.tlbMisses = s.tlbMisses
	b.MPU.tlbInvals = s.tlbInvals

	m.InstallProofs(s.certs)
	return nil
}
