package mach

import "os"

// This file implements the MPU micro-TLB: a small direct-mapped cache
// in front of the PMSAv7 matching loop. Real MPU hardware resolves the
// region match combinationally; the simulator used to pay a linear
// 8-region scan (with sub-region decoding) on every fetch, load and
// store. The micro-TLB memoizes the adjudication per 32-byte-aligned
// address block — the finest granule at which a PMSAv7 decision can
// change: region bases and ends are aligned to the region size (>= 32
// bytes), and sub-region disables only apply at >= 32-byte granules
// (SRD is ignored below 256-byte regions).
//
// Transparency invariant: the TLB may change wall-clock time only.
// Architected behavior — which accesses fault, in what order, cycle
// accounting, rendered experiment tables — is byte-identical with the
// cache disabled (see DisableCaches / OPEC_MACH_NOCACHE).
//
// Invalidation is a generation counter: every region write (SetRegion,
// ClearRegion, RestoreRegions) and every Enabled change bumps gen, and
// an entry is live only while its recorded generation matches. This
// makes OPEC's per-operation-switch MPU reconfiguration O(1) for the
// cache: no flush loop, stale entries simply stop matching.

// DisableCaches disables the simulator's transparent accelerators — the
// MPU micro-TLB, the bus's last-device cache and the fast-forward of
// identical device-wait iterations (ff.go) — for buses and MPUs created
// afterwards; each bus latches the setting at NewBus. It is initialised
// from the OPEC_MACH_NOCACHE environment variable; the differential
// transparency tests also toggle it directly to prove runs are
// value-identical either way.
var DisableCaches = os.Getenv("OPEC_MACH_NOCACHE") != ""

const (
	tlbBits = 8
	tlbSize = 1 << tlbBits // direct-mapped entries, 32 bytes of address space each
)

// tlbEntry caches the adjudication for one 32-byte block: either the
// winning region's permission, or "background map" (bg), in which case
// the PRIVDEFENA rule applies (privileged allowed, unprivileged faults).
// tag stores block+1 so the zero value never matches block 0.
type tlbEntry struct {
	gen  uint64
	tag  uint32
	perm AP
	bg   bool
}

// lookup returns the cached adjudication for addr, filling the entry
// from the architectural matching loop on a miss. Only called while the
// MPU is enabled.
func (m *MPU) lookup(addr uint32) *tlbEntry {
	block := addr >> MinRegionSizeLog2
	e := &m.tlb[block&(tlbSize-1)]
	if e.tag != block+1 || e.gen != m.gen {
		m.tlbMisses++
		e.tag = block + 1
		e.gen = m.gen
		if i := m.regionScan(addr); i >= 0 {
			e.bg = false
			e.perm = m.Regions[i].Perm
		} else {
			e.bg = true
		}
	} else {
		m.tlbHits++
	}
	return e
}

// Invalidate drops every micro-TLB entry. Region and enable mutations
// call it internally; it is exported for callers that mutate Regions
// directly (tests).
func (m *MPU) Invalidate() { m.invalidate() }

// flush erases every entry outright. Generation bumps make this
// unnecessary in normal operation; snapshot restore needs it because it
// rewinds the generation counter, which would otherwise revalidate
// entries tagged by the epochs being rewound over.
func (m *MPU) flush() { m.tlb = [tlbSize]tlbEntry{} }
