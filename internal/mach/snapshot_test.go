package mach

import (
	"testing"

	"opec/internal/ir"
)

// sumModule builds a tiny module whose main accumulates into a global
// and halts — enough execution to dirty memory, the clock and stats.
func sumModule() *ir.Module {
	m := ir.NewModule("snap")
	g := m.AddGlobal(&ir.Global{Name: "acc", Typ: ir.I32})
	fb := ir.NewFunc(m, "main", "snap.c", ir.I32)
	acc := fb.Alloca(ir.I32)
	fb.Store(ir.I32, acc, ir.CI(0))
	for i := 1; i <= 4; i++ {
		v := fb.Load(ir.I32, acc)
		fb.Store(ir.I32, acc, fb.Add(v, ir.CI(uint32(i))))
	}
	fb.Store(ir.I32, g, fb.Load(ir.I32, acc))
	fb.Halt()
	fb.Ret(ir.CI(0))
	return m
}

// TestPagedMemCOW covers the copy-on-write page layer: snapshot shares
// pages, writes diverge privately, and restore rewinds only dirty
// pages.
func TestPagedMemCOW(t *testing.T) {
	pm := newPagedMem(3 * pageSize)
	pm.writeLE(0x10, 4, 0xAABBCCDD)
	pm.writeLE(pageSize-2, 4, 0x11223344) // page-straddling write
	if got := pm.readLE(pageSize-2, 4); got != 0x11223344 {
		t.Fatalf("straddle read = %#x, want 0x11223344", got)
	}

	snap := pm.snapshotPages()
	pm.writeLE(0x10, 4, 0xDEADBEEF)
	if got := pm.readLE(0x10, 4); got != 0xDEADBEEF {
		t.Fatalf("post-snapshot write not visible: %#x", got)
	}
	if got := readLE(snap[0][0x10:], 4); got != 0xAABBCCDD {
		t.Fatalf("snapshot page mutated by post-snapshot write: %#x", got)
	}

	dirty := pm.restorePages(snap)
	if dirty != 1 {
		t.Errorf("restore swapped %d pages, want 1 (only page 0 diverged)", dirty)
	}
	if got := pm.readLE(0x10, 4); got != 0xAABBCCDD {
		t.Errorf("restore did not rewind page 0: %#x", got)
	}
	if got := pm.readLE(pageSize-2, 4); got != 0x11223344 {
		t.Errorf("restore clobbered pre-snapshot data: %#x", got)
	}
}

// TestRestoreInvalidatesWarmTLB is the restore-path cache regression:
// Restore writes MPU.Regions/Enabled directly, which the micro-TLB's
// generation counter cannot see, so Restore must invalidate explicitly.
// A machine whose TLB was warmed with a permissive region plan is
// restored to a checkpoint with no regions; the next unprivileged
// access must fault exactly like a machine that never saw the
// permissive plan.
func TestRestoreInvalidatesWarmTLB(t *testing.T) {
	m := testMachine(t, sumModule())
	m.Bus.MPU.SetEnabled(true)
	addr := SRAMBase + 0x40

	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Warm the TLB under a permissive plan: the adjudication for addr's
	// block is cached at the current generation.
	m.Bus.MPU.MustSetRegion(0, Region{Enabled: true, Base: SRAMBase, SizeLog2: 10, Perm: APRW})
	if _, f := m.Bus.Load(addr, 4, false); f != nil {
		t.Fatalf("warm access should pass under APRW: %v", f)
	}

	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	_, f := m.Bus.Load(addr, 4, false)
	if f == nil || f.Kind != FaultMemManage {
		t.Errorf("warm-TLB machine after restore: unprivileged load got %v, want MemManage fault", f)
	}

	// Cold reference: identical checkpoint state, never warmed.
	cold := testMachine(t, sumModule())
	cold.Bus.MPU.SetEnabled(true)
	_, cf := cold.Bus.Load(addr, 4, false)
	if (cf == nil) != (f == nil) || (cf != nil && f != nil && cf.Kind != f.Kind) {
		t.Errorf("restored machine (%v) disagrees with cold machine (%v)", f, cf)
	}
}

// TestSnapshotRestoreExact replays a run from a checkpoint and demands
// bit-exact equality: same return value, same final cycle count, same
// instruction count, and a snapshot retaken after restore hashes to
// the same ID.
func TestSnapshotRestoreExact(t *testing.T) {
	m := testMachine(t, sumModule())
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	id := snap.ID()
	if id == "" {
		t.Fatal("empty snapshot id")
	}

	main := m.Mod.MustFunc("main")
	r1, err := m.Run(main)
	if err != nil {
		t.Fatal(err)
	}
	c1, i1 := m.Clock.Now(), m.InstrCount

	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	resnap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if resnap.ID() != id {
		t.Errorf("snapshot id drifted across restore: %s != %s", resnap.ID(), id)
	}
	// Re-snapshotting froze the pages again; restore once more to get a
	// runnable machine (exercises multi-generation restore).
	if err := m.Restore(resnap); err != nil {
		t.Fatal(err)
	}

	r2, err := m.Run(main)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r1 || m.Clock.Now() != c1 || m.InstrCount != i1 {
		t.Errorf("replay diverged: ret %d/%d cycles %d/%d instrs %d/%d",
			r1, r2, c1, m.Clock.Now(), i1, m.InstrCount)
	}
}

// TestSnapshotFastForwardCounters checks that the fast-forward tallies
// roll back with a restore, like the cache counters, yet stay out of
// the snapshot ID: they count host work, not machine state.
func TestSnapshotFastForwardCounters(t *testing.T) {
	m := testMachine(t, sumModule())
	m.ffSkips, m.ffSkippedInstrs, m.ffSkippedCycles, m.ffDeclined = 1, 2, 3, 4
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m.ffSkips, m.ffSkippedInstrs, m.ffSkippedCycles, m.ffDeclined = 10, 20, 30, 40
	again, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID() != again.ID() {
		t.Errorf("snapshot ID depends on fast-forward tallies: %s vs %s", snap.ID(), again.ID())
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if m.ffSkips != 1 || m.ffSkippedInstrs != 2 || m.ffSkippedCycles != 3 || m.ffDeclined != 4 {
		t.Errorf("restore left tallies at %d/%d/%d/%d, want 1/2/3/4",
			m.ffSkips, m.ffSkippedInstrs, m.ffSkippedCycles, m.ffDeclined)
	}
}
