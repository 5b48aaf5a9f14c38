package mach

import (
	"testing"

	"opec/internal/ir"
)

// refAllows is the executable PMSAv7 specification the micro-TLB is
// checked against: a plain scan of the eight regions, highest number
// first, with sub-region fall-through, and the privileged default map
// (PRIVDEFENA) when no region matches. It shares no code with mpu.go.
func refAllows(enabled bool, regs [NumRegions]Region, addr uint32, write, priv bool) bool {
	if !enabled {
		return true
	}
	for i := NumRegions - 1; i >= 0; i-- {
		r := regs[i]
		if !r.Enabled {
			continue
		}
		size := uint64(1) << r.SizeLog2
		if uint64(addr) < uint64(r.Base) || uint64(addr)-uint64(r.Base) >= size {
			continue
		}
		if sub := (uint64(addr) - uint64(r.Base)) / (size / 8); r.SizeLog2 >= 8 && r.SRD&(1<<sub) != 0 {
			continue
		}
		switch r.Perm {
		case APRW:
			return true
		case APRO:
			return !write
		case APPrivRW:
			return priv
		case APPrivRO:
			return priv && !write
		case APPrivRWUnprivRO:
			return priv || !write
		}
		return false
	}
	return priv
}

// FuzzMPUAdjudicate drives the MPU of a machine through a byte-coded
// program of region writes and clears, enable toggles (through
// SetEnabled and by direct field write), whole-file region restores,
// snapshots and snapshot restores — each of which rewinds the TLB
// generation — and checks every access against refAllows. Addresses
// span 64 KiB of SRAM, so they alias in the direct-mapped TLB.
func FuzzMPUAdjudicate(f *testing.F) {
	// Snapshot under a read-write region, reprogram it no-access and
	// probe, restore the snapshot (rewinding the generation), reprogram
	// read-only and probe again: the second probe lands on the first
	// probe's generation, so only a flush on restore keeps it exact.
	f.Add([]byte{0, 0, 5, 0, 0, 3, 4, 0, 0, 5, 0, 0, 0, 7, 0x00, 0x40, 0, 0, 5, 0, 0, 0, 5, 0, 0, 5, 7, 0x00, 0x40, 0, 0})
	// Overlapping regions with sub-regions disabled, an enable toggled
	// by direct write, then a whole-file restore.
	f.Add([]byte{0, 7, 0x10, 7, 0x81, 1, 0, 2, 0, 11, 0, 3, 7, 0x20, 0x10, 1, 0, 3, 1, 7, 0x20, 0x10, 0, 0, 3, 0, 6, 0, 2, 0, 10, 0, 3, 7, 0x00, 0x04, 1, 0})
	f.Add([]byte{4, 2, 1, 0, 3, 0, 12, 0, 3, 5, 0, 7, 0, 0, 0, 1, 5, 1, 7, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		m := NewMachine(ir.NewModule("mpu-fuzz"), NewBus(4<<10, 64<<10, &Clock{}), FlashBase)
		mpu := m.Bus.MPU
		mpu.SetEnabled(true)
		var snaps []*Snapshot
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		region := func() Region {
			size := MinRegionSizeLog2 + next()%13 // 32 B .. 128 KiB
			base := (SRAMBase + uint32(next())<<9) &^ (uint32(1)<<size - 1)
			return Region{Enabled: true, Base: base, SizeLog2: size, SRD: next(), Perm: AP(next() % 6)}
		}
		for steps := 0; len(prog) > 0 && steps < 256; steps++ {
			switch next() % 8 {
			case 0:
				i := int(next() % NumRegions)
				if err := mpu.SetRegion(i, region()); err != nil {
					t.Fatal(err)
				}
			case 1:
				mpu.ClearRegion(int(next() % NumRegions))
			case 2:
				mpu.SetEnabled(next()%2 == 0)
			case 3:
				mpu.Enabled = next()%2 == 0 // direct write: the TLB notices lazily
			case 4:
				s, err := m.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, s)
			case 5:
				if len(snaps) > 0 {
					if err := m.Restore(snaps[int(next())%len(snaps)]); err != nil {
						t.Fatal(err)
					}
				}
			case 6:
				var regs [NumRegions]Region
				for i := range regs {
					if next()%2 == 0 {
						regs[i] = region()
					}
				}
				mpu.RestoreRegions(regs)
			case 7:
				addr := SRAMBase + uint32(next())<<8 | uint32(next())
				write, priv := next()%2 == 1, next()%2 == 1
				if got, want := mpu.Allows(addr, write, priv), refAllows(mpu.Enabled, mpu.Regions, addr, write, priv); got != want {
					t.Fatalf("%#x write=%v priv=%v: TLB says %v, PMSAv7 scan %v; regions %+v", addr, write, priv, got, want, mpu.Regions)
				}
			}
		}
		// Every step above left the TLB warm: sweep the window once more.
		for a := uint32(0); a < 1<<16; a += 32 {
			for _, write := range []bool{false, true} {
				if got, want := mpu.Allows(SRAMBase+a, write, false), refAllows(mpu.Enabled, mpu.Regions, SRAMBase+a, write, false); got != want {
					t.Fatalf("sweep %#x write=%v: TLB says %v, PMSAv7 scan %v", SRAMBase+a, write, got, want)
				}
			}
		}
	})
}
