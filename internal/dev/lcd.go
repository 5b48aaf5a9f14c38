package dev

import "opec/internal/mach"

// LCD register offsets (command/data interface in the LTDC block's
// address range — the workloads talk to the panel controller directly).
const (
	LcdCMD  = 0x00 // command register
	LcdDATA = 0x04 // pixel/parameter data
	LcdSTA  = 0x08 // bit0: ready
)

// LCD commands.
const (
	LcdCmdSetWindow = 0x2A
	LcdCmdPixels    = 0x2C
	LcdCmdOn        = 0x29
)

// LCD models the display panel: it counts pixels, checksums the pixel
// stream (so tests can assert what was drawn) and paces frame
// readiness on the clock.
type LCD struct {
	Clk *mach.Clock

	On         bool
	Pixels     uint64
	Checksum   uint32
	Frames     uint64
	paramWords int // remaining command-parameter words (not pixels)
	busyUntil  uint64
}

// NewLCD creates the panel model.
func NewLCD(clk *mach.Clock) *LCD { return &LCD{Clk: clk} }

// Name, Base, Size implement mach.Device.
func (l *LCD) Name() string { return "LTDC" }
func (l *LCD) Base() uint32 { return mach.LTDCBase }
func (l *LCD) Size() uint32 { return 0x400 }

// Load implements the register file.
func (l *LCD) Load(off uint32, _ int) uint32 {
	if off == LcdSTA {
		if l.Clk.Now() >= l.busyUntil {
			return 1
		}
		return 0
	}
	return 0
}

// PureLoad and NextChange implement mach.Pollable: STA turns ready
// when the panel refresh ends.
func (l *LCD) PureLoad(uint32) bool         { return true }
func (l *LCD) NextChange(now uint64) uint64 { return after(now, l.busyUntil) }

// Store implements the register file.
func (l *LCD) Store(off uint32, _ int, v uint32) {
	switch off {
	case LcdCMD:
		switch v {
		case LcdCmdOn:
			l.On = true
		case LcdCmdSetWindow:
			l.paramWords = 4
		case LcdCmdPixels:
			l.Frames++
			// Panel refresh latency per frame (~2.4 ms at 168 MHz).
			l.busyUntil = l.Clk.Now() + 400_000
		}
	case LcdDATA:
		if l.paramWords > 0 {
			l.paramWords--
			return
		}
		l.Pixels++
		l.Checksum = l.Checksum*16777619 ^ v
	}
}

// DMA2D register offsets.
const (
	Dma2dCR   = 0x00 // bit0 start; bits 16-17 mode (0 copy, 1 blend)
	Dma2dSRC  = 0x04
	Dma2dDST  = 0x08
	Dma2dLEN  = 0x0C // words
	Dma2dSTA  = 0x10 // bit0 done
	Dma2dALPH = 0x14 // blend alpha 0..255
)

// DMA2D models the Chrom-ART blitter: firmware programs source,
// destination and length, starts a transfer, and polls completion. The
// transfer itself runs host-side against raw memory (DMA master), with
// completion scheduled on the clock — matching how the real block frees
// the CPU during fades (the LCD-uSD visual effects).
type DMA2D struct {
	Clk *mach.Clock
	Bus *mach.Bus

	src, dst, length, alpha uint32
	doneAt                  uint64
	Transfers               uint64
}

// NewDMA2D creates the blitter; it masters the given bus.
func NewDMA2D(clk *mach.Clock, bus *mach.Bus) *DMA2D {
	return &DMA2D{Clk: clk, Bus: bus}
}

// Name, Base, Size implement mach.Device.
func (d *DMA2D) Name() string { return "DMA2D" }
func (d *DMA2D) Base() uint32 { return mach.DMA2DBase }
func (d *DMA2D) Size() uint32 { return 0x400 }

// Load implements the register file.
func (d *DMA2D) Load(off uint32, _ int) uint32 {
	switch off {
	case Dma2dSTA:
		if d.Clk.Now() >= d.doneAt {
			return 1
		}
		return 0
	case Dma2dSRC:
		return d.src
	case Dma2dDST:
		return d.dst
	case Dma2dLEN:
		return d.length
	}
	return 0
}

// PureLoad and NextChange implement mach.Pollable: STA turns done when
// the transfer's latency elapses.
func (d *DMA2D) PureLoad(uint32) bool         { return true }
func (d *DMA2D) NextChange(now uint64) uint64 { return after(now, d.doneAt) }

// Store implements the register file.
func (d *DMA2D) Store(off uint32, _ int, v uint32) {
	switch off {
	case Dma2dSRC:
		d.src = v
	case Dma2dDST:
		d.dst = v
	case Dma2dLEN:
		d.length = v
	case Dma2dALPH:
		d.alpha = v & 0xFF
	case Dma2dCR:
		if v&1 == 0 {
			return
		}
		d.Transfers++
		mode := (v >> 16) & 3
		for i := uint32(0); i < d.length; i++ {
			w, f := d.Bus.RawLoad(d.src+4*i, 4)
			if f != nil {
				break
			}
			if mode == 1 { // blend toward existing destination
				old, _ := d.Bus.RawLoad(d.dst+4*i, 4)
				w = blendWord(old, w, d.alpha)
			}
			if f := d.Bus.RawStore(d.dst+4*i, 4, w); f != nil {
				break
			}
		}
		// One cycle per word plus setup, billed as DMA latency.
		d.doneAt = d.Clk.Now() + uint64(d.length) + 64
	}
}

// blendWord alpha-blends two RGB565-pair words channel-naively (the
// panel model only checksums, so a byte-wise lerp is sufficient).
func blendWord(dst, src, alpha uint32) uint32 {
	var out uint32
	for i := 0; i < 4; i++ {
		d := (dst >> (8 * i)) & 0xFF
		s := (src >> (8 * i)) & 0xFF
		b := (d*(255-alpha) + s*alpha) / 255
		out |= b << (8 * i)
	}
	return out
}
