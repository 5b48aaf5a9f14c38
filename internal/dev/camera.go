package dev

import (
	"encoding/binary"

	"opec/internal/mach"
)

// DCMI register offsets.
const (
	DcmiCR   = 0x00 // bit0: start capture
	DcmiSR   = 0x04 // bit0: frame ready
	DcmiFIFO = 0x08 // pop pixel words
)

// FrameWords is the synthetic camera frame size in 32-bit words
// (64x40 @ 16bpp / 4 bytes per word).
const FrameWords = 64 * 40 / 2

// Camera models the DCMI interface: firmware starts a capture, waits
// for the exposure (cycle-scheduled), then drains the frame FIFO.
// Frames are deterministic patterns keyed by the capture count, so the
// USB-saved photo is verifiable.
type Camera struct {
	Clk      *mach.Clock
	Exposure uint64

	Captures uint64
	readyAt  uint64
	pos      int
}

// NewCamera creates the camera with the given exposure latency.
func NewCamera(clk *mach.Clock, exposure uint64) *Camera {
	return &Camera{Clk: clk, Exposure: exposure}
}

// Name, Base, Size implement mach.Device.
func (c *Camera) Name() string { return "DCMI" }
func (c *Camera) Base() uint32 { return mach.DCMIBase }
func (c *Camera) Size() uint32 { return 0x400 }

// PixelAt returns the deterministic pixel word w of frame n — shared
// with tests that validate the saved photo.
func PixelAt(frame uint64, w int) uint32 {
	return uint32(frame)*0x01000193 ^ uint32(w)*0x9E3779B9
}

// Load implements the register file.
func (c *Camera) Load(off uint32, _ int) uint32 {
	switch off {
	case DcmiSR:
		if c.Captures > 0 && c.Clk.Now() >= c.readyAt {
			return 1
		}
		return 0
	case DcmiFIFO:
		if c.Captures == 0 || c.Clk.Now() < c.readyAt || c.pos >= FrameWords {
			return 0
		}
		v := PixelAt(c.Captures, c.pos)
		c.pos++
		return v
	}
	return 0
}

// PureLoad and NextChange implement mach.Pollable: FIFO reads pop
// pixels; SR turns ready when the exposure ends.
func (c *Camera) PureLoad(off uint32) bool { return off != DcmiFIFO }
func (c *Camera) NextChange(now uint64) uint64 {
	if c.Captures > 0 {
		return after(now, c.readyAt)
	}
	return mach.Never
}

// Store implements the register file.
func (c *Camera) Store(off uint32, _ int, v uint32) {
	if off == DcmiCR && v&1 != 0 {
		c.Captures++
		c.pos = 0
		c.readyAt = c.Clk.Now() + c.Exposure
	}
}

// USB MSC register offsets (sector-oriented mass-storage endpoint).
const (
	UsbARG  = 0x00 // sector number
	UsbCMD  = 0x04 // 1 = write sector
	UsbSTA  = 0x08 // bit0: ready
	UsbFIFO = 0x0C // push words
)

// USBMSC models a USB mass-storage flash disk: firmware selects a
// sector, streams 128 words, and issues the write command.
type USBMSC struct {
	Clk     *mach.Clock
	Latency uint64

	sector  uint32
	buf     []byte
	readyAt uint64

	// Sectors captures everything written, keyed by sector number.
	Sectors map[uint32][]byte
}

// NewUSBMSC creates the flash-disk endpoint.
func NewUSBMSC(clk *mach.Clock, latency uint64) *USBMSC {
	return &USBMSC{Clk: clk, Latency: latency, Sectors: make(map[uint32][]byte)}
}

// Name, Base, Size implement mach.Device.
func (u *USBMSC) Name() string { return "USBFS" }
func (u *USBMSC) Base() uint32 { return mach.USBFSBase }
func (u *USBMSC) Size() uint32 { return 0x400 }

// Load implements the register file.
func (u *USBMSC) Load(off uint32, _ int) uint32 {
	if off == UsbSTA {
		if u.Clk.Now() >= u.readyAt {
			return 1
		}
		return 0
	}
	return 0
}

// PureLoad and NextChange implement mach.Pollable: every register
// reads without side effects; STA turns ready when the write completes.
func (u *USBMSC) PureLoad(uint32) bool         { return true }
func (u *USBMSC) NextChange(now uint64) uint64 { return after(now, u.readyAt) }

// Store implements the register file.
func (u *USBMSC) Store(off uint32, _ int, v uint32) {
	switch off {
	case UsbARG:
		u.sector = v
		u.buf = u.buf[:0]
	case UsbFIFO:
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		u.buf = append(u.buf, b[:]...)
	case UsbCMD:
		if v == 1 {
			sec := make([]byte, len(u.buf))
			copy(sec, u.buf)
			u.Sectors[u.sector] = sec
			u.readyAt = u.Clk.Now() + u.Latency
		}
	}
}
