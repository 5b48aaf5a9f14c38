package dev

import "opec/internal/mach"

// GPIO register offsets.
const (
	GpioMODER = 0x00
	GpioIDR   = 0x10
	GpioODR   = 0x14
	GpioBSRR  = 0x18
)

// GPIO models one port. A button press can be scheduled on an input
// pin: IDR reports the pin high once the clock passes PressAt.
type GPIO struct {
	BaseAddr uint32
	Clk      *mach.Clock

	moder uint32
	odr   uint32

	// PressPin and PressAt script a button press (pin index, cycle).
	PressPin int
	PressAt  uint64
	hasPress bool
}

// NewGPIO creates a port at base.
func NewGPIO(base uint32, clk *mach.Clock) *GPIO {
	return &GPIO{BaseAddr: base, Clk: clk}
}

// SchedulePress makes input pin read high from the given cycle on.
func (g *GPIO) SchedulePress(pin int, at uint64) {
	g.PressPin, g.PressAt, g.hasPress = pin, at, true
}

// Name, Base, Size implement mach.Device.
func (g *GPIO) Name() string { return "GPIO" }
func (g *GPIO) Base() uint32 { return g.BaseAddr }
func (g *GPIO) Size() uint32 { return 0x400 }

// Load implements the register file.
func (g *GPIO) Load(off uint32, _ int) uint32 {
	switch off {
	case GpioMODER:
		return g.moder
	case GpioIDR:
		var idr uint32
		if g.hasPress && g.Clk.Now() >= g.PressAt {
			idr |= 1 << g.PressPin
		}
		return idr
	case GpioODR:
		return g.odr
	}
	return 0
}

// PureLoad and NextChange implement mach.Pollable: IDR changes when
// the scripted press lands.
func (g *GPIO) PureLoad(uint32) bool { return true }
func (g *GPIO) NextChange(now uint64) uint64 {
	if g.hasPress {
		return after(now, g.PressAt)
	}
	return mach.Never
}

// Store implements the register file.
func (g *GPIO) Store(off uint32, _ int, v uint32) {
	switch off {
	case GpioMODER:
		g.moder = v
	case GpioODR:
		g.odr = v
	case GpioBSRR:
		g.odr |= v & 0xFFFF
		g.odr &^= v >> 16
	}
}

// RCC models the clock controller: a plain register file firmware
// writes enable bits into.
type RCC struct {
	BaseAddr uint32
	regs     [256]uint32
}

// NewRCC creates the clock controller.
func NewRCC() *RCC { return &RCC{BaseAddr: mach.RCCBase} }

// Name, Base, Size implement mach.Device.
func (r *RCC) Name() string { return "RCC" }
func (r *RCC) Base() uint32 { return r.BaseAddr }
func (r *RCC) Size() uint32 { return 0x400 }

// Load implements the register file.
func (r *RCC) Load(off uint32, _ int) uint32 { return r.regs[(off/4)%256] }

// Store implements the register file.
func (r *RCC) Store(off uint32, _ int, v uint32) { r.regs[(off/4)%256] = v }

// PureLoad and NextChange implement mach.Pollable: a plain register
// file changes only on stores.
func (r *RCC) PureLoad(uint32) bool     { return true }
func (r *RCC) NextChange(uint64) uint64 { return mach.Never }

// Reg returns a raw register value (tests).
func (r *RCC) Reg(off uint32) uint32 { return r.regs[(off/4)%256] }

// Regs is a generic passive register file at an arbitrary base —
// used for blocks the firmware programs but whose behaviour the
// workloads never read back (flash interface, power controller, …).
type Regs struct {
	DevName  string
	BaseAddr uint32
	regs     [256]uint32
}

// NewFlashIF creates the flash-interface register block (wait-state
// programming during clock bring-up).
func NewFlashIF() *Regs { return &Regs{DevName: "FLASHIF", BaseAddr: mach.FlashIF} }

// Name, Base, Size implement mach.Device.
func (r *Regs) Name() string { return r.DevName }
func (r *Regs) Base() uint32 { return r.BaseAddr }
func (r *Regs) Size() uint32 { return 0x400 }

// Load implements the register file.
func (r *Regs) Load(off uint32, _ int) uint32 { return r.regs[(off/4)%256] }

// Store implements the register file.
func (r *Regs) Store(off uint32, _ int, v uint32) { r.regs[(off/4)%256] = v }

// PureLoad and NextChange implement mach.Pollable (see RCC).
func (r *Regs) PureLoad(uint32) bool     { return true }
func (r *Regs) NextChange(uint64) uint64 { return mach.Never }

// RNG models the hardware random number generator with a deterministic
// xorshift stream (reproducible runs).
type RNG struct {
	state uint32
}

// NewRNG seeds the generator.
func NewRNG(seed uint32) *RNG {
	if seed == 0 {
		seed = 0x2545F491
	}
	return &RNG{state: seed}
}

// RNG register offsets: CR 0x00, SR 0x04 (bit0 DRDY), DR 0x08.
const (
	RngSR = 0x04
	RngDR = 0x08
)

// Name, Base, Size implement mach.Device.
func (r *RNG) Name() string { return "RNG" }
func (r *RNG) Base() uint32 { return mach.RNGBase }
func (r *RNG) Size() uint32 { return 0x400 }

// Load implements the register file.
func (r *RNG) Load(off uint32, _ int) uint32 {
	switch off {
	case RngSR:
		return 1 // always ready
	case RngDR:
		r.state ^= r.state << 13
		r.state ^= r.state >> 17
		r.state ^= r.state << 5
		return r.state
	}
	return 0
}

// PureLoad and NextChange implement mach.Pollable: DR steps the
// generator; SR always reads ready.
func (r *RNG) PureLoad(off uint32) bool { return off != RngDR }
func (r *RNG) NextChange(uint64) uint64 { return mach.Never }

// Store implements the register file.
func (r *RNG) Store(uint32, int, uint32) {}
