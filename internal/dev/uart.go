// Package dev provides the memory-mapped peripheral device models the
// workloads drive: UART, GPIO/RCC/EXTI button, SDIO with an SD card
// (including a FAT16 disk-image builder), an LCD controller, a DMA2D
// blitter, an Ethernet MAC with a scripted TCP peer, a DCMI camera, a
// USB mass-storage endpoint and an RNG.
//
// Devices are passive register files attached to the simulated bus.
// Time-dependent behaviour (a byte "arriving" on the UART, a frame
// landing in the MAC FIFO) is scheduled against the shared cycle clock:
// firmware polls a status register in a loop, burning simulated cycles
// exactly like polling firmware on real silicon, until the scheduled
// readiness cycle passes. This is what makes the I/O-bound workloads
// hide the monitor's switch cost, reproducing the paper's overhead
// shape. The waits still cost simulated cycles; the host no longer pays
// for them one iteration at a time. Every model implements
// mach.Pollable — which registers read without side effects, and when
// the next scheduled change lands — so the interpreter can fast-forward
// over identical poll iterations exactly.
package dev

import "opec/internal/mach"

// UART register offsets (STM32 USART layout).
const (
	UartSR  = 0x00 // status: bit5 RXNE, bit7 TXE
	UartDR  = 0x04 // data
	UartBRR = 0x08 // baud rate
	UartCR1 = 0x0C // control
)

// UART status bits.
const (
	UartRXNE = 1 << 5
	UartTXE  = 1 << 7
)

// UART models a USART with a scripted receive stream and a captured
// transmit stream. Each queued RX byte becomes visible IntervalCycles
// after the previous one was consumed (or after Enable).
type UART struct {
	BaseAddr       uint32
	Clk            *mach.Clock
	IntervalCycles uint64

	rx        []byte
	rxReadyAt uint64
	TX        []byte

	brr, cr1 uint32
}

// NewUART creates a UART at base with the given inter-byte pacing.
func NewUART(base uint32, clk *mach.Clock, interval uint64) *UART {
	return &UART{BaseAddr: base, Clk: clk, IntervalCycles: interval}
}

// QueueRx appends bytes to the scripted receive stream.
func (u *UART) QueueRx(b []byte) {
	if len(u.rx) == 0 {
		u.rxReadyAt = u.Clk.Now() + u.IntervalCycles
	}
	u.rx = append(u.rx, b...)
}

// Name, Base, Size implement mach.Device.
func (u *UART) Name() string { return "USART" }
func (u *UART) Base() uint32 { return u.BaseAddr }
func (u *UART) Size() uint32 { return 0x400 }

func (u *UART) rxReady() bool {
	return len(u.rx) > 0 && u.Clk.Now() >= u.rxReadyAt
}

// Load implements the register file.
func (u *UART) Load(off uint32, _ int) uint32 {
	switch off {
	case UartSR:
		sr := uint32(UartTXE)
		if u.rxReady() {
			sr |= UartRXNE
		}
		return sr
	case UartDR:
		if u.rxReady() {
			b := u.rx[0]
			u.rx = u.rx[1:]
			u.rxReadyAt = u.Clk.Now() + u.IntervalCycles
			return uint32(b)
		}
		return 0
	case UartBRR:
		return u.brr
	case UartCR1:
		return u.cr1
	}
	return 0
}

// PureLoad and NextChange implement mach.Pollable: reading DR pops
// the receive stream; SR's RXNE rises when the next byte arrives.
func (u *UART) PureLoad(off uint32) bool { return off != UartDR }
func (u *UART) NextChange(now uint64) uint64 {
	if len(u.rx) > 0 {
		return after(now, u.rxReadyAt)
	}
	return mach.Never
}

// Store implements the register file.
func (u *UART) Store(off uint32, _ int, v uint32) {
	switch off {
	case UartDR:
		u.TX = append(u.TX, byte(v))
	case UartBRR:
		u.brr = v
	case UartCR1:
		u.cr1 = v
	}
}

// after is the NextChange answer of a register that flips once the
// clock reaches at: at when that is still ahead, never otherwise.
func after(now, at uint64) uint64 {
	if now < at {
		return at
	}
	return mach.Never
}

// TXString returns everything the firmware transmitted.
func (u *UART) TXString() string { return string(u.TX) }
