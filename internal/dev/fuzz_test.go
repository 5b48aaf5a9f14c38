package dev

import (
	"bytes"
	"fmt"
	"testing"

	"opec/internal/mach"
)

// FuzzParseEchoPayload throws arbitrary bytes at the host-side frame
// parser. Properties: no panic on any input (the parser reads
// length fields out of attacker bytes), a failed parse returns no
// payload, and a successful parse returns a payload that is exactly
// the in-bounds tail the headers describe.
func FuzzParseEchoPayload(f *testing.F) {
	valid := BuildTCPFrame(0x0A000001, 0x0A000002, 40000, 7, 1, 1, TCPPsh|TCPAck, []byte("ping"))
	f.Add(valid)
	f.Add(CorruptChecksum(valid))
	f.Add(BuildUDPFrame(0x0A000001, 0x0A000002, []byte("x")))
	f.Add([]byte{})
	f.Add(valid[:EthHeaderLen+IPHeaderLen]) // truncated mid-headers
	short := append([]byte(nil), valid...)
	short[EthHeaderLen+2] = 0xFF // IP total length past the frame end
	short[EthHeaderLen+3] = 0xFF
	f.Add(short)
	f.Fuzz(func(t *testing.T, frame []byte) {
		payload, ok := ParseEchoPayload(frame)
		if !ok {
			if payload != nil {
				t.Fatal("failed parse returned a payload")
			}
			return
		}
		if len(payload) > len(frame)-EthHeaderLen-IPHeaderLen-TCPHeaderLen {
			t.Fatalf("payload of %d bytes from a %d-byte frame", len(payload), len(frame))
		}
		start := EthHeaderLen + IPHeaderLen + TCPHeaderLen
		if !bytes.Equal(payload, frame[start:start+len(payload)]) {
			t.Fatal("payload is not the frame tail the headers describe")
		}
	})
}

// stateModel is one device model as the state fuzzer drives it.
type stateModel interface {
	mach.Stateful
	mach.Pollable
}

// newStateModels builds one fresh instance of every device model, in a
// fixed order, on clk; the DMA2D masters bus.
func newStateModels(clk *mach.Clock, bus *mach.Bus) []stateModel {
	return []stateModel{
		NewUART(mach.USART2Base, clk, 100),
		NewGPIO(mach.GPIOABase, clk),
		NewRCC(),
		NewFlashIF(),
		NewRNG(7),
		NewSDCard(clk, make([]byte, 2*BlockSize), 50),
		NewLCD(clk),
		NewDMA2D(clk, bus),
		NewEthMAC(clk, 100),
		NewCamera(clk, 100),
		NewUSBMSC(clk, 50),
	}
}

// exerciseModels drives every model through a little activity, so the
// seed states carry queues, buffers and schedules rather than zeros.
func exerciseModels(clk *mach.Clock, ms []stateModel) {
	for _, m := range ms {
		switch d := m.(type) {
		case *UART:
			d.QueueRx([]byte("pin"))
			d.Store(UartDR, 4, 'k')
		case *GPIO:
			d.SchedulePress(3, 500)
			d.Store(GpioODR, 4, 0x10)
		case *RCC, *Regs:
			d.Store(0x30, 4, 0x705)
		case *RNG:
			d.Load(RngDR, 4)
		case *SDCard:
			d.Store(SdioARG, 4, 1)
			d.Store(SdioCMD, 4, SdCmdReadBlock)
		case *LCD:
			d.Store(LcdCMD, 4, LcdCmdPixels)
			d.Store(LcdDATA, 4, 0xF800)
		case *DMA2D:
			d.Store(Dma2dLEN, 4, 4)
		case *EthMAC:
			d.QueueFrame(BuildUDPFrame(1, 2, []byte("x")))
			d.Store(EthTXLEN, 4, 8)
			d.Store(EthTXFIFO, 4, 0xdeadbeef)
		case *Camera:
			d.Store(DcmiCR, 4, 1)
		case *USBMSC:
			d.Store(UsbFIFO, 4, 0xcafe)
			d.Store(UsbCMD, 4, 1)
		}
	}
	clk.Advance(75)
}

// pollAnswers records a model's fast-forward contract: PureLoad of every
// register offset and NextChange at a few instants.
func pollAnswers(m stateModel) string {
	var sb bytes.Buffer
	for off := uint32(0); off < m.Size(); off += 4 {
		if !m.PureLoad(off) {
			fmt.Fprintf(&sb, "impure %#x ", off)
		}
	}
	for _, now := range []uint64{0, 75, 10_000, 1 << 40} {
		fmt.Fprintf(&sb, "next(%d)=%d ", now, m.NextChange(now))
	}
	return sb.String()
}

// FuzzDeviceLoadState throws arbitrary state buffers at every device
// model's LoadState. Properties: no panic and no runaway allocation on
// any input; a state LoadState accepts survives a Load and a Store of
// every register offset; and the model's PureLoad/NextChange answers
// survive a SaveState -> LoadState round trip.
func FuzzDeviceLoadState(f *testing.F) {
	clk := &mach.Clock{}
	seeds := newStateModels(clk, mach.NewBus(4<<10, 4<<10, clk))
	exerciseModels(clk, seeds)
	for i, m := range seeds {
		f.Add(uint8(i), m.SaveState())
	}
	// The two crashes this target was written against: an SDIO FIFO
	// cursor off the word grid, and an unbounded element count.
	sd := seeds[5].SaveState()
	sd[len(sd)-20] = 0xFE // bufPos = 510
	sd[len(sd)-19] = 0x01
	f.Add(uint8(5), sd)
	f.Add(uint8(8), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(10), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, which uint8, state []byte) {
		clk := &mach.Clock{}
		bus := mach.NewBus(4<<10, 4<<10, clk)
		ms := newStateModels(clk, bus)
		i := int(which) % len(ms)
		m := ms[i]
		if m.LoadState(state) != nil {
			return
		}
		want := pollAnswers(m)
		twin := newStateModels(clk, bus)[i]
		if err := twin.LoadState(m.SaveState()); err != nil {
			t.Fatalf("%s: re-loading its own saved state: %v", m.Name(), err)
		}
		if got := pollAnswers(twin); got != want {
			t.Fatalf("%s: contract changed across SaveState/LoadState:\n  %s\n  %s", m.Name(), want, got)
		}
		// Past every schedule the fuzzed state plausibly holds, read
		// every register with the restored cursors, then write every
		// register and read them all again.
		clk.Advance(1 << 40)
		for off := uint32(0); off < m.Size(); off += 4 {
			m.Load(off, 4)
		}
		for off := uint32(0); off < m.Size(); off += 4 {
			m.Store(off, 4, 1)
		}
		for off := uint32(0); off < m.Size(); off += 4 {
			m.Load(off, 4)
		}
	})
}
