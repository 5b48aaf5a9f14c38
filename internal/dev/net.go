package dev

import (
	"encoding/binary"

	"opec/internal/mach"
)

// Ethernet MAC register offsets (simplified descriptor-free MAC).
const (
	EthRXSTA  = 0x00 // bit0: frame available
	EthRXLEN  = 0x04 // current frame length in bytes
	EthRXFIFO = 0x08 // pop next 32-bit word of the frame
	EthRXACK  = 0x0C // write 1: frame consumed, advance
	EthTXLEN  = 0x10 // set outgoing frame length
	EthTXFIFO = 0x14 // push next word
	EthTXGO   = 0x18 // write 1: transmit
)

// EthMaxFrame bounds every frame the MAC will accept, on either path:
// host-queued receive frames and guest-programmed transmit lengths. A
// real MAC has a fixed FIFO; modelling one keeps a hostile guest from
// turning EthTXLEN into an arbitrary host allocation.
const EthMaxFrame = 2048

// EthMAC models the MAC with a scripted receive queue (cycle-paced
// frame arrival) and captured transmit frames.
type EthMAC struct {
	Clk      *mach.Clock
	Interval uint64 // cycles between frame arrivals

	rxQueue   [][]byte
	rxReadyAt uint64
	rxPos     int

	txLen int
	txBuf []byte
	// TxFrames collects every transmitted frame.
	TxFrames [][]byte

	// DroppedFrames counts host-queued frames rejected by validation
	// (zero-length or over EthMaxFrame). Host-side diagnostics only —
	// deliberately not part of the snapshot state, so probing the MAC
	// with bad frames never perturbs fork determinism.
	DroppedFrames int
}

// NewEthMAC creates the MAC with the given inter-frame pacing.
func NewEthMAC(clk *mach.Clock, interval uint64) *EthMAC {
	return &EthMAC{Clk: clk, Interval: interval}
}

// QueueFrame schedules an incoming frame. Zero-length and oversized
// frames are dropped (counted in DroppedFrames): a frame the wire could
// not carry must not reach the guest-visible register file, where
// EthRXLEN would otherwise advertise a length the FIFO can't back.
func (e *EthMAC) QueueFrame(frame []byte) {
	if len(frame) == 0 || len(frame) > EthMaxFrame {
		e.DroppedFrames++
		return
	}
	if len(e.rxQueue) == 0 {
		e.rxReadyAt = e.Clk.Now() + e.Interval
	}
	e.rxQueue = append(e.rxQueue, frame)
}

// QueueLen reports the number of frames still queued for receive.
func (e *EthMAC) QueueLen() int { return len(e.rxQueue) }

// QueuedFrames returns copies of the queued receive frames, in arrival
// order — the fuzzing engine's seed corpus.
func (e *EthMAC) QueuedFrames() [][]byte {
	out := make([][]byte, len(e.rxQueue))
	for i, f := range e.rxQueue {
		out[i] = append([]byte(nil), f...)
	}
	return out
}

// ReplaceFrame swaps queued receive frame i for the given bytes,
// subject to the same validation as QueueFrame. It reports whether the
// replacement happened; out-of-range slots and invalid frames are
// rejected. The frame is copied, so the caller's buffer may be reused.
func (e *EthMAC) ReplaceFrame(i int, frame []byte) bool {
	if i < 0 || i >= len(e.rxQueue) || len(frame) == 0 || len(frame) > EthMaxFrame {
		return false
	}
	e.rxQueue[i] = append([]byte(nil), frame...)
	if i == 0 {
		e.rxPos = 0
	}
	return true
}

// Name, Base, Size implement mach.Device.
func (e *EthMAC) Name() string { return "ETH" }
func (e *EthMAC) Base() uint32 { return mach.ETHBase }
func (e *EthMAC) Size() uint32 { return 0x1400 }

func (e *EthMAC) rxReady() bool {
	return len(e.rxQueue) > 0 && e.Clk.Now() >= e.rxReadyAt
}

// Load implements the register file.
func (e *EthMAC) Load(off uint32, _ int) uint32 {
	switch off {
	case EthRXSTA:
		if e.rxReady() {
			return 1
		}
		return 0
	case EthRXLEN:
		if e.rxReady() {
			return uint32(len(e.rxQueue[0]))
		}
		return 0
	case EthRXFIFO:
		if !e.rxReady() {
			return 0
		}
		f := e.rxQueue[0]
		var w uint32
		for i := 0; i < 4 && e.rxPos+i < len(f); i++ {
			w |= uint32(f[e.rxPos+i]) << (8 * i)
		}
		e.rxPos += 4
		return w
	}
	// Unknown in-window offsets read as zero (RAZ), matching the UART's
	// register-file convention. Accesses that straddle the device window
	// never reach here: the bus resolves them to no target and faults.
	return 0
}

// PureLoad and NextChange implement mach.Pollable: RXFIFO reads
// advance the frame cursor; RXSTA and RXLEN change when the head frame
// arrives.
func (e *EthMAC) PureLoad(off uint32) bool { return off != EthRXFIFO }
func (e *EthMAC) NextChange(now uint64) uint64 {
	if len(e.rxQueue) > 0 {
		return after(now, e.rxReadyAt)
	}
	return mach.Never
}

// Store implements the register file.
func (e *EthMAC) Store(off uint32, _ int, v uint32) {
	switch off {
	case EthRXACK:
		if v&1 != 0 && len(e.rxQueue) > 0 {
			e.rxQueue = e.rxQueue[1:]
			e.rxPos = 0
			e.rxReadyAt = e.Clk.Now() + e.Interval
		}
	case EthTXLEN:
		// Clamp to the FIFO capacity: the guest programs a length, the
		// hardware has EthMaxFrame bytes of buffer. An unclamped length
		// would otherwise size a host allocation at EthTXGO.
		if v > EthMaxFrame {
			v = EthMaxFrame
		}
		e.txLen = int(v)
		e.txBuf = e.txBuf[:0]
	case EthTXFIFO:
		// Words pushed past the FIFO capacity fall off the end (WI),
		// like any full hardware FIFO.
		if len(e.txBuf) >= EthMaxFrame {
			return
		}
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		e.txBuf = append(e.txBuf, b[:]...)
	case EthTXGO:
		if v&1 != 0 {
			frame := make([]byte, e.txLen)
			copy(frame, e.txBuf)
			e.TxFrames = append(e.TxFrames, frame)
		}
	}
	// Unknown in-window offsets are write-ignored (WI); see Load.
}

// ---- Host-side packet construction for the TCP-Echo workload ----

// TCP flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPAck = 1 << 4
	TCPPsh = 1 << 3
)

// EthHeaderLen, IPHeaderLen and TCPHeaderLen are the fixed header sizes
// the IR network stack parses.
const (
	EthHeaderLen = 14
	IPHeaderLen  = 20
	TCPHeaderLen = 20
)

// BuildTCPFrame assembles a valid Ethernet+IPv4+TCP frame with a
// correct IP header checksum. The IR stack validates the checksum and
// echoes the payload of PSH segments.
func BuildTCPFrame(srcIP, dstIP uint32, srcPort, dstPort uint16, seq, ack uint32, flags byte, payload []byte) []byte {
	f := make([]byte, EthHeaderLen+IPHeaderLen+TCPHeaderLen+len(payload))
	// Ethernet.
	copy(f[0:6], []byte{2, 0, 0, 0, 0, 2})  // dst MAC (device)
	copy(f[6:12], []byte{2, 0, 0, 0, 0, 1}) // src MAC (peer)
	binary.BigEndian.PutUint16(f[12:], 0x0800)
	// IPv4.
	ip := f[EthHeaderLen:]
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:], uint16(IPHeaderLen+TCPHeaderLen+len(payload)))
	ip[8] = 64
	ip[9] = 6 // TCP
	binary.BigEndian.PutUint32(ip[12:], srcIP)
	binary.BigEndian.PutUint32(ip[16:], dstIP)
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip[:IPHeaderLen]))
	// TCP.
	tcp := ip[IPHeaderLen:]
	binary.BigEndian.PutUint16(tcp[0:], srcPort)
	binary.BigEndian.PutUint16(tcp[2:], dstPort)
	binary.BigEndian.PutUint32(tcp[4:], seq)
	binary.BigEndian.PutUint32(tcp[8:], ack)
	tcp[12] = 5 << 4 // data offset
	tcp[13] = flags
	binary.BigEndian.PutUint16(tcp[14:], 0x2000) // window
	copy(tcp[TCPHeaderLen:], payload)
	return f
}

// FixChecksum recomputes the IP header checksum in place, when the
// frame is long enough to carry one. Mutation-based fuzzers pair it
// with field mutations: a frame that is malformed *and* checksum-valid
// penetrates past the stack's validation into the TCP state machine.
func FixChecksum(frame []byte) {
	if len(frame) < EthHeaderLen+IPHeaderLen {
		return
	}
	ip := frame[EthHeaderLen:]
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip[:IPHeaderLen]))
}

// CorruptChecksum flips the IP checksum, producing an invalid packet.
func CorruptChecksum(frame []byte) []byte {
	out := make([]byte, len(frame))
	copy(out, frame)
	out[EthHeaderLen+10] ^= 0xFF
	return out
}

// BuildUDPFrame builds a non-TCP packet (the stack must drop it).
func BuildUDPFrame(srcIP, dstIP uint32, payload []byte) []byte {
	f := BuildTCPFrame(srcIP, dstIP, 9, 9, 0, 0, 0, payload)
	f[EthHeaderLen+9] = 17 // proto = UDP
	ip := f[EthHeaderLen:]
	binary.BigEndian.PutUint16(ip[10:], 0)
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip[:IPHeaderLen]))
	return f
}

// ipChecksum is the ones-complement header checksum (checksum field
// must be zero on entry).
func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i == 10 {
			continue
		}
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// ParseEchoPayload extracts the TCP payload from a transmitted frame
// (host-side verification of the echo).
func ParseEchoPayload(frame []byte) ([]byte, bool) {
	if len(frame) < EthHeaderLen+IPHeaderLen+TCPHeaderLen {
		return nil, false
	}
	if binary.BigEndian.Uint16(frame[12:]) != 0x0800 || frame[EthHeaderLen+9] != 6 {
		return nil, false
	}
	total := binary.BigEndian.Uint16(frame[EthHeaderLen+2:])
	payloadLen := int(total) - IPHeaderLen - TCPHeaderLen
	if payloadLen < 0 || EthHeaderLen+int(total) > len(frame) {
		return nil, false
	}
	start := EthHeaderLen + IPHeaderLen + TCPHeaderLen
	return frame[start : start+payloadLen], true
}
