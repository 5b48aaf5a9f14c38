package inject

import (
	"reflect"
	"testing"
)

// FuzzSpecCodec drives the colon codec with arbitrary text: anything
// that parses must re-encode to a fixed point of the syntax and decode
// back to the identical Spec, and nothing may panic. The codec is the
// replay boundary — every campaign finding crosses it twice (engine →
// summary line → `opec-run -replay`), so a non-idempotent rendering
// would silently replay a different trial than the one recorded.
func FuzzSpecCodec(f *testing.F) {
	seeds := []string{
		"store:op_sense:1:KEY:0:0:0xdeadbeef",
		"flip:op_sense:2:state:4:7:0",
		"gate:main:1:op_actuate:0:0:0:0xffffffff,0xffffffff",
		"stack:op_log:1:-:0:0:0",
		"periph:op_net:3:ETH:16:0:0x1",
		"frame:main:1:ETH:0:0:0x4:0x03020100",
		"frame:main:1:ETH:2:0:0x9:0x64636261,0x68676665,0x69",
		"gate:::0::0:0",
		"store:f:1:g:4294967295:-1:0xffffffff",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return // rejected input: only the no-panic property applies
		}
		enc := s.String()
		s2, err := ParseSpec(enc)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", enc, text, err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("codec not lossless: %q -> %#v -> %q -> %#v", text, s, enc, s2)
		}
		if enc2 := s2.String(); enc2 != enc {
			t.Fatalf("encoding not a fixed point: %q -> %q", enc, enc2)
		}
		if s.Kind == FuzzFrame {
			// A parsed frame spec need not be decodable (Value can claim
			// more bytes than Args carry) but decoding must never panic,
			// and a decodable frame must re-encode to the same payload.
			frame, err := s.FrameBytes()
			if err != nil {
				return
			}
			rt := FrameSpec(s.Func, s.N, s.Target, int(s.Off), frame)
			back, err := rt.FrameBytes()
			if err != nil || !reflect.DeepEqual(back, frame) {
				t.Fatalf("frame payload not preserved: %v -> %v (%v)", frame, back, err)
			}
		}
	})
}

// FuzzParseCoord drives the replay-coordinate parser with arbitrary
// text: nothing may panic, and an accepted coordinate must round-trip
// through snapID + "@" + spec.String() to the same id and Spec — the
// form the debugger's coord command and the fuzz summary print.
func FuzzParseCoord(f *testing.F) {
	seeds := []string{
		"26a2a02199ee8ebb@store:Lock_Task:1:KEY:0:-1:0xee",
		"26a2a02199ee8ebb@frame:main:1:ETH:0:0:0x4:0x03020100",
		"@store:f:1:g:0:0:0",
		"26a2a02199ee8ebb@",
		"26a2a02199ee8ebb",
		"a@b@store:f:1:g:0:0:0",
		"id@store:f@x:1:g:0:0:0",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		id, spec, err := ParseCoord(text)
		if err != nil {
			return // rejected input: only the no-panic property applies
		}
		if id == "" {
			t.Fatalf("%q: accepted with an empty snapshot id", text)
		}
		coord := id + "@" + spec.String()
		id2, spec2, err := ParseCoord(coord)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", coord, text, err)
		}
		if id2 != id || !reflect.DeepEqual(spec2, spec) {
			t.Fatalf("coordinate not lossless: %q -> (%q, %#v) -> %q -> (%q, %#v)",
				text, id, spec, coord, id2, spec2)
		}
	})
}
