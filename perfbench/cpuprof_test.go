package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a tiny protobuf writer for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pb) uint(num int, x uint64) { p.varint(uint64(num)<<3 | 0); p.varint(x) }

func (p *pb) bytes(num int, data []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(data)))
	p.b = append(p.b, data...)
}

// synthProfile builds a gzipped CPU profile whose samples each have
// one stack (function names, leaf first; one location per frame except
// that inlined groups share a location) and a CPU-nanosecond value.
func synthProfile(t *testing.T, files map[string]string, samples []synthSample) []byte {
	t.Helper()
	strs := []string{""}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var out pb
	funcID := map[string]uint64{}
	fn := func(name string) uint64 {
		if id, ok := funcID[name]; ok {
			return id
		}
		id := uint64(len(funcID) + 1)
		funcID[name] = id
		var f pb
		f.uint(1, id)
		f.uint(2, str(name))
		f.uint(4, str(files[name]))
		out.bytes(5, f.b)
		return id
	}
	locID := uint64(0)
	for _, s := range samples {
		var ids []uint64
		for _, group := range s.stack {
			locID++
			var loc pb
			loc.uint(1, locID)
			for _, name := range group { // innermost first
				var line pb
				line.uint(1, fn(name))
				loc.bytes(4, line.b)
			}
			out.bytes(4, loc.b)
			ids = append(ids, locID)
		}
		var smp, packed pb
		for _, id := range ids {
			packed.varint(id)
		}
		smp.bytes(1, packed.b) // packed location IDs
		smp.uint(2, 1)         // unpacked values: count, nanoseconds
		smp.uint(2, uint64(s.nanos))
		out.bytes(2, smp.b)
	}
	for _, s := range strs {
		out.bytes(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	if _, err := zw.Write(out.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

type synthSample struct {
	stack [][]string // locations, leaf first; each location's frames innermost first
	nanos int64
}

func TestFoldByPackage(t *testing.T) {
	files := map[string]string{
		"opec/internal/mach.(*Machine).step":     "/src/internal/mach/cpu.go",
		"opec/internal/mach.(*TLB).lookup":       "/src/internal/mach/tlb.go",
		"opec/internal/mach.(*Machine).Snapshot": "/src/internal/mach/snapshot.go",
		"opec/internal/mach.(*Bus).Load":         "/src/internal/mach/bus.go",
		"opec/internal/fuzz.(*CovSink).Handle":   "/src/internal/fuzz/cov.go",
		"opec/internal/trace.(*Buffer).Emit":     "/src/internal/trace/trace.go",
		"opec/internal/apps.newPinLock":          "/src/internal/apps/pinlock.go",
		"opec/internal/apps.newPinLock.func1":    "/src/internal/apps/pinlock.go",
		"opec/internal/core.Compile":             "/src/internal/core/layout.go",
		"opec/internal/run.AndCheck":             "/src/internal/run/run.go",
		"opec/internal/hal.(*Lib).Func":          "/src/internal/hal/hal.go",
	}
	ms := int64(time.Millisecond)
	samples := []synthSample{
		{[][]string{{"opec/internal/mach.(*Machine).step"}}, 40 * ms},
		// Inlined: the TLB lookup is inlined into step; innermost wins.
		{[][]string{{"opec/internal/mach.(*TLB).lookup", "opec/internal/mach.(*Machine).step"}}, 10 * ms},
		{[][]string{{"opec/internal/mach.(*Machine).Snapshot"}}, 5 * ms},
		{[][]string{{"opec/internal/mach.(*Bus).Load"}, {"opec/internal/mach.(*Machine).step"}}, 5 * ms},
		// A runtime leaf is charged to the runtime, whoever called it.
		{[][]string{{"runtime.mallocgc"}, {"opec/internal/mach.(*Machine).step"}}, 10 * ms},
		{[][]string{{"internal/runtime/maps.(*Map).getWithKey"}, {"opec/internal/trace.(*Buffer).Emit"}}, 2 * ms},
		// A standard-library leaf goes to the nearest layer above it.
		{[][]string{{"sort.Slice"}, {"opec/internal/fuzz.(*CovSink).Handle"}}, 8 * ms},
		{[][]string{{"opec/internal/trace.(*Buffer).Emit"}, {"opec/internal/fuzz.(*CovSink).Handle"}}, 4 * ms},
		// Construction under apps, and compile.
		{[][]string{{"opec/internal/hal.(*Lib).Func"}, {"opec/internal/apps.newPinLock"}}, 6 * ms},
		{[][]string{{"opec/internal/core.Compile"}}, 7 * ms},
		// A correctness check runs apps code under run: not construction.
		{[][]string{{"opec/internal/apps.newPinLock.func1"}, {"opec/internal/run.AndCheck"}}, 1 * ms},
		{[][]string{{"main.main"}}, 2 * ms},
	}
	p, err := parseCPUProfile(synthProfile(t, files, samples))
	if err != nil {
		t.Fatal(err)
	}
	var f Fold
	f.add(p)
	want := map[string]float64{
		"mach/interp":   40e-3,
		"mach/mpu":      10e-3,
		"mach/snapshot": 5e-3,
		"mach/bus":      5e-3,
		"runtime":       12e-3,
		"fuzz":          8e-3,
		"trace":         4e-3,
		"hal":           6e-3,
		"core":          7e-3,
		"apps":          1e-3,
		"other":         2e-3,
	}
	for k, w := range want {
		if math.Abs(f.Buckets[k]-w) > 1e-9 {
			t.Errorf("bucket %s = %g, want %g", k, f.Buckets[k], w)
		}
	}
	if len(f.Buckets) != len(want) {
		t.Errorf("buckets %v", f.Buckets)
	}
	if math.Abs(f.Total-100e-3) > 1e-9 {
		t.Errorf("total %g, want 0.1", f.Total)
	}
	if math.Abs(f.Construct-6e-3) > 1e-9 || math.Abs(f.Compile-7e-3) > 1e-9 || f.ACES != 0 {
		t.Errorf("construct %g compile %g aces %g", f.Construct, f.Compile, f.ACES)
	}
	if s := f.Share("mach"); math.Abs(s-0.6) > 1e-9 {
		t.Errorf("mach share %g, want 0.6 (all four file groups)", s)
	}
	if s := f.Share("mach/snapshot"); math.Abs(s-0.05) > 1e-9 {
		t.Errorf("snapshot share %g, want 0.05", s)
	}
}

func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := uint64(1)
	for t0 := time.Now(); time.Since(t0) < 200*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var f Fold
	f.add(p)
	if len(p.stacks) == 0 || f.Total <= 0 {
		t.Fatalf("no samples decoded from a 200ms busy loop (x=%d)", x)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage parsed")
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	_, _ = zw.Write([]byte{0x12, 0xff}) // field 2, length beyond the end
	_ = zw.Close()
	if _, err := parseCPUProfile(z.Bytes()); err == nil {
		t.Fatal("truncated message parsed")
	}
}

func TestFuncPackage(t *testing.T) {
	for in, want := range map[string]string{
		"opec/internal/mach.(*Machine).step": "opec/internal/mach",
		"runtime.mallocgc":                   "runtime",
		"internal/runtime/maps.newarray":     "internal/runtime/maps",
		"main.main":                          "main",
		"sort.Slice.func1":                   "sort",
	} {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}
