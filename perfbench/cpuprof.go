package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// A minimal reader for the gzipped protobuf profiles runtime/pprof
// writes, enough to fold CPU samples by package. Only the fields the
// fold needs are decoded: samples (location IDs and values), locations
// (their lines' function IDs), functions (name and file) and the
// string table.

type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofFunc struct{ name, file string }

// cpuProfile is a decoded profile: each sample's stack, leaf first,
// with inlined frames expanded, and its CPU nanoseconds.
type cpuProfile struct {
	stacks [][]pprofFunc
	nanos  []int64
}

// parseCPUProfile decodes a gzipped pprof CPU profile.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		samples []pprofSample
		strs    []string
		locs    = map[uint64][]uint64{}  // location ID -> function IDs, innermost first
		funcs   = map[uint64][2]uint64{} // function ID -> name, file string indices
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2:
			s, err := parseSample(b)
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2:
			id, fids, err := parseLocation(b)
			locs[id] = fids
			return err
		case num == 5 && wire == 2:
			var id, name, file uint64
			err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				case 4:
					file = v
				}
				return nil
			})
			funcs[id] = [2]uint64{name, file}
			return err
		case num == 6 && wire == 2:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var stack []pprofFunc
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				f := funcs[fid]
				stack = append(stack, pprofFunc{name: str(f[0]), file: str(f[1])})
			}
		}
		var ns int64
		if len(s.values) > 1 {
			ns = s.values[1] // [samples/count, cpu/nanoseconds]
		}
		p.stacks = append(p.stacks, stack)
		p.nanos = append(p.nanos, ns)
	}
	return p, nil
}

func parseSample(b []byte) (pprofSample, error) {
	var s pprofSample
	err := eachField(b, func(num, wire int, v uint64, pb []byte) error {
		switch num {
		case 1:
			if wire == 2 {
				return eachVarint(pb, func(x uint64) { s.locs = append(s.locs, x) })
			}
			s.locs = append(s.locs, v)
		case 2:
			if wire == 2 {
				return eachVarint(pb, func(x uint64) { s.values = append(s.values, int64(x)) })
			}
			s.values = append(s.values, int64(v))
		}
		return nil
	})
	return s, err
}

func parseLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fids []uint64
	err := eachField(b, func(num, wire int, v uint64, lb []byte) error {
		switch {
		case num == 1:
			id = v
		case num == 4 && wire == 2:
			return eachField(lb, func(n, _ int, fv uint64, _ []byte) error {
				if n == 1 {
					fids = append(fids, fv)
				}
				return nil
			})
		}
		return nil
	})
	return id, fids, err
}

var errProto = errors.New("cpu profile: malformed protobuf")

// eachField walks a protobuf message, calling fn with each field's
// number, wire type, and either its varint value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// modulePrefix is the import-path prefix of the program's layers.
const modulePrefix = "opec/internal/"

// funcPackage returns the import path of a symbol such as
// "opec/internal/mach.(*Machine).step".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// isRuntime reports whether a package belongs to the Go runtime.
func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// machGroup splits the simulator package by source file.
func machGroup(file string) string {
	switch path.Base(file) {
	case "mpu.go", "tlb.go", "proof.go", "pmp.go":
		return "mach/mpu"
	case "bus.go", "pagedmem.go":
		return "mach/bus"
	case "snapshot.go", "stateframe.go":
		return "mach/snapshot"
	}
	return "mach/interp"
}

// bucket folds one stack (leaf first) into the layer that owns its
// sample: "runtime" when the leaf is in the Go runtime, else the
// nearest frame in opec/internal/<module> (the simulator split by file
// group), else "other".
func bucket(stack []pprofFunc) string {
	if len(stack) > 0 && isRuntime(funcPackage(stack[0].name)) {
		return "runtime"
	}
	for _, f := range stack {
		pkg := funcPackage(f.name)
		if !strings.HasPrefix(pkg, modulePrefix) {
			continue
		}
		mod := strings.TrimPrefix(pkg, modulePrefix)
		if mod == "mach" {
			return machGroup(f.file)
		}
		return mod
	}
	return "other"
}

// stackHas reports whether any frame's symbol starts with prefix.
func stackHas(stack []pprofFunc, prefix string) bool {
	for _, f := range stack {
		if strings.HasPrefix(f.name, prefix) {
			return true
		}
	}
	return false
}

// Fold is a profile folded by layer.
type Fold struct {
	Total   float64            // CPU seconds sampled
	Buckets map[string]float64 // CPU seconds per bucket
	// Inclusive CPU seconds of samples with a frame in the named call.
	Construct float64 // apps constructors (excludes correctness checks under run)
	Compile   float64 // core.Compile
	ACES      float64 // aces.Compile
}

// fold folds p into f.
func (f *Fold) add(p *cpuProfile) {
	if f.Buckets == nil {
		f.Buckets = map[string]float64{}
	}
	for i, st := range p.stacks {
		s := float64(p.nanos[i]) / 1e9
		f.Total += s
		f.Buckets[bucket(st)] += s
		if stackHas(st, modulePrefix+"apps.") && !stackHas(st, modulePrefix+"run.") {
			f.Construct += s
		}
		if stackHas(st, modulePrefix+"core.Compile") {
			f.Compile += s
		}
		if stackHas(st, modulePrefix+"aces.Compile") {
			f.ACES += s
		}
	}
}

// Share returns a bucket's (or bucket prefix's) share of all samples.
func (f *Fold) Share(prefix string) float64 {
	if f.Total == 0 {
		return 0
	}
	var s float64
	for k, v := range f.Buckets {
		if k == prefix || strings.HasPrefix(k, prefix+"/") {
			s += v
		}
	}
	return s / f.Total
}
