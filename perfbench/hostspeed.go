package main

import (
	"sync"
	"sync/atomic"
	"time"
)

var probeSink atomic.Uint64

// The host-speed probe: a fixed interpreter kernel written here, apart
// from the repository's code, so no change to the program moves it.
// Like the simulator it dispatches on a small instruction set and
// loads and stores all over a working set larger than L1, and it runs
// on as many goroutines at once as the workload has workers.

const (
	// probeRefSeconds is the reference host speed: the probe's median
	// chunk time on the 2-vCPU host the references were recorded on.
	// Scaled timings read as seconds on that host at that speed.
	probeRefSeconds = 0.025

	probeMemWords = 1 << 16 // 256 KiB working set per goroutine
	probeSteps    = 1 << 23 // instructions per chunk
	probeChunks   = 5
)

var probeProg = [...]uint8{0, 1, 2, 3, 1, 0, 5, 2, 4, 3, 1, 6, 4, 2, 0, 7}

// probeChunk interprets probeSteps instructions over mem and returns
// the wall seconds they took.
func probeChunk(mem []uint32) float64 {
	var r [8]uint32
	r[0] = 0x9e3779b9
	t0 := time.Now()
	pc := 0
	for i := 0; i < probeSteps; i++ {
		switch probeProg[pc] {
		case 0:
			r[0] = r[0]*1664525 + 1013904223
		case 1:
			r[1] += mem[r[0]>>16]
		case 2:
			mem[(r[0]>>8)&(probeMemWords-1)] = r[1] ^ r[2]
		case 3:
			if r[1]&1 == 0 {
				r[2] += r[1] >> 3
			} else {
				r[3]++
			}
		case 4:
			r[4] = r[4]<<1 | r[0]>>31
		case 5:
			r[5] += r[4] * r[3]
		case 6:
			if r[5]&4 != 0 {
				r[6] ^= r[5]
			}
		case 7:
			r[7] = mem[(r[6]+r[7])&(probeMemWords-1)]
		}
		pc = (pc + 1) % len(probeProg)
	}
	probeSink.Add(uint64(r[1] + r[2] + r[3] + r[6] + r[7]))
	return time.Since(t0).Seconds()
}

// hostProbe measures how fast the host runs the kernel right now.
type hostProbe struct {
	mems [][]uint32
}

func newHostProbe(workers int) *hostProbe {
	p := &hostProbe{}
	for i := 0; i < workers; i++ {
		p.mems = append(p.mems, make([]uint32, probeMemWords))
	}
	return p
}

// measure runs probeChunks chunks on every goroutine at once and
// returns the median chunk time.
func (p *hostProbe) measure() float64 {
	times := make([][]float64, len(p.mems))
	var wg sync.WaitGroup
	for g := range p.mems {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < probeChunks; i++ {
				times[g] = append(times[g], probeChunk(p.mems[g]))
			}
		}(g)
	}
	wg.Wait()
	var all []float64
	for _, ts := range times {
		all = append(all, ts...)
	}
	return median(all)
}
