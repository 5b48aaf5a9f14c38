package fuzz

import "opec/internal/trace"

// EdgeSpace is the size of the edge-identity space. Edge identities are
// folded into it AFL-style; 64K is large enough that the workloads' few
// thousand real edges collide rarely, and small enough that per-trial
// accounting stays cheap.
const EdgeSpace = 1 << 16

// numBuckets is the hit-count bucketing granularity. A deterministic
// embedded workload covers most of its edge set on every run — the
// binary "was this edge hit" signal saturates within a handful of
// inputs. What still separates inputs is how often each edge runs
// (parse-loop trips, frames accepted, retransmit paths), so coverage
// features are (edge, log-bucket of hit count) pairs, AFL's counting
// semantics.
const numBuckets = 8

// FeatureSpace is the total coverage-feature space: every edge crossed
// with every hit bucket.
const FeatureSpace = EdgeSpace * numBuckets

// CovSink folds a trial's event stream into per-edge hit counts. It
// attaches to the trial's trace buffer as a streaming handler, so it
// sees every event before ring drop accounting — coverage is exact even
// when the ring wraps.
//
// Edges are transition-sensitive (previous point chained into the
// current one, AFL's prev>>1 ^ cur), over four event families: per-block
// branch events (the bulk of the signal, emitted when the machine runs
// with CovEvents), call edges, gate entries and gate rejections.
// Everything hashed is an interned name id or a dense index, and
// AttachTrace pre-interns every module function in module order on each
// fork, so the same execution produces the same features in every
// trial, at any parallelism.
type CovSink struct {
	prev    uint32
	hits    []uint8  // saturating per-edge hit counts
	touched []uint16 // distinct edges in first-hit order
}

// NewCovSink returns an empty sink for one trial.
func NewCovSink() *CovSink {
	return &CovSink{hits: make([]uint8, EdgeSpace)}
}

// mix is a deterministic multiply-xor hash of one coverage point.
func mix(a, b uint32) uint32 {
	h := a*0x9E3779B1 ^ b*0x85EBCA77
	h ^= h >> 13
	h *= 0xC2B2AE35
	h ^= h >> 16
	return h
}

// HandleEvent implements trace.Handler.
func (s *CovSink) HandleEvent(e trace.Event) {
	var cur uint32
	switch e.Kind {
	case trace.EvBranch:
		cur = mix(e.Arg, e.Arg2)
	case trace.EvCall:
		cur = mix(e.Arg2, e.Arg) ^ 0xA5A5_A5A5
	case trace.EvGateEnter:
		cur = mix(e.Arg, uint32(e.Op)) ^ 0x5A5A_5A5A
	case trace.EvGateReject:
		cur = mix(e.Arg, e.Arg2) ^ 0x3C3C_3C3C
	default:
		return
	}
	edge := uint16((s.prev >> 1) ^ cur)
	s.prev = cur
	if s.hits[edge] == 0 {
		s.touched = append(s.touched, edge)
	}
	if s.hits[edge] < 255 {
		s.hits[edge]++
	}
}

// bucket maps a hit count to its log-style bucket (AFL's 1, 2, 3, 4-7,
// 8-15, 16-31, 32-127, 128+).
func bucket(n uint8) uint32 {
	switch {
	case n == 1:
		return 0
	case n == 2:
		return 1
	case n == 3:
		return 2
	case n < 8:
		return 3
	case n < 16:
		return 4
	case n < 32:
		return 5
	case n < 128:
		return 6
	}
	return 7
}

// Features returns the trial's coverage features — one (edge, final
// hit bucket) pair per touched edge, in first-hit order.
func (s *CovSink) Features() []uint32 {
	out := make([]uint32, len(s.touched))
	for i, e := range s.touched {
		out[i] = uint32(e)*numBuckets + bucket(s.hits[e])
	}
	return out
}

// featureSet is the campaign-global accumulated coverage map. It is
// only touched single-threaded, between execution barriers, in
// input-index order — which is what makes "was this feature new" answer
// identically at every parallelism level.
type featureSet struct {
	bits  []uint64
	count int
}

func newFeatureSet() *featureSet { return &featureSet{bits: make([]uint64, FeatureSpace/64)} }

// addAll merges a trial's features and reports how many were new.
func (g *featureSet) addAll(features []uint32) int {
	fresh := 0
	for _, f := range features {
		if w, bit := f>>6, uint64(1)<<(f&63); g.bits[w]&bit == 0 {
			g.bits[w] |= bit
			fresh++
		}
	}
	g.count += fresh
	return fresh
}
