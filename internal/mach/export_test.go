package mach

// NoFastForward turns fast-forward off on b while leaving the lookup
// caches on, so the fast-forward exactness tests can compare every
// counter, cache tallies included, against stepwise execution.
func NoFastForward(b *Bus) { b.noFF = true }
