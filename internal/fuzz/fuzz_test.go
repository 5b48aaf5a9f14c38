package fuzz

import (
	"testing"

	"opec/internal/apps"
	"opec/internal/inject"
	"opec/internal/mach"
	"opec/internal/trace"
)

// testOptions is the shared small-campaign shape. Budget 48 keeps the
// whole file fast while still exercising corpus growth (three
// generational batches).
func testOptions() Options {
	return Options{App: apps.TCPEchoN(3, 9), Seed: 7, Budget: 48, Parallel: 1}
}

// The campaign summary must be byte-identical at every parallelism
// level: generation is single-threaded between barriers and merge is
// input-index ordered, so workers only change who executes what.
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	opts := testOptions()
	base, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4} {
		o := opts
		o.Parallel = par
		rep, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rep.Render(), base.Render(); got != want {
			t.Errorf("parallel=%d summary differs from parallel=1:\n--- got ---\n%s--- want ---\n%s", par, got, want)
		}
	}
}

// The interpreter's fast paths — certificate elision and the lookup
// caches — must drive every trial, including its coverage event
// stream, exactly as the fully checked path does, so the whole campaign
// agrees with them switched off. The name dates from when the
// comparison was against a second execution engine.
func TestCampaignDeterministicAcrossBackends(t *testing.T) {
	opts := testOptions()
	opts.Parallel = 4
	fast, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	p, c := mach.DisableProofs, mach.DisableCaches
	mach.DisableProofs, mach.DisableCaches = true, true
	slow, err := Run(opts)
	mach.DisableProofs, mach.DisableCaches = p, c
	if err != nil {
		t.Fatal(err)
	}
	if got, want := slow.Render(), fast.Render(); got != want {
		t.Errorf("summary differs with fast paths off:\n--- off ---\n%s--- on ---\n%s", got, want)
	}
}

// Coverage guidance must earn its keep: at the same seed and budget,
// the guided campaign reaches strictly more unique edges than the
// random ablation (which runs the same mutators against a frozen seed
// corpus). The budget here is larger than testOptions' — retention
// compounds scenario growth generation over generation, so guidance
// pays off after the corpus has had a few batches to deepen (at tiny
// budgets the two modes are statistically tied). Campaigns are fully
// deterministic, so this strict inequality is stable, not flaky.
func TestGuidedFindsMoreEdgesThanRandom(t *testing.T) {
	opts := testOptions()
	opts.Seed = 4
	opts.Budget = 128
	opts.Parallel = 4
	guided, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Random = true
	random, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if guided.UniqueEdges <= random.UniqueEdges {
		t.Errorf("guided=%d edges, random=%d: guidance bought nothing", guided.UniqueEdges, random.UniqueEdges)
	}
	// The ablation's corpus must stay frozen at the seeds, while the
	// guided corpus retained at least one new-edge input.
	if rt, gt := random.CorpusFrames+random.CorpusGates, guided.CorpusFrames+guided.CorpusGates; rt >= gt {
		t.Errorf("random corpus %d >= guided corpus %d: retention ablation leaked", rt, gt)
	}
}

// Every finding's replay coordinate must reproduce the trial
// byte-identically: same verdict, same cycle count, same error text —
// through the codec (String -> ParseSpec) and on a fresh forge.
func TestFindingsReplayByteIdentically(t *testing.T) {
	opts := testOptions()
	opts.Parallel = 4
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("campaign produced no findings to replay")
	}
	forge, err := inject.NewForge(opts.App)
	if err != nil {
		t.Fatal(err)
	}
	if forge.SnapshotID() != rep.SnapshotID {
		t.Fatalf("fresh forge snapshot %s != campaign snapshot %s", forge.SnapshotID(), rep.SnapshotID)
	}
	n := len(rep.Findings)
	if n > 5 {
		n = 5 // replaying a handful is enough; each is a full trial
	}
	for _, f := range rep.Findings[:n] {
		spec, err := inject.ParseSpec(f.Spec)
		if err != nil {
			t.Fatalf("finding spec %q does not re-parse: %v", f.Spec, err)
		}
		out, err := forge.Run(spec, opts.Policy, rep.TrialCycles)
		if err != nil {
			t.Fatalf("replay of %q: %v", f.Spec, err)
		}
		if out.Verdict != f.Verdict || out.Cycles != f.Cycles || out.Err != f.Err {
			t.Errorf("replay of %q diverged: got (%v, %d, %q), recorded (%v, %d, %q)",
				f.Spec, out.Verdict, out.Cycles, out.Err, f.Verdict, f.Cycles, f.Err)
		}
	}
}

// A frame input must fire on the machine side: the trial's outcome for
// a wildly malformed frame differs from the calibration run, and the
// campaign classifies at least one frame finding.
func TestFrameFamilyReachesTheStack(t *testing.T) {
	rep, err := Run(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	var frameFindings int
	for _, f := range rep.Findings {
		if spec, err := inject.ParseSpec(f.Spec); err == nil && (spec.Kind == inject.FuzzFrame || spec.Kind == inject.FuzzFrames) {
			frameFindings++
		}
	}
	if frameFindings == 0 {
		t.Error("no frame-family findings: mutated frames never perturbed the stack")
	}
	if rep.Verdicts[inject.ContainedGate] == 0 {
		t.Error("no contained-gate verdicts: gate family never hit the monitor")
	}
	if rep.Escapes() != 0 {
		t.Errorf("%d isolation escapes", rep.Escapes())
	}
}

// The coverage sink's feature folding is deterministic,
// transition-sensitive and hit-count-sensitive: identical streams
// agree, reordered streams differ, repeated edges change bucket, and
// unknown kinds contribute nothing.
func TestCovSinkFolding(t *testing.T) {
	stream := []trace.Event{
		{Kind: trace.EvBranch, Arg: 3, Arg2: 0},
		{Kind: trace.EvBranch, Arg: 3, Arg2: 1},
		{Kind: trace.EvCall, Arg: 4, Arg2: 3},
		{Kind: trace.EvGateEnter, Arg: 5, Op: 1},
		{Kind: trace.EvGateReject, Arg: 5, Arg2: trace.RejectNonEntry},
		{Kind: trace.EvPhase, Arg: 1}, // ignored
	}
	a, b := NewCovSink(), NewCovSink()
	for _, e := range stream {
		a.HandleEvent(e)
		b.HandleEvent(e)
	}
	if len(a.Features()) != 5 {
		t.Errorf("features = %d, want 5", len(a.Features()))
	}
	for i, e := range a.Features() {
		if b.Features()[i] != e {
			t.Fatal("identical streams produced different feature sequences")
		}
	}
	c := NewCovSink()
	for i := len(stream) - 1; i >= 0; i-- {
		c.HandleEvent(stream[i])
	}
	same := len(c.Features()) == len(a.Features())
	if same {
		for i := range a.Features() {
			if a.Features()[i] != c.Features()[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("feature folding is order-insensitive; transitions carry no signal")
	}

	// Running the same loop body more times moves its edges into higher
	// hit buckets — distinct features, the counting signal.
	d := NewCovSink()
	for i := 0; i < 10; i++ {
		for _, e := range stream[:2] {
			d.HandleEvent(e)
		}
	}
	once := NewCovSink()
	for _, e := range stream[:2] {
		once.HandleEvent(e)
	}
	g := newFeatureSet()
	g.addAll(once.Features())
	if n := g.addAll(d.Features()); n == 0 {
		t.Error("higher hit counts produced no new features")
	}

	if n := g.addAll(d.Features()); n != 0 {
		t.Errorf("re-merge added %d features, want 0", n)
	}
}
