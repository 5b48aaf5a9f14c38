package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"opec"
	"opec/internal/aces"
	"opec/internal/core"
	"opec/internal/exper"
	"opec/internal/fuzz"
	"opec/internal/inject"
	"opec/internal/monitor"
	"opec/internal/run"
)

// iterOut is what one pass over a workload's fixed job list produced.
type iterOut struct {
	ops, failed int
	// cycles totals the simulated cycles of every run the pass got a
	// result for; 0 when the workload's engine does not expose them.
	cycles uint64
	// output is the rendered result, compared byte for byte with the
	// recorded reference.
	output string
	// exact holds simulated counts that a simulator-speed change must
	// leave identical; they are compared with the recorded values.
	exact map[string]uint64
	// layer holds per-layer quantities the pass observed directly
	// (counts and ratios; times come from spans and the CPU profile).
	layer map[string]float64
	// problems explains each failure.
	problems []string
}

func newIterOut() *iterOut {
	return &iterOut{exact: map[string]uint64{}, layer: map[string]float64{}}
}

func (o *iterOut) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// iterCtx carries one pass's identity and its (possibly nil) span
// recorder.
type iterCtx struct {
	seed int64
	rec  *Recorder
	run  int
	root int
}

func (c *iterCtx) span(name, arg string, fn func() error) error {
	return c.rec.Do(c.run, c.root, name, arg, func(int) error { return safeCall(fn) })
}

// group runs fn inside a span named name whose children are fn's spans.
func (c *iterCtx) group(name string, fn func(inner *iterCtx) error) error {
	return c.rec.Do(c.run, c.root, name, "", func(id int) error {
		inner := *c
		inner.root = id
		return safeCall(func() error { return fn(&inner) })
	})
}

// safeCall runs fn, turning a panic in the program into an error so a
// failed operation is counted instead of killing the benchmark.
func safeCall(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// job is one call of a workload's job list.
type job struct {
	span, arg string
	isRun     bool // counts as an operation (a run), not a build
	fn        func() error
}

// runPool runs jobs as a closed loop on workers goroutines: each worker
// takes the next job of the fixed list as soon as it frees. It returns
// each job's error.
func runPool(c *iterCtx, workers int, jobs []job) []error {
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				errs[i] = c.span(jobs[i].span, jobs[i].arg, jobs[i].fn)
			}
		}()
	}
	wg.Wait()
	return errs
}

// workload is one named benchmark workload.
type workload struct {
	name    string
	workers int
	// seeded workloads derive their inputs from --seed; the others run
	// fixed firmware and ignore it.
	seeded bool
	// defaultSeed is the campaign seed used when --seed is not given.
	defaultSeed int64
	run         func(c *iterCtx) *iterOut
	// warm is the untimed warm-up before the measured passes; nil
	// means one pass of run.
	warm func(c *iterCtx) *iterOut
}

func (w *workload) warmUp() func(c *iterCtx) *iterOut {
	if w.warm != nil {
		return w.warm
	}
	return w.run
}

var workloads = []*workload{
	{name: wlEvalFull, workers: 2, run: evalFull},
	{name: wlInjectRestart, workers: 2, seeded: true, defaultSeed: 1, run: injectRestart, warm: injectWarm},
	{name: wlFuzzTCPEcho, workers: 2, seeded: true, defaultSeed: exper.FuzzSeed, run: fuzzTCPEcho},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// addRunCounters folds one finished run's machine and monitor counters
// into the pass's layer and exact maps.
func addRunCounters(o *iterOut, res *run.Result) {
	if res == nil || res.Machine == nil {
		return
	}
	cs := res.Machine.Counters()
	if res.Mon != nil {
		cs = append(cs, res.Mon.Stats.Counters()...)
	}
	for _, c := range cs {
		switch c.Name {
		case "mach.instrs", "monitor.switches", "monitor.words_synced", "monitor.emulations",
			"monitor.restarts", "monitor.restart_cycles":
			o.exact[c.Name] += c.Value
			o.layer[c.Name] += float64(c.Value)
		case "mach.proofs.elided", "mach.proofs.checked", "mach.tlb.hits", "mach.tlb.misses",
			"mach.bus.dev_cache_hits":
			o.layer[c.Name] += float64(c.Value)
		}
	}
	o.exact["mach.cycles"] += res.Cycles
	o.layer["mach.cycles"] += float64(res.Cycles)
	o.cycles += res.Cycles
}

// addProofs folds an OPEC build's static proof coverage.
func addProofs(o *iterOut, b *core.Build) {
	if b == nil || b.Proofs == nil {
		return
	}
	o.layer["proofs.proven"] += float64(b.Proofs.Proven())
	o.layer["proofs.static"] += float64(b.Proofs.Static())
}

// finishLayer derives the ratio metrics from the summed counts.
func finishLayer(o *iterOut) {
	if n := o.layer["proofs.static"]; n > 0 {
		o.layer["core.proven_pct"] = 100 * o.layer["proofs.proven"] / n
	}
	if n := o.layer["mach.tlb.hits"] + o.layer["mach.tlb.misses"]; n > 0 {
		o.layer["mach.tlb.hit_ratio"] = o.layer["mach.tlb.hits"] / n
	}
	if n := o.layer["trace.events"]; n > 0 {
		o.layer["trace.drop_ratio"] = o.layer["trace.dropped"] / n
	}
	delete(o.layer, "proofs.proven")
	delete(o.layer, "proofs.static")
}

// countErrs records every failed job.
func countErrs(o *iterOut, jobs []job, errs []error) {
	for i, err := range errs {
		if jobs[i].isRun {
			o.ops++
		}
		if err != nil {
			o.fail("%s %s: %v", jobs[i].span, jobs[i].arg, err)
		}
	}
}

// evalFull is `opec-bench -exp all` at Full scale on 2 workers: every
// cache entry point the experiments need is walked first as a closed
// job list, then the experiments and renderers only assemble.
func evalFull(c *iterCtx) *iterOut {
	o := newIterOut()
	const s = exper.Full
	h := exper.NewHarness(2)
	appList := exper.AppsFor(s)
	acesList := appList[:5] // the Section 6.4 comparison workloads

	var (
		mu       sync.Mutex
		runs     []*run.Result
		builds   []*core.Build
		caseStdy *opec.CaseStudyResult
	)
	keep := func(res *run.Result) {
		mu.Lock()
		runs = append(runs, res)
		mu.Unlock()
	}
	var jobs []job
	for _, a := range appList {
		jobs = append(jobs, job{span: "Cache.OPECBuild", arg: a.Name, fn: func() error {
			b, err := h.Cache.OPECBuild(a, s)
			mu.Lock()
			builds = append(builds, b)
			mu.Unlock()
			return err
		}})
	}
	for _, a := range appList {
		jobs = append(jobs, job{span: "Cache.OPECRun", arg: a.Name, isRun: true, fn: func() error {
			res, err := h.Cache.OPECRun(a, s)
			keep(res)
			return err
		}})
	}
	for _, a := range appList {
		jobs = append(jobs, job{span: "Cache.VanillaRun", arg: a.Name, isRun: true, fn: func() error {
			res, err := h.Cache.VanillaRun(a, s)
			keep(res)
			return err
		}})
	}
	for _, a := range acesList {
		for _, st := range exper.Strategies {
			jobs = append(jobs, job{span: "Cache.ACESBuild", arg: a.Name, fn: func() error {
				_, err := h.Cache.ACESBuild(a, s, st)
				return err
			}})
		}
	}
	for _, a := range acesList {
		for _, st := range exper.Strategies {
			jobs = append(jobs, job{span: "Cache.ACESRun", arg: a.Name, isRun: true, fn: func() error {
				res, err := h.Cache.ACESRun(a, s, st)
				keep(res)
				return err
			}})
		}
	}
	for _, a := range appList {
		jobs = append(jobs, job{span: "Cache.ProfileRun", arg: a.Name, isRun: true, fn: func() error {
			res, buf, prof, err := h.Cache.ProfileRun(a, s)
			if err != nil {
				return err
			}
			t := prof.Totals()
			mu.Lock()
			o.cycles += res.Cycles
			o.exact["trace.events"] += buf.Emitted()
			o.exact["trace.dropped"] += buf.Dropped()
			o.exact["profile.switch_cycles"] += t.SwitchCycles
			o.exact["profile.sync_cycles"] += t.SyncCycles
			mu.Unlock()
			return nil
		}})
	}
	for _, a := range acesList {
		jobs = append(jobs, job{span: "Cache.Trace", arg: a.Name, isRun: true, fn: func() error {
			_, err := h.Cache.Trace(a, s)
			return err
		}})
	}
	jobs = append(jobs, job{span: "opec.PinLockCaseStudy", arg: "PinLock", isRun: true, fn: func() error {
		res, err := opec.PinLockCaseStudy()
		caseStdy = res
		return err
	}})

	countErrs(o, jobs, runPool(c, 2, jobs))
	var sb strings.Builder
	err := c.span("exper.assemble_render", "", func() error {
		return assembleAll(h, s, &sb, caseStdy, o)
	})
	if err != nil {
		o.fail("assemble: %v", err)
	}
	o.output = sb.String()

	for _, res := range runs {
		addRunCounters(o, res)
	}
	for _, b := range builds {
		addProofs(o, b)
	}
	misses := uint64(h.Cache.Misses())
	o.exact["exper.cache_misses"] = misses
	o.layer["exper.cache_misses"] = float64(misses)
	// OPECBuild and ProfileRun each compile every app; the case study once.
	o.layer["core.compiles"] = float64(2*len(appList) + 1)
	for _, k := range []string{"trace.events", "trace.dropped", "profile.switch_cycles", "profile.sync_cycles"} {
		o.layer[k] = float64(o.exact[k])
	}
	finishLayer(o)
	return o
}

// assembleAll runs every experiment and renderer over the warmed cache,
// in `opec-bench -exp all` order and format.
func assembleAll(h *exper.Harness, s exper.AppSet, sb *strings.Builder, cs *opec.CaseStudyResult, o *iterOut) error {
	t1, err := h.Table1(s)
	if err != nil {
		return err
	}
	fmt.Fprintln(sb, exper.RenderTable1(t1))
	f9, err := h.Figure9(s)
	if err != nil {
		return err
	}
	fmt.Fprintln(sb, exper.RenderFigure9(f9))
	if n := len(f9); n > 0 && f9[n-1].App == "Average" {
		o.layer["exper.opec_overhead_pct"] = f9[n-1].RuntimePct
	}
	t2, err := h.Table2(s)
	if err != nil {
		return err
	}
	fmt.Fprintln(sb, exper.RenderTable2(t2))
	f10, err := h.Figure10(s)
	if err != nil {
		return err
	}
	fmt.Fprintln(sb, exper.RenderFigure10(f10))
	f11, err := h.Figure11(s)
	if err != nil {
		return err
	}
	fmt.Fprintln(sb, exper.RenderFigure11(f11))
	t3, err := h.Table3(s)
	if err != nil {
		return err
	}
	fmt.Fprintln(sb, exper.RenderTable3(t3))
	prof, err := h.Profile(s)
	if err != nil {
		return err
	}
	fmt.Fprintln(sb, exper.RenderProfile(prof))
	if cs == nil {
		return fmt.Errorf("case study produced no result")
	}
	fmt.Fprintln(sb, "Section 6.1 case study: arbitrary write to KEY from compromised Lock_Task")
	fmt.Fprintf(sb, "  under OPEC: blocked=%v (%s)\n", cs.OPECBlocked, cs.OPECFault)
	fmt.Fprintf(sb, "  under ACES: KEY overwritten=%v\n", cs.ACESKeyOverwritten)
	return nil
}

// injectRestart is the seeded restart-policy campaign at Quick scale on
// the fork engine, 2 workers. The plan phase pre-warms, through the
// cache, the compiles and clean calibration runs the campaign plans
// against; the campaign then finds them memoized.
func injectRestart(c *iterCtx) *iterOut {
	o := newIterOut()
	const s = exper.Quick
	h := exper.NewHarness(2)
	injectPlan(c, h, o)

	restart := monitor.Policy{Kind: monitor.RestartOperation}
	var rows []exper.InjectRow
	err := c.span("inject.campaign", "", func() (e error) {
		rows, e = h.InjectWith(s, inject.DefaultConfig(c.seed), restart, exper.EngineFork)
		return
	})
	if err != nil {
		o.ops++
		o.fail("campaign: %v", err)
		return o
	}
	_ = c.span("exper.assemble_render", "", func() error {
		o.output = exper.RenderInject(rows)
		return nil
	})
	for _, r := range rows {
		o.ops += r.Trials
		for v, n := range r.Counts {
			o.exact["inject.verdict."+verdictNames[v]] += uint64(n)
		}
		o.exact["monitor.restarts"] += r.Restarts
		for _, oc := range r.Outcomes {
			o.exact["mach.cycles"] += oc.Cycles
			o.exact["monitor.restart_cycles"] += oc.RestartCycles
		}
		if r.Scheme == "OPEC" {
			// Seed-independent: OPEC contains every trial. ACES-2 escapes
			// are the expected over-privilege result.
			if bad := r.Escapes() + r.Count(inject.CrashedMonitor); bad > 0 {
				o.failed += bad
				o.problems = append(o.problems, fmt.Sprintf("%s under OPEC: %d uncontained trials (first escape: %s)", r.App, bad, r.FirstEscape))
			}
		}
	}
	o.cycles = o.exact["mach.cycles"]
	o.exact["inject.trials"] = uint64(o.ops)
	misses := uint64(h.Cache.Misses())
	o.exact["exper.cache_misses"] = misses
	for k, v := range o.exact {
		o.layer[k] = float64(v)
	}
	finishLayer(o)
	return o
}

// injectPlan pre-warms, through h's cache, the compiles and clean
// calibration runs the Quick campaign plans against; a failed one is a
// failed operation of o.
func injectPlan(c *iterCtx, h *exper.Harness, o *iterOut) {
	const s = exper.Quick
	appList := exper.AppsFor(s)
	var jobs []job
	for _, a := range appList {
		jobs = append(jobs, job{span: "Cache.OPECRun", arg: a.Name, fn: func() error {
			_, err := h.Cache.OPECRun(a, s) // runs the workload's Check
			return err
		}})
	}
	for _, a := range appList[:5] {
		jobs = append(jobs, job{span: "Cache.ACESRun", arg: a.Name, fn: func() error {
			_, err := h.Cache.ACESRun(a, s, aces.FilenameNoOpt)
			return err
		}})
	}
	var errs []error
	_ = c.group("inject.plan", func(inner *iterCtx) error {
		errs = runPool(inner, 2, jobs)
		return nil
	})
	for i, err := range errs {
		if err != nil {
			o.fail("calibration %s %s: %v", jobs[i].span, jobs[i].arg, err)
		}
	}
}

// injectWarm is inject-restart's warm-up: the plan phase alone, on a
// harness of its own.
func injectWarm(c *iterCtx) *iterOut {
	o := newIterOut()
	injectPlan(c, exper.NewHarness(2), o)
	return o
}

// fuzzTCPEcho is the standard guided fuzz campaign against TCP-Echo at
// Quick scale, 2 workers, abort policy.
func fuzzTCPEcho(c *iterCtx) *iterOut {
	o := newIterOut()
	h := exper.NewHarness(2)
	var rep *fuzz.Report
	err := c.span("fuzz.campaign", "TCP-Echo", func() error {
		// The zero Policy is the abort baseline.
		r, err := h.Fuzz(exper.Quick, c.seed, exper.FuzzBudget, false, monitor.Policy{}, "")
		rep = r
		return err
	})
	if err != nil || rep == nil {
		o.ops++
		o.fail("fuzz campaign: %v", err)
		return o
	}
	_ = c.span("exper.assemble_render", "", func() error {
		o.output = exper.RenderFuzz(rep)
		return nil
	})
	o.ops = rep.Inputs
	if n := rep.Escapes(); n > 0 {
		o.failed += n
		o.problems = append(o.problems, fmt.Sprintf("%d fuzz inputs escaped isolation", n))
	}
	if rep.CleanCycles == 0 {
		o.fail("calibration run reported no cycles")
	}
	o.exact["fuzz.unique_edges"] = uint64(rep.UniqueEdges)
	o.exact["fuzz.inputs"] = uint64(rep.Inputs)
	o.exact["fuzz.corpus_frames"] = uint64(rep.CorpusFrames)
	o.exact["fuzz.corpus_gates"] = uint64(rep.CorpusGates)
	o.exact["fuzz.findings"] = uint64(rep.TotalFindings)
	for v, n := range rep.Verdicts {
		o.exact["inject.verdict."+verdictNames[v]] += uint64(n)
	}
	for k, v := range o.exact {
		o.layer[k] = float64(v)
	}
	finishLayer(o)
	return o
}
