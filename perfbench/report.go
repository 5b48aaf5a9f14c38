package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// MetricValue is one metric of the result line.
type MetricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last output line.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]MetricValue `json:"metrics"`
}

type reportOut struct {
	text   string
	result Result
}

// check compares one pass's output with the recorded reference and
// with the run's first pass; each mismatch is one failed operation.
// Exact counts are compared in the report, where a difference is
// flagged but not failed: a change to the model may move them on
// purpose.
func check(st *state, first, o *iterOut) []string {
	var failures []string
	if st.refOut != nil && o.output != *st.refOut {
		failures = append(failures, "output differs from reference "+st.refName+".txt: "+firstDiff(*st.refOut, o.output))
	}
	if o != first && o.output != first.output {
		failures = append(failures, "output differs between passes of one run: "+firstDiff(first.output, o.output))
	}
	return failures
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, w, g)
		}
	}
	return "no line differs"
}

// simScheme maps a run span to the scheme whose simulation it timed.
func simScheme(name string) string {
	switch name {
	case "Cache.VanillaRun", "run.Vanilla":
		return "vanilla"
	case "Cache.OPECRun", "run.OPECPrecompiled":
		return "opec"
	case "Cache.ACESRun", "run.ACESPrecompiled":
		return "aces"
	}
	return ""
}

// spanLayer derives the span-based per-layer metrics of one traced pass.
func spanLayer(spans []Span, w *workload, run int) map[string]float64 {
	out := map[string]float64{}
	var root *Span
	for i := range spans {
		if spans[i].Run == run && spans[i].Parent == 0 {
			root = &spans[i]
		}
	}
	if root == nil {
		return out
	}
	var jobs float64
	for _, s := range spans {
		if s.Run != run {
			continue
		}
		d := float64(s.Dur()) / 1e9
		if sc := simScheme(s.Name); sc != "" {
			// inject-restart's calibration runs are its plan phase,
			// timed by inject.plan_s.
			if w.name != wlInjectRestart {
				out["sim."+sc+"_s"] += d
				out["sim.host_s."+s.Arg] += d
			}
		}
		switch s.Name {
		case "inject.plan":
			out["inject.plan_s"] += d
		case "inject.campaign":
			out["inject.campaign_s"] += d
		case "fuzz.campaign":
			out["fuzz.campaign_s"] += d
		case "exper.assemble_render":
			out["exper.assemble_render_s"] += d
		}
		if s.Parent == root.ID {
			jobs += d
		}
	}
	if w.name == wlEvalFull && root.Dur() > 0 {
		out["exper.worker_util"] = jobs / (float64(w.workers) * float64(root.Dur()) / 1e9)
	}
	out["bench.unattributed_share"] = float64(SelfTimes(spans)[root.ID]) / float64(root.Dur())
	return out
}

// report turns a run's measurements into the printed report and the
// result line.
func report(st *state, m *measured) reportOut {
	var sb strings.Builder
	w := st.w
	res := Result{Metrics: map[string]MetricValue{}}

	first := m.iters[0].out
	var untraced, traced []iteration
	var problems []string
	for _, it := range m.iters {
		fails := check(st, first, it.out)
		res.Attempted += it.out.ops
		res.Failed += it.out.failed + len(fails)
		problems = append(problems, it.out.problems...)
		problems = append(problems, fails...)
		if it.traced {
			traced = append(traced, it)
		} else {
			untraced = append(untraced, it)
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = max(res.Failed, 1)
	}
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = res.Failed == 0

	fmt.Fprintf(&sb, "perfbench %s  seed=%d  seconds=%g  trace=%v  passes=%d (traced %d)  workers=%d\n",
		w.name, st.cfg.seed, st.cfg.seconds, st.cfg.trace, len(m.iters), len(traced), w.workers)
	if st.refOut == nil {
		fmt.Fprintf(&sb, "reference: none recorded for %s; seed-independent checks only\n", st.refName)
	} else {
		fmt.Fprintf(&sb, "reference: %s\n", st.refName)
	}

	// End-to-end metrics come from the untraced passes.
	e2e := map[string]float64{}
	var walls, rates, allocs, mcps []float64
	for _, it := range untraced {
		walls = append(walls, it.wall)
		rates = append(rates, float64(it.out.ops)/it.wall)
		allocs = append(allocs, it.allocMB)
		if it.out.cycles > 0 {
			mcps = append(mcps, float64(it.out.cycles)/it.wall/1e6)
		}
	}
	// Timings are scaled to the reference host speed by the run's
	// host-speed probe (hostspeed.go).
	var probes []float64
	for _, it := range m.iters {
		probes = append(probes, it.probe)
	}
	scale := 1.0
	if p := median(probes); p > 0 {
		scale = probeRefSeconds / p
	}
	e2e["setup_s"] = m.setup
	e2e["scaled_wall_s"] = median(walls) * scale
	e2e["scaled_ops_per_s"] = median(rates) / scale
	e2e["host_alloc_mb"] = median(allocs)
	fmt.Fprintf(&sb, "pass wall_s:")
	for _, it := range m.iters {
		mark := ""
		if it.traced {
			mark = "t"
		}
		fmt.Fprintf(&sb, " %.4f%s", it.wall, mark)
	}
	fmt.Fprintf(&sb, "\npass cpu_s:")
	for _, it := range m.iters {
		fmt.Fprintf(&sb, " %.4f", it.cpu)
	}
	fmt.Fprintf(&sb, "\npass probe_s:")
	for _, it := range m.iters {
		fmt.Fprintf(&sb, " %.5f", it.probe)
	}
	fmt.Fprintf(&sb, "\nhost probe: median %.5f s (reference %.5f s), scale %.4f; unscaled wall_s %.6g, ops_per_s %.6g",
		median(probes), probeRefSeconds, scale, median(walls), median(rates))

	fmt.Fprintf(&sb, "\nend-to-end (median of %d untraced passes):\n", len(untraced))
	for _, mt := range endToEnd {
		fmt.Fprintf(&sb, "  %-24s %14.6g %s\n", mt.Name, e2e[mt.Name], mt.Unit)
	}
	last := m.iters[len(m.iters)-1].out
	only := map[string]string{
		"failed_frac": fmt.Sprintf("%.6g", float64(res.Failed)/float64(res.Attempted)),
	}
	if len(mcps) > 0 {
		only["sim_mcycles_per_s"] = fmt.Sprintf("%.6g", median(mcps)/scale)
	}
	switch w.name {
	case wlInjectRestart:
		only["trials_per_s"] = fmt.Sprintf("%.6g", e2e["scaled_ops_per_s"])
	case wlFuzzTCPEcho:
		only["inputs_per_s"] = fmt.Sprintf("%.6g", e2e["scaled_ops_per_s"])
		only["unique_edges"] = fmt.Sprint(last.exact["fuzz.unique_edges"])
	case wlEvalFull:
		only["opec_overhead_pct"] = fmt.Sprintf("%.6g", last.layer["exper.opec_overhead_pct"])
	}
	for _, mt := range workloadOnly {
		v, ok := only[mt.Name]
		if !ok {
			v = "n/a"
		}
		fmt.Fprintf(&sb, "  %-24s %14s %s\n", mt.Name, v, mt.Unit)
	}

	layer := map[string]float64{}
	if len(traced) > 0 {
		layer = perLayerValues(w, m, traced)
		fmt.Fprintf(&sb, "per-layer (traced passes: %d; 0 = layer not entered by this workload):\n", len(traced))
		for _, mt := range perLayer {
			v, ok := layer[mt.Name]
			shown := "n/a"
			if ok {
				shown = formatValue(v)
			}
			fmt.Fprintf(&sb, "  %-30s %14s %-6s moves %s\n", mt.Name, shown, mt.Unit, mt.Moves)
		}
		writeSpanTable(&sb, m.rec.Spans())
		writeFold(&sb, &m.fold)
		tw, uw := medianWall(traced), median(walls)
		if uw > 0 {
			fmt.Fprintf(&sb, "tracing overhead: traced %.4f s - untraced %.4f s = %.4f s (%.2f%%)\n",
				tw, uw, tw-uw, 100*(tw-uw)/uw)
		}
		fmt.Fprintf(&sb, "root span unattributed self time: %.2f%% of traced wall\n", 100*layer["bench.unattributed_share"])
	}

	fmt.Fprintf(&sb, "exact counts (last pass):\n")
	drifted := 0
	for _, k := range sortedKeys(last.exact) {
		status := "no reference"
		if st.refExact != nil {
			if want, ok := st.refExact[k]; ok && want == last.exact[k] {
				status = "ok"
			} else {
				status = fmt.Sprintf("DIFFERS (recorded %d)", want)
				drifted++
			}
		}
		fmt.Fprintf(&sb, "  %-34s %16d  %s\n", k, last.exact[k], status)
	}
	if drifted > 0 {
		fmt.Fprintf(&sb, "exact-count drift flagged: %d counts differ from the recorded values\n", drifted)
	}
	for _, e := range m.errs {
		fmt.Fprintf(&sb, "harness: %s\n", e)
	}
	for _, p := range dedupe(problems) {
		fmt.Fprintf(&sb, "FAILED: %s\n", p)
	}
	fmt.Fprintf(&sb, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)

	if st.cfg.trace {
		for _, mt := range perLayer {
			res.Metrics[mt.Name] = MetricValue{Value: finite(layer[mt.Name]), Unit: mt.Unit}
		}
	} else {
		for _, mt := range endToEnd {
			res.Metrics[mt.Name] = MetricValue{Value: finite(e2e[mt.Name]), Unit: mt.Unit}
		}
	}
	return reportOut{text: sb.String(), result: res}
}

// perLayerValues combines, over the traced passes, the pass-observed
// counts, the span timings (median per pass) and the CPU profile fold
// (per-pass mean CPU seconds, or shares of all samples).
func perLayerValues(w *workload, m *measured, traced []iteration) map[string]float64 {
	out := map[string]float64{}
	for k, v := range traced[len(traced)-1].out.layer {
		out[k] = v
	}
	spans := m.rec.Spans()
	perRun := map[string][]float64{}
	for i, it := range m.iters {
		if !it.traced {
			continue
		}
		for k, v := range spanLayer(spans, w, i) {
			perRun[k] = append(perRun[k], v)
		}
	}
	for k, vs := range perRun {
		out[k] = median(vs)
	}
	sim := out["sim.vanilla_s"] + out["sim.opec_s"] + out["sim.aces_s"]
	if c := out["mach.cycles"]; sim > 0 && c > 0 {
		out["mach.host_ns_per_kcycle"] = sim * 1e9 / (c / 1e3)
	}
	// Construction and compiles run inside cache and campaign calls, so
	// they are estimated from the CPU profile (per-pass mean CPU seconds).
	if m.fold.Total > 0 {
		n := float64(len(traced))
		out["apps.new_s"] = m.fold.Construct / n
		out["core.compile_s"] = m.fold.Compile / n
		out["aces.compile_s"] = m.fold.ACES / n
		out["trace.cpu_share"] = m.fold.Share("trace")
		out["fuzz.cpu_share"] = m.fold.Share("fuzz")
		out["mach.snapshot.cpu_share"] = m.fold.Share("mach/snapshot")
	}
	if m.busyCPU > 0 {
		out["runtime.gc_cpu_share"] = m.gcCPU / m.busyCPU
	}
	return out
}

// formatValue prints counts as exact integers and other values with
// six significant digits.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

func medianWall(its []iteration) float64 {
	var ws []float64
	for _, it := range its {
		ws = append(ws, it.wall)
	}
	return median(ws)
}

// writeSpanTable prints every span name's count, total and self time.
func writeSpanTable(sb *strings.Builder, spans []Span) {
	tot := Totals(spans)
	fmt.Fprintf(sb, "spans (all traced passes):\n  %-26s %6s %12s %12s\n", "name", "count", "total_s", "self_s")
	for _, k := range sortedKeys(tot) {
		t := tot[k]
		fmt.Fprintf(sb, "  %-26s %6d %12.4f %12.4f\n", k, t.Count, t.Total, t.Self)
	}
}

// writeFold prints the CPU profile folded by layer.
func writeFold(sb *strings.Builder, f *Fold) {
	fmt.Fprintf(sb, "cpu profile by layer (%.2f CPU s sampled):\n", f.Total)
	type kv struct {
		k string
		v float64
	}
	var kvs []kv
	for k, v := range f.Buckets {
		kvs = append(kvs, kv{k, v})
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].v != kvs[j].v {
			return kvs[i].v > kvs[j].v
		}
		return kvs[i].k < kvs[j].k
	})
	for _, e := range kvs {
		fmt.Fprintf(sb, "  %-16s %8.3f s %6.1f%%\n", e.k, e.v, 100*e.v/f.Total)
	}
}

func dedupe(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
