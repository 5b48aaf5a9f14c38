package main

import (
	"fmt"
	"regexp"
)

// Metric describes one reported quantity: its unit, which direction is
// better, and — for a per-layer metric — the end-to-end metric it is
// expected to move and on which workloads. The catalogue is the single
// source of the names BENCHMARK.json declares; catalog_test.go keeps
// the two in step.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Moves names the end-to-end metric a change in this layer metric
	// should move, and on which workloads (empty for end-to-end metrics).
	Moves string
}

// nameRE is the metric-name grammar.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// validName reports whether s is a legal metric name: the grammar
// above, starting with a letter or digit, at most 64 characters.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 || !nameRE.MatchString(s) {
		return false
	}
	c := s[0]
	return c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9'
}

// endToEnd are the metrics every workload reports in an untraced run
// (the last output line's "metrics" with --trace 0). Each applies to
// all four workloads and is never zero.
var endToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "scaled_wall_s", Unit: "s", Better: "lower"},
	{Name: "scaled_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "host_alloc_mb", Unit: "MB", Better: "lower"},
}

// workloadOnly are end-to-end metrics that apply to some workloads
// only. They are printed by name in the untraced run's report; the
// deterministic ones are also per-layer metrics (fuzz.unique_edges,
// exper.opec_overhead_pct) so the traced JSON line carries them.
var workloadOnly = []Metric{
	{Name: "sim_mcycles_per_s", Unit: "Mcycle/s", Better: "higher"},
	{Name: "trials_per_s", Unit: "1/s", Better: "higher"},
	{Name: "inputs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "unique_edges", Unit: "count", Better: "higher"},
	{Name: "opec_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "failed_frac", Unit: "ratio", Better: "lower"},
}

// Workload names, as BENCHMARK.json lists them.
const (
	wlEvalFull      = "eval-full"
	wlInjectRestart = "inject-restart"
	wlFuzzTCPEcho   = "fuzz-tcpecho"
)

// appNames is the seven workloads' application order.
var appNames = []string{"PinLock", "Animation", "FatFs-uSD", "LCD-uSD", "TCP-Echo", "Camera", "CoreMark"}

// verdictNames mirrors the campaign verdict taxonomy (inject.Verdict).
var verdictNames = []string{
	"untriggered", "contained-mpu", "contained-sanitize", "contained-gate",
	"recovered", "benign", "corrupted", "hung", "escaped", "crashed-monitor",
}

// perLayer are the traced run's metrics (--trace 1). A workload that
// never enters a layer reports 0 for it; the report marks it n/a.
var perLayer = buildPerLayer()

func buildPerLayer() []Metric {
	const (
		compile  = "scaled_wall_s on eval-full (at most ~2%); no end-to-end metric beyond noise"
		compute  = "scaled_wall_s and sim_mcycles_per_s on eval-full (its CoreMark runs: sim.host_s.CoreMark)"
		simulate = "scaled_wall_s, scaled_ops_per_s on eval-full, inject-restart, fuzz-tcpecho"
		overhead = "opec_overhead_pct on eval-full"
		recovery = "opec_overhead_pct on eval-full; scaled_ops_per_s (trials_per_s) on inject-restart"
		tracebus = "scaled_wall_s on eval-full (profile); scaled_ops_per_s (inputs_per_s) on fuzz-tcpecho"
		campaign = "scaled_ops_per_s (trials_per_s) on inject-restart"
		fuzzing  = "scaled_ops_per_s (inputs_per_s) and unique_edges on fuzz-tcpecho"
		harness  = "scaled_wall_s on eval-full"
		gc       = "host_alloc_mb and scaled_wall_s on every workload"
	)
	ms := []Metric{
		{"apps.new_s", "s", "lower", compile},
		{"core.compile_s", "s", "lower", compile},
		{"core.compiles", "count", "lower", compile},
		{"aces.compile_s", "s", "lower", compile},
		{"core.proven_pct", "%", "higher", compute},
		{"mach.proofs.elided", "count", "higher", compute},
		{"mach.proofs.checked", "count", "lower", compute},
		{"mach.tlb.hits", "count", "higher", compute},
		{"mach.tlb.misses", "count", "lower", compute},
		{"mach.tlb.hit_ratio", "ratio", "higher", compute},
		{"mach.bus.dev_cache_hits", "count", "higher", compute},
		{"sim.vanilla_s", "s", "lower", simulate},
		{"sim.opec_s", "s", "lower", simulate},
		{"sim.aces_s", "s", "lower", simulate},
	}
	for _, a := range appNames {
		ms = append(ms, Metric{"sim.host_s." + a, "s", "lower", simulate})
	}
	ms = append(ms,
		Metric{"mach.host_ns_per_kcycle", "ns", "lower", simulate},
		Metric{"mach.instrs", "count", "lower", simulate + " (exact: must not change)"},
		Metric{"mach.cycles", "count", "lower", simulate + " (exact: must not change)"},
		Metric{"monitor.switches", "count", "lower", overhead},
		Metric{"monitor.words_synced", "count", "lower", overhead},
		Metric{"monitor.emulations", "count", "lower", overhead},
		Metric{"monitor.restarts", "count", "lower", recovery},
		Metric{"monitor.restart_cycles", "count", "lower", recovery},
		Metric{"profile.switch_cycles", "count", "lower", overhead},
		Metric{"profile.sync_cycles", "count", "lower", overhead},
		Metric{"trace.events", "count", "lower", tracebus},
		Metric{"trace.dropped", "count", "lower", tracebus},
		Metric{"trace.drop_ratio", "ratio", "lower", tracebus},
		Metric{"trace.cpu_share", "ratio", "lower", tracebus},
		Metric{"inject.plan_s", "s", "lower", campaign},
		Metric{"inject.campaign_s", "s", "lower", campaign},
		Metric{"inject.trials", "count", "higher", campaign},
	)
	for _, v := range verdictNames {
		ms = append(ms, Metric{"inject.verdict." + v, "count", "lower", campaign})
	}
	ms = append(ms,
		Metric{"mach.snapshot.cpu_share", "ratio", "lower", campaign},
		Metric{"fuzz.campaign_s", "s", "lower", fuzzing},
		Metric{"fuzz.inputs", "count", "higher", fuzzing},
		Metric{"fuzz.unique_edges", "count", "higher", fuzzing},
		Metric{"fuzz.corpus_frames", "count", "higher", fuzzing},
		Metric{"fuzz.corpus_gates", "count", "higher", fuzzing},
		Metric{"fuzz.findings", "count", "higher", fuzzing},
		Metric{"fuzz.cpu_share", "ratio", "lower", fuzzing},
		Metric{"exper.opec_overhead_pct", "%", "lower", overhead},
		Metric{"exper.assemble_render_s", "s", "lower", harness},
		Metric{"exper.cache_misses", "count", "lower", harness},
		Metric{"exper.worker_util", "ratio", "higher", harness},
		Metric{"runtime.gc_cpu_share", "ratio", "lower", gc},
	)
	return ms
}

// catalogErrors checks every catalogue entry against the name grammar
// and for duplicates across all lists.
func catalogErrors() []error {
	var errs []error
	seen := map[string]bool{}
	for _, list := range [][]Metric{endToEnd, workloadOnly, perLayer} {
		for _, m := range list {
			if !validName(m.Name) {
				errs = append(errs, fmt.Errorf("metric %q: bad name", m.Name))
			}
			if seen[m.Name] {
				errs = append(errs, fmt.Errorf("metric %q: declared twice", m.Name))
			}
			seen[m.Name] = true
		}
	}
	return errs
}
