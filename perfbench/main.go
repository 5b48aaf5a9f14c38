// Command perfbench is the repository benchmark. It runs one named
// workload as a closed loop over its fixed job list for a set time,
// checks the simulated outputs against recorded references, and prints
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run) by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload eval-full --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload inject-restart --seed 1 --seconds 30 --trace 1
//	bash perfbench/run.sh --workload fuzz-tcpecho --seed 3 --record
//
// Workloads: eval-full, inject-restart, fuzz-tcpecho
// (see README.md).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// launchEnv carries the wall-clock time (ns since the epoch) at which
// the wrapper or the parent launched this process, so set-up time
// includes process start-up and package initialisation.
const launchEnv = "PERFBENCH_LAUNCH_NS"

// setupProbes is how many extra processes measure set-up per run; the
// reported set-up time is the median of these and the run's own.
const setupProbes = 14

var processStart = time.Now()

type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	record     bool
	setupProbe bool
	refDir     string // recorded references, relative to the repository root
	outDir     string // spans and CPU profiles
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: eval-full | inject-restart | fuzz-tcpecho")
	flag.Int64Var(&cfg.seed, "seed", -1, "input seed (inject-restart and fuzz-tcpecho campaign seed; -1 = the workload's default)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long to measure; iterations start until this much time has passed")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: spans, CPU profile and per-layer metrics")
	flag.BoolVar(&cfg.record, "record", false, "run one iteration and (re)write the workload's reference files")
	flag.BoolVar(&cfg.setupProbe, "setup-probe", false, "set up, print the set-up time and exit (used to sample set-up time)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.refDir = filepath.Join("perfbench", "ref")
	cfg.outDir = filepath.Join(".bench_build", "perfbench")

	st, err := setup(&cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	own := sinceLaunch()
	if cfg.setupProbe {
		fmt.Println(own)
		return 0
	}
	if cfg.record {
		if err := record(st); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	setups, err := probeSetup(&cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	res := measure(st)
	res.setup = median(append(setups, own))
	rep := report(st, res)
	fmt.Print(rep.text)
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.result.Correct {
		return 1
	}
	return 0
}

// sinceLaunch returns the seconds since this process was launched.
func sinceLaunch() float64 {
	t0 := processStart
	if ns, err := strconv.ParseInt(os.Getenv(launchEnv), 10, 64); err == nil {
		t0 = time.Unix(0, ns)
	}
	return time.Since(t0).Seconds()
}

// probeSetup launches the benchmark binary setupProbes times in
// set-up-only mode and returns each process's set-up time.
func probeSetup(cfg *config) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("setup probe: %w", err)
	}
	args := []string{"--setup-probe", "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10)}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", launchEnv, time.Now().UnixNano()))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

// state is a set-up workload: everything decided before the first
// workload call.
type state struct {
	cfg      *config
	w        *workload
	refOut   *string           // reference output, nil when none is recorded
	refExact map[string]uint64 // recorded exact counts, nil when none
	refName  string
}

// setup resolves the workload and seed and loads the references.
func setup(cfg *config) (*state, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seed < 0 {
		cfg.seed = w.defaultSeed
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	// The process gets as many processors as the workload has workers.
	runtime.GOMAXPROCS(w.workers)
	st := &state{cfg: cfg, w: w, refName: refBase(w, cfg.seed)}
	if cfg.record {
		return st, nil
	}
	out, err := os.ReadFile(filepath.Join(cfg.refDir, st.refName+".txt"))
	switch {
	case err == nil:
		s := string(out)
		st.refOut = &s
	case errors.Is(err, os.ErrNotExist) && w.seeded:
		// A held-out seed: only the seed-independent checks apply.
	default:
		return nil, fmt.Errorf("reference output: %w", err)
	}
	counts, err := os.ReadFile(filepath.Join(cfg.refDir, st.refName+".counts"))
	switch {
	case err == nil:
		if st.refExact, err = parseCounts(counts); err != nil {
			return nil, fmt.Errorf("reference counts %s: %w", st.refName, err)
		}
	case errors.Is(err, os.ErrNotExist) && w.seeded:
	default:
		return nil, fmt.Errorf("reference counts: %w", err)
	}
	return st, nil
}

// refBase names a workload's reference files: seeded workloads keep
// one reference per seed.
func refBase(w *workload, seed int64) string {
	if w.seeded {
		return fmt.Sprintf("%s-seed%d", w.name, seed)
	}
	return w.name
}

// parseCounts reads "name value" lines.
func parseCounts(b []byte) (map[string]uint64, error) {
	m := map[string]uint64{}
	for i, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 2 {
			return nil, fmt.Errorf("line %d: want \"name value\"", i+1)
		}
		v, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		m[f[0]] = v
	}
	return m, nil
}

func formatCounts(m map[string]uint64) string {
	var sb strings.Builder
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(&sb, "%s %d\n", k, m[k])
	}
	return sb.String()
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// record runs one untraced iteration and writes its output and exact
// counts as the workload's reference.
func record(st *state) error {
	o := runPass(st.w.name, st.w.run, &iterCtx{seed: st.cfg.seed})
	if o.failed > 0 {
		return fmt.Errorf("not recording a failing run: %s", strings.Join(o.problems, "; "))
	}
	if err := os.MkdirAll(st.cfg.refDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(st.cfg.refDir, st.refName)
	if err := os.WriteFile(base+".txt", []byte(o.output), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".counts", []byte(formatCounts(o.exact)), 0o644)
}

// runPass runs one pass; a panic anywhere in it is a failed operation.
func runPass(name string, run func(c *iterCtx) *iterOut, c *iterCtx) (o *iterOut) {
	defer func() {
		if r := recover(); r != nil {
			o = newIterOut()
			o.ops = 1
			o.fail("%s pass panicked: %v", name, r)
		}
	}()
	return run(c)
}

// iteration is one pass's measurements.
type iteration struct {
	traced  bool
	wall    float64
	cpu     float64 // process user+system CPU seconds
	probe   float64 // host-speed probe chunk seconds, just before the pass
	allocMB float64
	out     *iterOut
}

// measured is a whole run's measurements.
type measured struct {
	iters []iteration
	setup float64
	rec   *Recorder
	fold  Fold
	// gcCPU and busyCPU accumulate the runtime's GC and non-idle CPU
	// seconds over the traced passes.
	gcCPU, busyCPU float64
	errs           []string // harness errors (profiling, writing traces)
}

// measure runs the workload closed-loop: a new pass of the job list
// starts as soon as the previous one ends, until the time is up. A
// traced run alternates untraced and traced passes, so the tracing
// overhead is measured under the same conditions; the first, cold pass
// is untraced.
func measure(st *state) *measured {
	m := &measured{}
	if st.cfg.trace {
		m.rec = NewRecorder()
	}
	minIters := 1
	if st.cfg.trace {
		minIters = 2
	}
	var cpu0, cpu1 [3]float64
	var walls []float64
	hp := newHostProbe(st.w.workers)
	start := time.Now()
	// A fresh process's first pass is often 5-25% slower than the next,
	// so an untimed warm-up comes first. Its time counts against
	// --seconds.
	runPass(st.w.name+" warm-up", st.w.warmUp(), &iterCtx{seed: st.cfg.seed, run: -1})
	// A pass starts only when it is expected (at the median pass time so
	// far) to end within the time, so a run lasts about --seconds.
	for it := 0; it < minIters || time.Since(start).Seconds()+median(walls) <= st.cfg.seconds; it++ {
		traced := st.cfg.trace && it%2 == 1
		c := &iterCtx{seed: st.cfg.seed, run: it}
		var prof bytes.Buffer
		if traced {
			c.rec = m.rec
			readCPUClasses(&cpu0)
			if err := pprof.StartCPUProfile(&prof); err != nil {
				m.errs = append(m.errs, "cpu profile: "+err.Error())
			}
		}
		// Each pass starts from a collected heap. Without this, where a
		// pass's objects land varies from pass to pass, and with it the
		// cost of the same work: fuzz-tcpecho passes in one process took
		// either about 5 or about 11 CPU seconds, the slow ones with far
		// more time in mach.(*Clock).Advance and trace.(*Buffer).Emit
		// while the host probe ran at the same speed.
		runtime.GC()
		probe := hp.measure()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		c0 := processCPU()
		t0 := time.Now()
		root := c.rec.Begin(it, 0, st.w.name, "")
		c.root = root
		o := runPass(st.w.name, st.w.run, c)
		c.rec.End(root)
		wall := time.Since(t0).Seconds()
		cpu := processCPU() - c0
		runtime.ReadMemStats(&ms1)
		if traced {
			pprof.StopCPUProfile()
			readCPUClasses(&cpu1)
			m.gcCPU += cpu1[0] - cpu0[0]
			m.busyCPU += (cpu1[1] - cpu0[1]) - (cpu1[2] - cpu0[2])
			if p, err := parseCPUProfile(prof.Bytes()); err != nil {
				m.errs = append(m.errs, err.Error())
			} else {
				m.fold.add(p)
			}
			if err := writeArtifact(st, fmt.Sprintf("run%d.cpu.pprof", it), prof.Bytes()); err != nil {
				m.errs = append(m.errs, err.Error())
			}
		}
		walls = append(walls, wall)
		m.iters = append(m.iters, iteration{
			traced: traced, wall: wall, cpu: cpu, probe: probe, out: o,
			allocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6,
		})
	}
	if m.rec != nil {
		b, err := m.rec.JSON()
		if err == nil {
			err = writeArtifact(st, "spans.json", b)
		}
		if err != nil {
			m.errs = append(m.errs, err.Error())
		}
	}
	return m
}

// processCPU returns the user plus system CPU seconds this process has
// used so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// readCPUClasses reads the runtime's GC, total and idle CPU-second
// estimates.
func readCPUClasses(out *[3]float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
}

// writeArtifact writes a trace artifact under the output directory.
func writeArtifact(st *state, name string, data []byte) error {
	if err := os.MkdirAll(st.cfg.outDir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-%s", st.w.name, st.cfg.seed, name)
	return os.WriteFile(filepath.Join(st.cfg.outDir, base), data, 0o644)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// finite maps NaN and infinities to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
