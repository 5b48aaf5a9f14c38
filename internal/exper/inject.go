package exper

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"opec/internal/aces"
	"opec/internal/apps"
	"opec/internal/inject"
	"opec/internal/monitor"
	"opec/internal/trace"
)

// The fault-injection campaign experiment: every workload's seeded
// trial catalogue (internal/inject) replayed under OPEC with a chosen
// recovery policy and under the merged-region ACES configuration
// (ACES-2, the §6.1 over-privilege vector), aggregated into one
// containment row per workload × scheme. Trials are symbolic specs, so
// a campaign at one seed is exactly reproducible and any row's first
// escape can be replayed alone with `opec-run -inject`.

// InjectRow aggregates one workload × scheme leg of a campaign.
type InjectRow struct {
	App    string `json:"app"`
	Scheme string `json:"scheme"` // "OPEC" | "ACES-2"
	Policy string `json:"policy"` // OPEC recovery policy; "-" under ACES
	Trials int    `json:"trials"`
	// Counts histograms the trial verdicts, indexed by inject.Verdict.
	Counts [inject.NumVerdicts]int `json:"counts"`
	// Restarts/Quarantines total the recovery-policy activity.
	Restarts    uint64 `json:"restarts"`
	Quarantines uint64 `json:"quarantines"`
	// FirstEscape is the replay spec of the row's first escaped trial
	// (`opec-run -inject <spec>` reproduces it), empty when contained.
	FirstEscape string `json:"first_escape,omitempty"`
	// SnapID is the pre-injection checkpoint identity when the row ran
	// on the fork engine (empty on the power-on engine). Any trial of
	// the row replays exactly from `snap id + spec`:
	// `opec-run -replay '<snap_id>@<spec>'`.
	SnapID string `json:"snap_id,omitempty"`
	// Outcomes holds the row's per-trial outcomes in planning order —
	// the fork-vs-boot differential compares them trial by trial. Not
	// serialized: the aggregate fields above are the reportable result.
	Outcomes []inject.Outcome `json:"-"`
	// Resume totals the row's forges' use of call-entry resume points
	// (fork engine only). It depends on how trials spread over forges,
	// so it is observability, not a result: RenderInject omits it.
	Resume inject.ResumeStats `json:"-"`
}

// Count returns the number of trials with verdict v.
func (r *InjectRow) Count(v inject.Verdict) int { return r.Counts[v] }

// Escapes returns the row's escaped-trial count.
func (r *InjectRow) Escapes() int { return r.Counts[inject.Escaped] }

// Counters implements trace.CounterSource: the row's verdict histogram,
// recovery activity and resume tallies under dotted names, for the
// unified registry.
func (r *InjectRow) Counters() []trace.Counter {
	prefix := "inject." + strings.ToLower(r.Scheme) + "."
	out := make([]trace.Counter, 0, inject.NumVerdicts+8)
	for v := 0; v < inject.NumVerdicts; v++ {
		out = append(out, trace.Counter{
			Name:  prefix + inject.Verdict(v).String(),
			Value: uint64(r.Counts[v]),
		})
	}
	out = append(out,
		trace.Counter{Name: prefix + "restarts", Value: r.Restarts},
		trace.Counter{Name: prefix + "quarantines", Value: r.Quarantines},
		trace.Counter{Name: prefix + "resume.resumed", Value: r.Resume.Resumed},
		trace.Counter{Name: prefix + "resume.prefix_cycles", Value: r.Resume.PrefixCycles},
		trace.Counter{Name: prefix + "resume.captured", Value: r.Resume.Captured},
		trace.Counter{Name: prefix + "resume.declined.irq", Value: r.Resume.DeclinedIRQ},
		trace.Counter{Name: prefix + "resume.declined.untriggered", Value: r.Resume.DeclinedUntriggered},
		trace.Counter{Name: prefix + "resume.declined.refused", Value: r.Resume.DeclinedRefused},
	)
	return out
}

// Contained returns the number of trials whose verdict kept the fault
// inside its domain.
func (r *InjectRow) Contained() int {
	n := 0
	for v := 0; v < inject.NumVerdicts; v++ {
		if inject.Verdict(v).Contained() {
			n += r.Counts[v]
		}
	}
	return n
}

// InjectEngine selects how a campaign executes its trials.
type InjectEngine int

// Campaign engines.
const (
	// EngineFork boots each (workload, scheme) row once, checkpoints at
	// the pre-injection point, and forks every trial from the snapshot,
	// or from its trigger's call-entry checkpoint once a trial with the
	// same trigger captured one. This is the default: per-trial cost
	// drops from construct+compile+prove+boot+run to restore+run, minus
	// the clean prefix.
	EngineFork InjectEngine = iota
	// EngineBoot builds every trial from power-on — the reference
	// semantics. The differential smoke proves EngineFork renders a
	// byte-identical table against it.
	EngineBoot
)

func (e InjectEngine) String() string {
	if e == EngineBoot {
		return "boot"
	}
	return "fork"
}

// rowPlan is one workload × scheme leg: its aggregate row plus the
// exact trial list and per-trial budget, fixed at planning time.
type rowPlan struct {
	row    InjectRow
	app    *apps.App
	aces   bool
	budget uint64
	specs  []inject.Spec
}

// Inject runs the fault-injection campaign on the fork engine: all
// workloads under OPEC with the given recovery policy, plus the five
// comparison workloads under ACES-2 against the identical trial list
// (minus gate trials, which ACES cannot express).
func (h *Harness) Inject(s AppSet, cfg inject.Config, pol monitor.Policy) ([]InjectRow, error) {
	return h.InjectWith(s, cfg, pol, EngineFork)
}

// InjectWith is Inject with an explicit trial engine. Each workload
// plans from its own seed-derived sub-generator, so the campaign is
// deterministic per (seed, scale) and insensitive to harness
// parallelism — and, by the forge's byte-identity contract, to the
// engine: both engines render the same table. Trials run on a 4×
// budget of the workload's clean-run cycles, bounding hung runs.
func (h *Harness) InjectWith(s AppSet, cfg inject.Config, pol monitor.Policy, engine InjectEngine) ([]InjectRow, error) {
	plans, err := h.planInject(s, cfg, pol)
	if err != nil {
		return nil, err
	}
	if engine == EngineBoot {
		err = h.runInjectBoot(plans, pol)
	} else {
		err = h.runInjectFork(plans, pol)
	}
	if err != nil {
		return nil, err
	}
	return aggregateInject(plans), nil
}

// aggregateInject folds each plan's per-trial outcomes into its row,
// in planning order — rows are identical at every parallelism level
// and on either engine.
func aggregateInject(plans []*rowPlan) []InjectRow {
	rows := make([]InjectRow, len(plans))
	for i := range plans {
		r := plans[i].row
		for _, o := range r.Outcomes {
			r.Counts[o.Verdict]++
			r.Restarts += o.Restarts
			r.Quarantines += o.Quarantines
			if o.Verdict == inject.Escaped && r.FirstEscape == "" {
				r.FirstEscape = o.Spec.String()
			}
		}
		rows[i] = r
	}
	return rows
}

// planInject fixes the campaign's rows, trial lists and budgets.
func (h *Harness) planInject(s AppSet, cfg inject.Config, pol monitor.Policy) ([]*rowPlan, error) {
	var plans []*rowPlan
	acesSet := make(map[string]bool)
	for _, app := range acesAppsFor(s) {
		acesSet[app.Name] = true
	}
	for _, app := range AppsFor(s) {
		a, err := h.Cache.opecArtifact(app, s)
		if err != nil {
			return nil, fmt.Errorf("inject: %w", err)
		}
		appCfg := cfg
		appCfg.Seed = subSeed(cfg.Seed, app.Name)
		specs := inject.Plan(a.b, a.inst.Devices, appCfg)

		ro, err := h.Cache.OPECRun(app, s)
		if err != nil {
			return nil, fmt.Errorf("inject: %w", err)
		}
		plans = append(plans, &rowPlan{
			row: InjectRow{
				App: app.Name, Scheme: "OPEC",
				Policy: pol.Kind.String(), Trials: len(specs),
			},
			app: app, budget: 4 * ro.Cycles, specs: specs,
		})

		if !acesSet[app.Name] {
			continue
		}
		ra, err := h.Cache.ACESRun(app, s, aces.FilenameNoOpt)
		if err != nil {
			return nil, fmt.Errorf("inject: %w", err)
		}
		ap := &rowPlan{
			row: InjectRow{App: app.Name, Scheme: "ACES-2", Policy: "-"},
			app: app, aces: true, budget: 4 * ra.Cycles,
		}
		for _, sp := range specs {
			if sp.Kind == inject.BadGate {
				continue
			}
			ap.row.Trials++
			ap.specs = append(ap.specs, sp)
		}
		plans = append(plans, ap)
	}
	return plans, nil
}

// runInjectBoot executes every trial from power-on, fanning the flat
// trial list over the worker pool.
func (h *Harness) runInjectBoot(plans []*rowPlan, pol monitor.Policy) error {
	type job struct {
		plan *rowPlan
		idx  int
	}
	var jobs []job
	for _, p := range plans {
		p.row.Outcomes = make([]inject.Outcome, len(p.specs))
		for i := range p.specs {
			jobs = append(jobs, job{plan: p, idx: i})
		}
	}
	return h.forEach(len(jobs), func(i int) error {
		j := jobs[i]
		sp := j.plan.specs[j.idx]
		var out inject.Outcome
		var err error
		if j.plan.aces {
			out, err = inject.RunACES(j.plan.app, sp, aces.FilenameNoOpt, j.plan.budget)
		} else {
			out, err = inject.RunOPEC(j.plan.app, sp, pol, j.plan.budget)
		}
		if err != nil {
			return fmt.Errorf("inject: %s trial %s: %w", j.plan.app.Name, sp, err)
		}
		j.plan.row.Outcomes[j.idx] = out
		return nil
	})
}

// runInjectFork executes the campaign on forges: boot a row's
// checkpoint, fork every trial from the snapshot. A forge's machine is
// serial, so the unit of scheduling is the trial and the unit of
// isolation is the forge: each row is a queue of trials behind one
// shared cursor, a free worker starts the next unstarted row in
// planning order, and once every row has started an idle worker joins
// the unfinished row with the most trials not yet taken, booting a
// forge of its own for it. One long row (CoreMark under OPEC is over
// half the campaign's CPU) therefore spreads over every worker instead
// of ending the pass alone. Trials are pure functions of (checkpoint,
// spec) and land in index-addressed slots, so rows, outcomes and the
// rendered table are identical at every parallelism and against
// EngineBoot. Every trial runs even when one fails; the returned error
// is the lowest in planning order (row, then trial).
func (h *Harness) runInjectFork(plans []*rowPlan, pol monitor.Policy) error {
	s := &forkSched{rows: make([]*forkRow, len(plans))}
	for i, p := range plans {
		p.row.Outcomes = make([]inject.Outcome, len(p.specs))
		s.rows[i] = &forkRow{plan: p, errs: make([]error, len(p.specs))}
	}
	// Workers record every failure in s, so forEach itself sees none.
	_ = h.forEach(h.parallel, func(int) error {
		for r, join := s.claim(); r != nil; r, join = s.claim() {
			s.work(r, join, pol)
		}
		return nil
	})
	return s.err()
}

// forkRow is one campaign row's trial queue on the fork engine.
type forkRow struct {
	plan *rowPlan
	// next is the cursor: trials [0, next) have been handed out.
	next int
	// forgeErr is the row's first forge boot failure. A failed first
	// forge ends the row (its trials never run); after any failure no
	// further worker joins the row.
	forgeErr error
	// joinIDs are the snapshot IDs of the joiners' forges, checked
	// against the first forge's once all trials have run.
	joinIDs []string
	// errs holds per-trial failures, index-addressed like the row's
	// outcomes: each slot is written only by the worker that took its
	// trial, and read after every worker has returned.
	errs []error
}

// forkSched hands out rows and trials to the fork engine's workers. mu
// guards started, each row's next, forgeErr and joinIDs, and the rows'
// SnapID and Resume.
type forkSched struct {
	mu      sync.Mutex
	rows    []*forkRow
	started int // rows[:started] have a worker
}

// claim returns the row a free worker should boot a forge for: the
// next unstarted row in planning order, else (join) the unfinished row
// with the most trials not yet taken, the lower index on a tie. It
// returns nil when no trial is left to take.
func (s *forkSched) claim() (r *forkRow, join bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started < len(s.rows) {
		s.started++
		return s.rows[s.started-1], false
	}
	most := 0
	for _, c := range s.rows {
		if left := len(c.plan.specs) - c.next; left > most && c.forgeErr == nil {
			r, most = c, left
		}
	}
	return r, true
}

// take hands out r's next trial index, or -1 once all are taken.
func (s *forkSched) take(r *forkRow) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.next == len(r.plan.specs) {
		return -1
	}
	r.next++
	return r.next - 1
}

// work boots a forge for r, then runs r's trials on it until the
// row's queue is empty.
func (s *forkSched) work(r *forkRow, join bool, pol monitor.Policy) {
	p := r.plan
	var forge *inject.Forge
	var err error
	if p.aces {
		forge, err = inject.NewACESForge(p.app, aces.FilenameNoOpt)
		pol = monitor.Policy{}
	} else {
		forge, err = inject.NewForge(p.app)
	}
	if err != nil {
		err = fmt.Errorf("inject: %s: %w", p.app.Name, err)
	}
	s.mu.Lock()
	switch {
	case err != nil:
		if r.forgeErr == nil {
			r.forgeErr = err
		}
		if !join {
			r.next = len(p.specs)
		}
	case join:
		r.joinIDs = append(r.joinIDs, forge.SnapshotID())
	default:
		p.row.SnapID = forge.SnapshotID()
	}
	s.mu.Unlock()
	if err != nil {
		return
	}
	for k := s.take(r); k >= 0; k = s.take(r) {
		sp := p.specs[k]
		out, err := forge.Run(sp, pol, p.budget)
		if err != nil {
			r.errs[k] = fmt.Errorf("inject: %s trial %s: %w", p.app.Name, sp, err)
			continue
		}
		p.row.Outcomes[k] = out
	}
	s.mu.Lock()
	p.row.Resume.Add(forge.ResumeStats())
	s.mu.Unlock()
}

// err returns the campaign's failure lowest in planning order: a row's
// own forge failures, then its trials in order. Every forge of a row
// must have booted to the same checkpoint as its first.
func (s *forkSched) err() error {
	for _, r := range s.rows {
		if r.forgeErr != nil {
			return r.forgeErr
		}
		for _, id := range r.joinIDs {
			if id != r.plan.row.SnapID {
				return fmt.Errorf("inject: %s/%s: a joining worker booted to snapshot %s, the row's first forge to %s",
					r.plan.app.Name, r.plan.row.Scheme, id, r.plan.row.SnapID)
			}
		}
		for _, err := range r.errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// subSeed derives a workload's campaign seed, decoupling its trial
// sampling from every other workload's.
func subSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// RenderInject prints the campaign's containment table plus a replay
// line for every row that escaped.
func RenderInject(rows []InjectRow) string {
	var sb strings.Builder
	sb.WriteString("Fault injection: trial verdicts per workload (ESC = isolation escapes)\n")
	fmt.Fprintf(&sb, "%-11s %-7s %-10s %6s %6s %5s %5s %5s %5s %6s %7s %5s %4s %5s %5s %5s\n",
		"Application", "Scheme", "Policy", "Trials", "Untrig",
		"MPU", "Sani", "Gate", "Recov", "Benign", "Corrupt", "Hung", "ESC", "Crash",
		"Rst", "Quar")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-11s %-7s %-10s %6d %6d %5d %5d %5d %5d %6d %7d %5d %4d %5d %5d %5d\n",
			r.App, r.Scheme, r.Policy, r.Trials, r.Count(inject.Untriggered),
			r.Count(inject.ContainedMPU), r.Count(inject.ContainedSanitize),
			r.Count(inject.ContainedGate), r.Count(inject.Recovered),
			r.Count(inject.Benign), r.Count(inject.Corrupted),
			r.Count(inject.Hung), r.Escapes(), r.Count(inject.CrashedMonitor),
			r.Restarts, r.Quarantines)
	}
	for _, r := range rows {
		if r.FirstEscape != "" {
			fmt.Fprintf(&sb, "  replay first escape of %s/%s: opec-run -app %s -mode %s -inject '%s'\n",
				r.App, r.Scheme, r.App, replayMode(r.Scheme), r.FirstEscape)
		}
	}
	return sb.String()
}

// RenderResume summarizes the campaign's resume tallies in one line.
// It is kept apart from RenderInject: the tallies depend on how trials
// spread over forges, the table must not.
func RenderResume(rows []InjectRow) string {
	var t inject.ResumeStats
	for _, r := range rows {
		t.Add(r.Resume)
	}
	return fmt.Sprintf("resume: %d trials started at their trigger, %d prefix cycles skipped, %d checkpoints captured; declined: irq=%d untriggered=%d refused=%d\n",
		t.Resumed, t.PrefixCycles, t.Captured, t.DeclinedIRQ, t.DeclinedUntriggered, t.DeclinedRefused)
}

func replayMode(scheme string) string {
	if scheme == "ACES-2" {
		return "aces2"
	}
	return "opec"
}
