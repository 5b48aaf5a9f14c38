package exper

import (
	"testing"

	"opec/internal/mach"
	"opec/internal/monitor"
)

// Fast-path identity at the experiment layer: evaluation tables, the
// §6.1 golden trace and campaign verdict tables (including the fork
// engine) must be byte-identical whether the interpreter elides
// certified checks and uses its lookup caches, re-adjudicates every
// elision (paranoid), or takes the fully checked path. The tables
// embed absolute cycle counts, so this pins timing, not just final
// answers. The test names date from when the comparison was against a
// second execution engine; they are kept so the test ids stay stable.

// fastPath is one setting of the interpreter's process-global
// fast-path switches.
type fastPath struct {
	name               string
	noProofs, paranoid bool
	noCaches           bool
}

var (
	fastPathsOn  = fastPath{name: "default"}
	fastPathsOff = fastPath{name: "checked", noProofs: true, noCaches: true}
	paranoidPath = fastPath{name: "paranoid", paranoid: true}
)

// under runs fn with the switches of p installed.
func (p fastPath) under(fn func()) {
	d, q, c := mach.DisableProofs, mach.ParanoidProofs, mach.DisableCaches
	defer func() { mach.DisableProofs, mach.ParanoidProofs, mach.DisableCaches = d, q, c }()
	mach.DisableProofs, mach.ParanoidProofs, mach.DisableCaches = p.noProofs, p.paranoid, p.noCaches
	fn()
}

func TestRenderedTablesBackendIdentity(t *testing.T) {
	render := func(p fastPath) (t1, f9 string) {
		p.under(func() {
			h := NewHarness(0)
			rows, err := h.Table1(Quick)
			if err != nil {
				t.Fatalf("%s Table1: %v", p.name, err)
			}
			t1 = RenderTable1(rows)
			fig, err := h.Figure9(Quick)
			if err != nil {
				t.Fatalf("%s Figure9: %v", p.name, err)
			}
			f9 = RenderFigure9(fig)
		})
		return
	}
	t1f, f9f := render(fastPathsOn)
	t1c, f9c := render(fastPathsOff)
	if t1f != t1c {
		t.Errorf("Table 1 differs with fast paths off:\n--- default ---\n%s--- checked ---\n%s", t1f, t1c)
	}
	if f9f != f9c {
		t.Errorf("Figure 9 differs with fast paths off:\n--- default ---\n%s--- checked ---\n%s", f9f, f9c)
	}
}

// TestGoldenKeyOverwriteTraceXlat extends the golden-trace invariant to
// certificate elision: the §6.1 exploit's full event stream renders
// byte-identically with elision disabled and with every elision
// re-adjudicated. TestGoldenKeyOverwriteTrace covers the caches.
func TestGoldenKeyOverwriteTraceXlat(t *testing.T) {
	var golden string
	fastPathsOn.under(func() { golden = traceKeyOverwrite(t) })
	for _, p := range []fastPath{{name: "noproofs", noProofs: true}, paranoidPath} {
		var got string
		p.under(func() { got = traceKeyOverwrite(t) })
		if got != golden {
			t.Errorf("golden trace differs under %s:\n--- default ---\n%s--- %s ---\n%s", p.name, golden, p.name, got)
		}
	}
}

// TestInjectCampaignBackendIdentity runs the seeded campaign with the
// boot engine and the default fast paths as the oracle; the fork
// engine must match it byte for byte with every elision re-adjudicated
// and with the fast paths off. The paranoid fork leg is the end-to-end
// check that forked machines, whose Arm hook clears the certificate
// table, never elide a check on a stale certificate.
func TestInjectCampaignBackendIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign replays every workload in -short mode")
	}
	cfg := tinyCampaign(11)
	pol := monitor.Policy{Kind: monitor.RestartOperation}

	table := func(p fastPath, engine InjectEngine) (out string) {
		p.under(func() {
			rows, err := NewHarness(0).InjectWith(Quick, cfg, pol, engine)
			if err != nil {
				t.Fatalf("%s/%v: %v", p.name, engine, err)
			}
			out = RenderInject(rows)
		})
		return
	}
	oracle := table(fastPathsOn, EngineBoot)
	for _, p := range []fastPath{paranoidPath, fastPathsOff} {
		if got := table(p, EngineFork); got != oracle {
			t.Errorf("%s fork campaign differs:\n--- default/boot ---\n%s--- %s/fork ---\n%s", p.name, oracle, p.name, got)
		}
	}
}
