package exper

import (
	"testing"

	"opec/internal/monitor"
)

// The fork engine's acceptance invariant: a seeded campaign forked
// from per-row snapshots renders a byte-identical verdict table — and
// identical per-trial verdicts, error strings, cycle counts and
// recovery counters — against the power-on boot engine, and the same
// snapshot ids, at every worker count: 1 (rows in order, no joins), 2
// and 3 (idle workers join the long rows), and 16 (more workers than
// the 12 rows, so workers join rows from the start).
func TestInjectForkMatchesBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign replays every workload in -short mode")
	}
	cfg := tinyCampaign(3)
	pol := monitor.Policy{}
	boot, err := NewHarness(0).InjectWith(Quick, cfg, pol, EngineBoot)
	if err != nil {
		t.Fatal(err)
	}
	bootTable := RenderInject(boot)

	var snapIDs []string
	for _, parallel := range []int{1, 2, 3, 16} {
		fork, err := NewHarness(parallel).InjectWith(Quick, cfg, pol, EngineFork)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if got := RenderInject(fork); got != bootTable {
			t.Errorf("parallel=%d: fork table differs from boot table:\n--- boot ---\n%s--- fork ---\n%s",
				parallel, bootTable, got)
		}
		if len(fork) != len(boot) {
			t.Fatalf("parallel=%d: %d fork rows vs %d boot rows", parallel, len(fork), len(boot))
		}
		for i := range fork {
			fr, br := fork[i], boot[i]
			if fr.SnapID == "" {
				t.Errorf("%s/%s: fork row has no snapshot id", fr.App, fr.Scheme)
			}
			if parallel == 1 {
				snapIDs = append(snapIDs, fr.SnapID)
			} else if fr.SnapID != snapIDs[i] {
				t.Errorf("parallel=%d: %s/%s: snapshot id %s, %s at parallel 1",
					parallel, fr.App, fr.Scheme, fr.SnapID, snapIDs[i])
			}
			if len(fr.Outcomes) != len(br.Outcomes) {
				t.Fatalf("%s/%s: %d fork trials vs %d boot trials", fr.App, fr.Scheme, len(fr.Outcomes), len(br.Outcomes))
			}
			for k := range fr.Outcomes {
				fo, bo := fr.Outcomes[k], br.Outcomes[k]
				if fo.Verdict != bo.Verdict || fo.Err != bo.Err || fo.Cycles != bo.Cycles ||
					fo.Restarts != bo.Restarts || fo.Quarantines != bo.Quarantines ||
					fo.RestartCycles != bo.RestartCycles {
					t.Errorf("%s/%s trial %s: fork %+v != boot %+v",
						fr.App, fr.Scheme, fo.Spec, fo, bo)
				}
			}
		}
	}
}
