package exper

import (
	"reflect"
	"strings"
	"testing"

	"opec/internal/inject"
	"opec/internal/monitor"
)

// The fork engine's acceptance invariant: a seeded campaign forked
// from per-row snapshots renders a byte-identical verdict table — and
// identical per-trial outcomes, every field (OutcomeDiff) — against the
// power-on boot engine, and the same snapshot ids, at every worker
// count: 1 (rows in order, no joins), 2 and 3 (idle workers join the
// long rows), and 16 (more workers than the 12 rows, so workers join
// rows from the start). Trials sharing a trigger resume from its
// call-entry checkpoint, so the comparison covers resumed trials: the
// test requires some in every campaign, under each recovery policy.
func TestInjectForkMatchesBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign replays every workload in -short mode")
	}
	cfg := tinyCampaign(3)
	var snapIDs []string
	for _, tc := range []struct {
		policy    monitor.PolicyKind
		parallels []int
	}{
		{monitor.Abort, []int{1, 2, 3, 16}},
		// The recovery policies' bookkeeping crosses the resumed gate:
		// restarts re-enter a resumed SVC, quarantine unwinds it.
		{monitor.RestartOperation, []int{2}},
		{monitor.Quarantine, []int{3}},
	} {
		pol := monitor.Policy{Kind: tc.policy}
		boot, err := NewHarness(0).InjectWith(Quick, cfg, pol, EngineBoot)
		if err != nil {
			t.Fatal(err)
		}
		bootTable := RenderInject(boot)
		for _, parallel := range tc.parallels {
			fork, err := NewHarness(parallel).InjectWith(Quick, cfg, pol, EngineFork)
			if err != nil {
				t.Fatalf("%s parallel=%d: %v", tc.policy, parallel, err)
			}
			if got := RenderInject(fork); got != bootTable {
				t.Errorf("%s parallel=%d: fork table differs from boot table:\n--- boot ---\n%s--- fork ---\n%s",
					tc.policy, parallel, bootTable, got)
			}
			if len(fork) != len(boot) {
				t.Fatalf("%s parallel=%d: %d fork rows vs %d boot rows", tc.policy, parallel, len(fork), len(boot))
			}
			var resumed uint64
			for i := range fork {
				fr, br := fork[i], boot[i]
				resumed += fr.Resume.Resumed
				if fr.SnapID == "" {
					t.Errorf("%s/%s: fork row has no snapshot id", fr.App, fr.Scheme)
				}
				if len(snapIDs) < len(fork) {
					snapIDs = append(snapIDs, fr.SnapID)
				} else if fr.SnapID != snapIDs[i] {
					t.Errorf("%s parallel=%d: %s/%s: snapshot id %s, %s in the first campaign",
						tc.policy, parallel, fr.App, fr.Scheme, fr.SnapID, snapIDs[i])
				}
				if len(fr.Outcomes) != len(br.Outcomes) {
					t.Fatalf("%s/%s: %d fork trials vs %d boot trials", fr.App, fr.Scheme, len(fr.Outcomes), len(br.Outcomes))
				}
				for k := range fr.Outcomes {
					if d := OutcomeDiff(br.Outcomes[k], fr.Outcomes[k]); d != "" {
						t.Errorf("%s parallel=%d: %s/%s trial %s: fork differs from boot: %s",
							tc.policy, parallel, fr.App, fr.Scheme, br.Outcomes[k].Spec, d)
					}
				}
			}
			if resumed == 0 {
				t.Errorf("%s parallel=%d: no trial resumed from a call-entry checkpoint", tc.policy, parallel)
			}
		}
	}
}

// OutcomeDiff must see every Outcome field: perturbing any one of them
// alone is reported, and under that field's name.
func TestOutcomeDiffComparesEveryField(t *testing.T) {
	base := inject.Outcome{Spec: inject.Spec{Func: "main", N: 1, Args: []uint32{1}}}
	if d := OutcomeDiff(base, base); d != "" {
		t.Fatalf("identical outcomes differ: %s", d)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		got := base
		got.Spec.Args = []uint32{1}
		f := reflect.ValueOf(&got).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Uint64, reflect.Uint8, reflect.Uint32:
			f.SetUint(f.Uint() + 1)
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Struct:
			got.Spec.Args = []uint32{2}
		default:
			t.Fatalf("field %s: kind %s not covered by this test", typ.Field(i).Name, f.Kind())
		}
		if d := OutcomeDiff(base, got); !strings.HasPrefix(d, typ.Field(i).Name+" ") {
			t.Errorf("field %s changed: diff %q", typ.Field(i).Name, d)
		}
	}
}
