package exper

import (
	"strings"
	"testing"

	"opec/internal/monitor"
)

// The fork engine's error contract matches forEach's: every trial runs
// even when one fails, and the returned error is the failure lowest in
// planning order (row, then trial), whatever the worker count and
// whichever worker hit its failure first.
func TestInjectForkLowestFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a forge per campaign row in -short mode")
	}
	h := NewHarness(1)
	var first string
	for _, parallel := range []int{1, 4} {
		h.parallel = parallel
		plans, err := h.planInject(Quick, tinyCampaign(5), monitor.Policy{})
		if err != nil {
			t.Fatal(err)
		}
		// PinLock and Animation under both schemes: a short row beside
		// a long one, so at 4 workers the short rows' workers join.
		plans = plans[:4]
		// An unknown trigger function fails the trial itself (not its
		// verdict). Plant one in a later row's first trial and one in an
		// earlier row's third, so planning order and the order workers
		// reach them differ.
		plans[2].specs[0].Func = "no_such_fn_late"
		plans[1].specs[2].Func = "no_such_fn_early"

		err = h.runInjectFork(plans, monitor.Policy{})
		if err == nil {
			t.Fatalf("parallel=%d: campaign with two failing trials returned no error", parallel)
		}
		if !strings.Contains(err.Error(), "no_such_fn_early") {
			t.Errorf("parallel=%d: error %q does not name the lower-index failure", parallel, err)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Errorf("parallel=%d: error %q differs from parallel 1's %q", parallel, err, first)
		}
		for i, p := range plans {
			for k, o := range p.row.Outcomes {
				if failed := (i == 2 && k == 0) || (i == 1 && k == 2); !failed && o.Spec.Func == "" {
					t.Errorf("parallel=%d: %s/%s trial %d never ran", parallel, p.app.Name, p.row.Scheme, k)
				}
			}
		}
	}
}
