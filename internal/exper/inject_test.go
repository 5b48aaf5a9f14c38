package exper

import (
	"bytes"
	"encoding/json"
	"testing"

	"opec/internal/inject"
	"opec/internal/monitor"
)

// tinyCampaign keeps test campaigns fast; determinism claims hold at
// any size because sampling is seed-driven.
func tinyCampaign(seed int64) inject.Config {
	return inject.Config{
		Seed: seed, VictimsPerOp: 1, PeriphsPerOp: 1,
		BitFlips: 1, GateTrials: 1, StackTrials: 1, PeriphTrials: 1,
	}
}

// The acceptance invariants of the campaign: byte-identical verdict
// tables per seed (across fresh harnesses at different parallelism),
// zero escapes under OPEC, and at least one escape under the
// merged-region ACES configuration.
func TestInjectCampaignDeterministicAndContained(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign replays every workload in -short mode")
	}
	cfg := tinyCampaign(7)
	rows1, err := NewHarness(0).Inject(Quick, cfg, monitor.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := NewHarness(1).Inject(Quick, cfg, monitor.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(rows1)
	j2, _ := json.Marshal(rows2)
	if !bytes.Equal(j1, j2) {
		t.Errorf("same seed produced different verdict tables:\n%s\n%s", j1, j2)
	}

	acesRows, acesEscapes := 0, 0
	for _, r := range rows1 {
		if r.Trials == 0 {
			t.Errorf("%s/%s: empty trial list", r.App, r.Scheme)
		}
		switch r.Scheme {
		case "OPEC":
			if r.Escapes() != 0 || r.Count(inject.CrashedMonitor) != 0 {
				t.Errorf("%s under OPEC: %d escapes, %d monitor crashes (first: %s)",
					r.App, r.Escapes(), r.Count(inject.CrashedMonitor), r.FirstEscape)
			}
			if r.Contained() != r.Trials {
				t.Errorf("%s under OPEC: %d/%d contained", r.App, r.Contained(), r.Trials)
			}
		case "ACES-2":
			acesRows++
			acesEscapes += r.Escapes()
		}
	}
	if acesRows != 5 {
		t.Errorf("ACES rows = %d, want 5", acesRows)
	}
	if acesEscapes == 0 {
		t.Error("merged-region ACES recorded no escapes — over-privilege not observed")
	}
}

// Under the restart policy the same campaign still contains everything,
// and the policy demonstrably fires: operations restart and previously
// fatal trials finish as recovered in more than one workload.
func TestInjectCampaignRestartPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign replays every workload in -short mode")
	}
	rows, err := NewHarness(0).Inject(Quick, tinyCampaign(7), monitor.Policy{Kind: monitor.RestartOperation})
	if err != nil {
		t.Fatal(err)
	}
	var restarts uint64
	appsRecovered := 0
	for _, r := range rows {
		if r.Scheme != "OPEC" {
			continue
		}
		if r.Escapes() != 0 || r.Count(inject.CrashedMonitor) != 0 {
			t.Errorf("%s under OPEC/restart: %d escapes, %d crashes",
				r.App, r.Escapes(), r.Count(inject.CrashedMonitor))
		}
		restarts += r.Restarts
		if r.Count(inject.Recovered) > 0 {
			appsRecovered++
		}
	}
	if restarts == 0 {
		t.Error("restart policy never fired across the campaign")
	}
	if appsRecovered < 2 {
		t.Errorf("recovered trials in %d workloads, want >= 2", appsRecovered)
	}
}

// The interpreter is the only execution engine: Fuzz's trailing engine
// argument accepts "" and "interp" and rejects any other name before a
// campaign starts.
func TestFuzzRejectsUnknownEngine(t *testing.T) {
	h := NewHarness(1)
	if _, err := h.Fuzz(Quick, 1, 1, false, monitor.Policy{}, "jit"); err == nil {
		t.Fatal("unknown execution engine accepted")
	}
}
