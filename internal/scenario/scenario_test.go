package scenario

import (
	"reflect"
	"strings"
	"testing"

	"spotserve/internal/cloud"
	"spotserve/internal/experiments"
)

// TestGeneratorsDeterministicAndValid locks the availability-model
// contract: same seed → identical trace, different seeds → different
// traces, and every generated trace satisfies the trace format invariants.
func TestGeneratorsDeterministicAndValid(t *testing.T) {
	for _, name := range Models() {
		m, ok := ModelByName(name)
		if !ok {
			t.Fatalf("registered model %q not resolvable", name)
		}
		var distinct bool
		prev := m.Trace(0)
		for seed := int64(1); seed <= 10; seed++ {
			a := m.Trace(seed)
			b := m.Trace(seed)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: seed %d not deterministic", name, seed)
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("%s: seed %d: invalid trace: %v", name, seed, err)
			}
			if a.MaxCount() <= 0 {
				t.Fatalf("%s: seed %d: trace never offers capacity", name, seed)
			}
			if !reflect.DeepEqual(a.Events, prev.Events) {
				distinct = true
			}
			prev = a
		}
		if !distinct {
			t.Errorf("%s: seeds 0..10 all produced the same trace — the seed is ignored", name)
		}
	}
}

// TestCrunchLargeJitterKeepsFullRamp guards the out-of-order-jitter fix: a
// jitter larger than the step spacing must not silently drop ramp steps —
// the trace still reaches the floor and recovers, at every seed.
func TestCrunchLargeJitterKeepsFullRamp(t *testing.T) {
	c := DefaultCrunch()
	c.JitterS = 60 // well above the ~40 s recovery step spacing
	for seed := int64(0); seed < 50; seed++ {
		tr := c.Trace(seed)
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if tr.MinCount() != c.Floor {
			t.Errorf("seed %d: min count %d, want the full ramp to floor %d", seed, tr.MinCount(), c.Floor)
		}
		if got := tr.Events[len(tr.Events)-1].Count; got != c.RecoverTo {
			t.Errorf("seed %d: final count %d, want recovery to %d", seed, got, c.RecoverTo)
		}
	}
}

// TestGridParallelMatchesSerial is the acceptance determinism gate: the
// full default grid (4 availability models × 3 policies × homogeneous and
// heterogeneous fleets) produces byte-identical fingerprints under the
// parallel sweep and the serial path.
func TestGridParallelMatchesSerial(t *testing.T) {
	cells, err := DefaultGrid().Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) < 3*2*2 {
		t.Fatalf("grid too small for the acceptance criterion: %d cells", len(cells))
	}
	serial := runEach(cells, 1)
	par := runEach(cells, 8)
	for i := range serial {
		sf, pf := serial[i].Fingerprint(), par[i].Fingerprint()
		if sf != pf {
			sc := cells[i]
			t.Errorf("cell %d (%s/%s/%s): parallel fingerprint differs from serial",
				i, sc.AvailModel, sc.Policy, sc.Fleet)
		}
	}
}

// TestGridSweepReplicates checks multi-seed bands: every cell runs at each
// sweep seed, bands carry spread, and the renderer switches into band
// mode.
func TestGridSweepReplicates(t *testing.T) {
	g := Grid{
		Avail:    []string{"crunch"},
		Policies: []string{"fixed", "reactive-queue"},
		Fleets:   []string{"homog", "hetero-speed"},
	}
	rows, err := GridSweepStream(g, experiments.Sweep{Seeds: []int64{1, 2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for i, r := range rows {
		if r.Reps.Avg.N != 3 || !r.Reps.Replicated() {
			t.Errorf("row %d: replication N = %d, want 3", i, r.Reps.Avg.N)
		}
		if r.Summary.Avg <= 0 {
			t.Errorf("row %d: no latency recorded", i)
		}
	}
	out := RenderGrid(rows)
	if !strings.Contains(out, "±") || !strings.Contains(out, "over 3 seeds") {
		t.Errorf("RenderGrid did not render bands:\n%s", out)
	}
}

// TestTraceFnVariesPerSeed asserts replication regenerates the spot market
// per seed: replicas of an availability-model cell observe different
// traces, not one frozen base-seed trace.
func TestTraceFnVariesPerSeed(t *testing.T) {
	cell, err := Scenario{Avail: "bursty", Policy: "fixed", Fleet: "homog"}.Cell()
	if err != nil {
		t.Fatal(err)
	}
	reps := experiments.Sweep{Seeds: []int64{4, 5}}.RunCells([]experiments.Scenario{cell})
	a, b := reps[0][0].Scenario.Trace, reps[0][1].Scenario.Trace
	if reflect.DeepEqual(a.Events, b.Events) {
		t.Error("two replica seeds ran the identical trace — TraceFn is not regenerating")
	}
}

// TestScenarioAxesFingerprinted checks the new axes are part of result
// identity: cells differing only in the policy axis fingerprint
// differently even if their serving stats coincide.
func TestScenarioAxesFingerprinted(t *testing.T) {
	a, err := Scenario{Avail: "diurnal", Policy: "fixed", Fleet: "homog"}.Cell()
	if err != nil {
		t.Fatal(err)
	}
	b := a
	b.Policy = "predictive"
	pf, _ := PolicyByName("predictive")
	b.NewAutoscaler = pf
	ra, rb := experiments.Run(a), experiments.Run(b)
	if ra.Fingerprint() == rb.Fingerprint() {
		t.Error("policy axis not reflected in result fingerprints")
	}
}

// TestHeteroFleetServes runs the count-heterogeneous preset end to end:
// mixed 2-GPU/4-GPU fleets must bootstrap, serve and complete requests.
func TestHeteroFleetServes(t *testing.T) {
	cell, err := Scenario{Avail: "diurnal", Policy: "fixed", Fleet: "hetero-small"}.Cell()
	if err != nil {
		t.Fatal(err)
	}
	res := experiments.Run(cell)
	if res.Stats.Completed == 0 {
		t.Fatal("heterogeneous fleet served nothing")
	}
	if res.Stats.Completed < res.Stats.Submitted/2 {
		t.Errorf("heterogeneous fleet served only %d/%d", res.Stats.Completed, res.Stats.Submitted)
	}
}

// TestCellUnknownNames checks each axis rejects unregistered names with a
// helpful error.
func TestCellUnknownNames(t *testing.T) {
	cases := []Scenario{
		{Avail: "nope", Policy: "fixed", Fleet: "homog"},
		{Avail: "diurnal", Policy: "nope", Fleet: "homog"},
		{Avail: "diurnal", Policy: "fixed", Fleet: "nope"},
	}
	for i, c := range cases {
		if _, err := c.Cell(); err == nil {
			t.Errorf("case %d: unknown name accepted", i)
		}
	}
}

// TestPolicyTargets pins the policy arithmetic against hand-computed
// FleetViews.
func TestPolicyTargets(t *testing.T) {
	v := cloud.FleetView{Want: 6, QueueDepth: 17, Dying: 2, RecentPreemptions: 4}
	if got := (FixedTarget{}).Target(v); got != 6 {
		t.Errorf("fixed: %d, want 6", got)
	}
	// ceil(17/8) = 3 extra.
	if got := DefaultReactiveQueue().Target(v); got != 9 {
		t.Errorf("reactive-queue: %d, want 9", got)
	}
	// dying 2 + floor(0.5*4) = 4 extra.
	if got := DefaultPredictive().Target(v); got != 10 {
		t.Errorf("predictive: %d, want 10", got)
	}
	// Caps engage.
	big := cloud.FleetView{Want: 6, QueueDepth: 1000, Dying: 9, RecentPreemptions: 40}
	if got := DefaultReactiveQueue().Target(big); got != 6+4 {
		t.Errorf("reactive-queue cap: %d, want 10", got)
	}
	if got := DefaultPredictive().Target(big); got != 6+5 {
		t.Errorf("predictive cap: %d, want 11", got)
	}
}

// TestRegistriesNonEmpty guards the registration tables the docs catalog
// and CLI flags are built from.
func TestRegistriesNonEmpty(t *testing.T) {
	if len(Models()) < 4 {
		t.Errorf("availability models = %v, want ≥ 4", Models())
	}
	if len(Policies()) < 3 {
		t.Errorf("policies = %v, want ≥ 3", Policies())
	}
	if len(Fleets()) < 3 {
		t.Errorf("fleet presets = %v, want ≥ 3", Fleets())
	}
}
