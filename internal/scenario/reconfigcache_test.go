package scenario

import (
	"testing"

	"spotserve/internal/experiments"
)

// gridCells expands the default 50-cell scenario grid (availability models
// × policies on the homogeneous and speed-heterogeneous fleets).
func gridCells(t *testing.T) []experiments.Scenario {
	t.Helper()
	cells, err := DefaultGrid().Cells()
	if err != nil {
		t.Fatal(err)
	}
	// 5 availability models (incl. price-signal) × 5 policies (incl.
	// slo-latency, cost-cap) × 2 fleets.
	if len(cells) != 50 {
		t.Fatalf("default grid = %d cells, want 50", len(cells))
	}
	return cells
}

// runEach runs each cell once at its own seed through the sweep pool and
// returns the results in grid order (workers <= 0 = all cores).
func runEach(cells []experiments.Scenario, workers int) []experiments.Result {
	var out []experiments.Result
	for _, reps := range (experiments.Sweep{Parallel: workers}).RunCells(cells) {
		out = append(out, reps...)
	}
	return out
}

// TestGridReconfigCacheEquivalence runs the full default scenario
// grid twice — reconfiguration cache enabled and disabled — and requires
// byte-identical fingerprints cell by cell. The grid spans every
// availability model, every autoscaling policy and both fleet presets, so
// this pins the cache's exactness across heterogeneous fleets, policy-
// driven fleet churn and correlated preemption storms at once.
func TestGridReconfigCacheEquivalence(t *testing.T) {
	cells := gridCells(t)
	warm := runEach(cells, 0)
	cold := make([]experiments.Scenario, len(cells))
	copy(cold, cells)
	for i := range cold {
		cold[i].DisableReconfigCache = true
	}
	coldRes := runEach(cold, 0)
	for i := range cells {
		coldRes[i].Scenario.DisableReconfigCache = false
		if got, want := warm[i].Fingerprint(), coldRes[i].Fingerprint(); got != want {
			t.Errorf("cell %d (%s/%s/%s): cached fingerprint %s != cold %s",
				i, cells[i].AvailModel, cells[i].Policy, cells[i].Fleet, got, want)
		}
	}
}

// TestGridReconfigCacheParallelDeterminism pins parallel == serial with
// the cache armed: each worker owns per-server memos, so worker count and
// scheduling order must not leak into results.
func TestGridReconfigCacheParallelDeterminism(t *testing.T) {
	cells := gridCells(t)
	serial := runEach(cells, 1)
	parallel := runEach(cells, 0)
	for i := range cells {
		if got, want := parallel[i].Fingerprint(), serial[i].Fingerprint(); got != want {
			t.Errorf("cell %d (%s/%s/%s): parallel fingerprint %s != serial %s",
				i, cells[i].AvailModel, cells[i].Policy, cells[i].Fleet, got, want)
		}
	}
}
