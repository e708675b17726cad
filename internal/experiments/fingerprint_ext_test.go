package experiments_test

import (
	"testing"

	"spotserve/internal/experiments"
	"spotserve/internal/market"
	"spotserve/internal/scenario"
)

// TestScenarioFingerprintMatchesOracle runs the scenario library's cells —
// every availability model × policy × {homog, hetero-speed} under
// SpotServe, and every fleet preset × market process × system on one
// model — and compares each result's streamed fingerprint with the oracle.
func TestScenarioFingerprintMatchesOracle(t *testing.T) {
	grids := []scenario.Grid{scenario.DefaultGrid(), {
		Avail:    []string{"bursty"},
		Policies: []string{"fixed"},
		Fleets:   scenario.Fleets(),
		Markets:  append([]string{""}, market.Processes()...),
		Systems:  experiments.Systems(),
	}}
	for _, g := range grids {
		cells, err := g.Cells()
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range cells {
			r := experiments.Run(sc)
			if got, want := r.Fingerprint(), experiments.FingerprintOracle(r); got != want {
				t.Errorf("%s/%s/%s/%s/%s: Fingerprint %s, oracle %s",
					sc.AvailModel, sc.Policy, sc.Fleet, sc.Market, sc.System, got, want)
			}
		}
	}
}
