// Scenarios: sweep the scenario library's three axes — availability
// model × autoscaling policy × fleet composition — through the parallel
// harness with multi-seed replication, and compare how the policies hold
// up under a capacity crunch on homogeneous and mixed fleets.
//
// Run with: go run ./examples/scenarios
package main

import (
	"fmt"

	"spotserve/internal/experiments"
	"spotserve/internal/scenario"
)

func main() {
	fmt.Println("capacity crunch (12 → 3 instances) under three autoscaling policies,")
	fmt.Println("on the homogeneous g4dn fleet and the mixed g4dn+g5 fleet, 3 seeds each")
	fmt.Println()

	grid := scenario.Grid{
		Avail:    []string{"crunch"},
		Policies: scenario.Policies(), // fixed, reactive-queue, predictive
		Fleets:   []string{"homog", "hetero-speed"},
	}
	rows, err := scenario.GridSweepStream(grid, experiments.Sweep{
		Seeds: experiments.SeedRange(1, 3),
	}, nil)
	if err != nil {
		panic(err)
	}
	fmt.Print(scenario.RenderGrid(rows))

	// Headline: how much P99 the proactive policies buy back vs fixed.
	base := map[string]float64{}
	for _, r := range rows {
		if r.Policy == "fixed" {
			base[r.Fleet] = r.Reps.P99.Mean()
		}
	}
	fmt.Println()
	for _, r := range rows {
		if r.Policy == "fixed" || base[r.Fleet] <= 0 {
			continue
		}
		fmt.Printf("%-15s on %-13s mean P99 %.0fs vs fixed %.0fs (%.2fx)\n",
			r.Policy, r.Fleet, r.Reps.P99.Mean(), base[r.Fleet],
			base[r.Fleet]/r.Reps.P99.Mean())
	}

	fmt.Println("\nall registered axes (see docs/SCENARIOS.md):")
	fmt.Printf("  availability models: %v\n", scenario.Models())
	fmt.Printf("  autoscaling policies: %v\n", scenario.Policies())
	fmt.Printf("  fleet presets: %v\n", scenario.Fleets())
}
