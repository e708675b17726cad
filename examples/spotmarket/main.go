// Spotmarket: the spot-price market subsystem end to end. A seeded
// regime-switching price process (internal/market) drives everything:
// capacity preempts when the price crosses the bid ladder (the
// price-signal availability model), billing integrates the same curve
// piecewise, and the SLO/cost-aware autoscaling policies trade dollars
// against latency on top — compared against the paper's fixed-target
// policy on one market.
//
// Run with: go run ./examples/spotmarket
package main

import (
	"fmt"
	"strings"

	"spotserve/internal/experiments"
	"spotserve/internal/market"
	"spotserve/internal/scenario"
)

const seed = 7

func main() {
	// The market: a squeeze process on the g4dn base price. The same
	// curve the availability model preempts against is the one billing
	// integrates.
	ps := scenario.DefaultPriceSignal()
	proc, ok := market.ByName(ps.Process)
	if !ok {
		panic(fmt.Sprintf("unknown market process %q (have %v)", ps.Process, market.Processes()))
	}
	curve, ok := proc.Generate(seed, ps.Horizon, []market.TypeSpec{ps.Type}).CurveFor(ps.Type.Name)
	if !ok {
		panic(fmt.Sprintf("market %q generated no curve for type %q", ps.Process, ps.Type.Name))
	}
	tr := ps.Trace(seed)

	prices := make([]float64, len(curve.Samples))
	for i, s := range curve.Samples {
		prices[i] = s.USDPerHour
	}
	counts := make([]float64, len(curve.Samples))
	for i, s := range curve.Samples {
		counts[i] = float64(tr.CountAt(s.At))
	}
	fmt.Printf("market %q at seed %d: base %.2f $/h, peak %.2f $/h, bid ladder %.2f–%.2f $/h\n",
		ps.Process, seed, ps.Type.USDPerHour, curve.MaxPrice(), ps.Bid, ps.Bid*(1+ps.Spread))
	fmt.Printf("price     |%s|\n", sparkline(prices, curve.MaxPrice()))
	fmt.Printf("capacity  |%s|  (%d availability changes, range [%d, %d])\n\n",
		sparkline(counts, float64(ps.Pool)), len(tr.Events), tr.MinCount(), tr.MaxCount())

	// Three policies on the identical market: the paper's fixed target,
	// the SLO holder, and the budget cap.
	rows, err := scenario.GridSweepStream(scenario.Grid{
		Avail:    []string{"price-signal"},
		Policies: []string{"fixed", "slo-latency", "cost-cap"},
		Fleets:   []string{"homog"},
		Seed:     seed,
	}, experiments.Sweep{Seeds: []int64{seed}}, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-13s %8s %8s %6s %10s %9s %7s\n",
		"Policy", "Avg", "P99", "Done", "Cost USD", "$/1ktok", "SLO%")
	for _, r := range rows {
		fmt.Printf("%-13s %7.1fs %7.1fs %6d %9.2f$ %9.4f %6.1f%%\n",
			r.Policy, r.Summary.Avg, r.Summary.P99, r.Summary.Count,
			r.CostUSD, r.CostPer1kTok.Mean(), r.SLOPct.Mean())
	}
	fmt.Printf("\n(slo-latency buys capacity to hold p99 ≤ %.0f s; cost-cap sheds when the\n"+
		" squeeze pushes spend past its budget — same market, different trade.)\n", scenario.DefaultSLO)
}

func sparkline(vals []float64, maxV float64) string {
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	var b strings.Builder
	step := len(vals) / 60
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(vals); i += step {
		idx := int(vals[i] / maxV * float64(len(glyphs)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(glyphs) {
			idx = len(glyphs) - 1
		}
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}
