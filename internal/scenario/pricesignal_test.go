package scenario

import (
	"testing"

	"spotserve/internal/experiments"
	"spotserve/internal/market"
)

// TestPriceSignalLadder pins the bid-ladder capacity function: full pool at
// or below the bid, rungs dropping one by one as the price climbs, the
// floor surviving any spike.
func TestPriceSignalLadder(t *testing.T) {
	p := DefaultPriceSignal() // bid 2.1, spread 0.6 → top rung 3.36, pool 12, min 1
	cases := []struct {
		price float64
		want  int
	}{
		{1.0, 12},
		{2.1, 12},  // at the bid, every rung holds
		{2.15, 11}, // just above the lowest rung
		{2.8, 5},   // rungs 2.1·(1+0.6k/11) ≥ 2.8 ⇔ k ≥ 6.11 → 5 rungs
		{3.36, 1},  // only the top rung bids this high
		{10.0, 1},  // floor survives any squeeze
		{100.0, 1},
	}
	for _, tc := range cases {
		if got := p.CountAt(tc.price); got != tc.want {
			t.Errorf("CountAt(%v) = %d, want %d", tc.price, got, tc.want)
		}
	}
}

// TestPriceSignalWavesAreCaused checks preemption waves trace back to the
// market: wherever the generated trace loses capacity, the driving curve's
// price must exceed the bid at that moment — availability is an effect of
// price, never scripted independently of it.
func TestPriceSignalWavesAreCaused(t *testing.T) {
	p := DefaultPriceSignal()
	proc, _ := market.ByName(p.Process)
	totalDrops := 0
	for seed := int64(1); seed <= 10; seed++ {
		tr := p.Trace(seed)
		curve, _ := proc.Generate(seed, p.Horizon, []market.TypeSpec{p.Type}).CurveFor(p.Type.Name)
		prev := p.Pool
		for _, ev := range tr.Events {
			if ev.Count < prev {
				totalDrops++
				if price := curve.PriceAt(ev.At); price <= p.Bid {
					t.Errorf("seed %d: capacity dropped to %d at t=%v with price %.3f ≤ bid %.3f",
						seed, ev.Count, ev.At, price, p.Bid)
				}
			}
			prev = ev.Count
		}
	}
	// An individual all-calm seed is legal, but ten consecutive waveless
	// seeds would make the property above vacuous — the squeeze defaults
	// must actually cause preemption somewhere.
	if totalDrops == 0 {
		t.Error("no seed in 1..10 produced a single preemption wave — the market never crossed the bid")
	}
}

// TestPriceSignalCellBillsItsOwnMarket is the coherence gate: a
// price-signal grid cell must carry a MarketFn whose primary-type curve is
// bit-identical to the curve the availability model preempted against —
// billing spikes and preemption waves are two views of one process.
func TestPriceSignalCellBillsItsOwnMarket(t *testing.T) {
	cell, err := Scenario{Avail: "price-signal", Policy: "fixed", Fleet: "homog"}.Cell()
	if err != nil {
		t.Fatal(err)
	}
	if cell.Market != DefaultPriceSignal().Process {
		t.Fatalf("cell market %q, want the model's own process %q", cell.Market, DefaultPriceSignal().Process)
	}
	if cell.MarketFn == nil {
		t.Fatal("price-signal cell has no MarketFn — spot billing would stay flat")
	}
	ps := DefaultPriceSignal()
	proc, _ := market.ByName(ps.Process)
	for _, seed := range []int64{1, 7} {
		bill := cell.MarketFn(seed)
		billCurve, ok := bill.CurveFor("default") // the homog fleet's primary type
		if !ok {
			t.Fatalf("seed %d: billing market has no curve for the primary type", seed)
		}
		availCurve, _ := proc.Generate(seed, ps.Horizon, []market.TypeSpec{ps.Type}).CurveFor(ps.Type.Name)
		if len(billCurve.Samples) != len(availCurve.Samples) {
			t.Fatalf("seed %d: billing curve has %d samples, availability curve %d",
				seed, len(billCurve.Samples), len(availCurve.Samples))
		}
		for i := range billCurve.Samples {
			if billCurve.Samples[i] != availCurve.Samples[i] {
				t.Fatalf("seed %d: curves diverge at sample %d: %+v vs %+v",
					seed, i, billCurve.Samples[i], availCurve.Samples[i])
			}
		}
	}
	// And a priced run actually serves with market billing end to end.
	res := experiments.Run(cell)
	if res.Stats.Completed == 0 {
		t.Fatal("price-signal cell served nothing")
	}
	if res.Stats.CostUSD <= 0 {
		t.Fatal("price-signal cell accrued no cost")
	}
}

// TestMarketAxisFingerprinted asserts cells differing only in the market
// axis produce different result fingerprints (billing is observable).
func TestMarketAxisFingerprinted(t *testing.T) {
	flat, err := Scenario{Avail: "bursty", Policy: "fixed", Fleet: "homog"}.Cell()
	if err != nil {
		t.Fatal(err)
	}
	priced, err := Scenario{Avail: "bursty", Policy: "fixed", Fleet: "homog", Market: "ou"}.Cell()
	if err != nil {
		t.Fatal(err)
	}
	rf, rp := experiments.Run(flat), experiments.Run(priced)
	if rf.Fingerprint() == rp.Fingerprint() {
		t.Error("market axis not reflected in result fingerprints")
	}
	if rf.Stats.CostUSD == rp.Stats.CostUSD {
		t.Error("ou market billed exactly the flat price — curve path not engaged")
	}
}

// TestUnknownMarketRejected checks the axis validates its registry name.
func TestUnknownMarketRejected(t *testing.T) {
	if _, err := (Scenario{Avail: "diurnal", Policy: "fixed", Fleet: "homog", Market: "nope"}).Cell(); err == nil {
		t.Error("unknown market process accepted")
	}
}
