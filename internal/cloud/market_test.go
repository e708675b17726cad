package cloud

import (
	"math"
	"testing"

	"spotserve/internal/market"
	"spotserve/internal/sim"
	"spotserve/internal/trace"
)

// staircase builds a price curve sampling the linear ramp a + b·t every h
// seconds — a curve whose piecewise-constant integral has the closed form
// h·(M·a + b·h·M(M−1)/2)/3600 over the first M whole steps.
func staircase(typeName string, a, b, h, horizon float64) market.Curve {
	c := market.Curve{Type: typeName, Horizon: horizon}
	for t := 0.0; t < horizon; t += h {
		c.Samples = append(c.Samples, market.Sample{At: t, USDPerHour: a + b*t})
	}
	return c
}

// TestValidateDeterministicCurveOrder is the regression test for Validate
// ranging over the market's curve map: with two invalid curves, the error
// named whichever one map order visited first. Curves are now checked in
// name order, so every call names "a".
func TestValidateDeterministicCurveOrder(t *testing.T) {
	p := DefaultParams()
	p.Market = &market.Market{Process: "test", Curves: map[string]market.Curve{
		"b": {Type: "b"},
		"a": {Type: "a"},
	}}
	want := `cloud: market curve "a": market: curve "a" must start with a sample at t=0`
	for i := 0; i < 50; i++ {
		err := p.Validate()
		if err == nil {
			t.Fatal("invalid curves accepted")
		}
		if err.Error() != want {
			t.Fatalf("run %d: Validate() = %q, want %q", i, err.Error(), want)
		}
	}
}

// TestMarketBillingIntegration is the acceptance gate for time-varying
// billing: with a market configured, the meter's piecewise integral over an
// instance's exact lifetime must match the closed-form sum of the sampled
// ramp — including an instance whose billing is cut mid-run by preemption.
func TestMarketBillingIntegration(t *testing.T) {
	const (
		a, b    = 2.0, 0.001 // price ramp: 2 $/h rising 3.6 $/h per simulated hour
		h       = 50.0       // sampling interval
		horizon = 2000.0
	)
	p := DefaultParams()
	p.Market = &market.Market{
		Process: "test-ramp",
		Curves:  map[string]market.Curve{"default": staircase("default", a, b, h, horizon)},
	}
	s := sim.New()
	c := New(s, p, &recorder{s: s})
	// One spot instance from t=0; the count drops at t=600, so it bills
	// until termination at 600 + grace (30).
	tr := trace.Trace{Name: "ramp", Horizon: horizon, Events: []trace.Event{
		{At: 0, Count: 1}, {At: 600, Count: 0},
	}}
	if err := c.ReplayTrace(tr); err != nil {
		t.Fatal(err)
	}
	s.Run(horizon)

	end := 600.0 + p.GracePeriod
	// Closed form: 12 whole 50 s steps cover [0, 600); the 13th step's
	// price bills for the 30 s grace tail.
	whole := 0.0
	steps := int(end / h) // 12 full steps, k = 0..11
	for k := 0; k < steps; k++ {
		whole += (a + b*float64(k)*h) * h
	}
	want := (whole + (a+b*float64(steps)*h)*(end-float64(steps)*h)) / 3600
	if got := c.CostUSD(); math.Abs(got-want) > 1e-12 {
		t.Errorf("market CostUSD = %v, want closed-form %v", got, want)
	}

	// The same fleet without a market bills the flat spot price — and the
	// two disagree, proving the curve path actually engaged.
	s2 := sim.New()
	c2 := New(s2, DefaultParams(), &recorder{s: s2})
	if err := c2.ReplayTrace(tr); err != nil {
		t.Fatal(err)
	}
	s2.Run(horizon)
	flat := end / 3600 * DefaultParams().SpotUSDPerHour
	if got := c2.CostUSD(); math.Abs(got-flat) > 1e-12 {
		t.Errorf("flat CostUSD = %v, want %v", got, flat)
	}
	if math.Abs(want-flat) < 1e-9 {
		t.Fatal("test curve accidentally matches the flat price — no discrimination")
	}
}

// TestMarketBillsOpenInstancesToNow checks still-running instances accrue
// curve-priced cost mid-run (TotalUSD prices open bills to now).
func TestMarketBillsOpenInstancesToNow(t *testing.T) {
	p := DefaultParams()
	p.Market = &market.Market{Curves: map[string]market.Curve{
		"default": {Type: "default", Horizon: 1000, Samples: []market.Sample{
			{At: 0, USDPerHour: 1.0}, {At: 100, USDPerHour: 7.0},
		}},
	}}
	s := sim.New()
	c := New(s, p, &recorder{s: s})
	c.Prealloc(1, Spot)
	s.Run(200)
	want := (100*1.0 + 100*7.0) / 3600
	if got := c.CostUSD(); math.Abs(got-want) > 1e-12 {
		t.Errorf("open-bill CostUSD = %v, want %v", got, want)
	}
	// On-demand instances ignore the market (their price is contractual).
	s3 := sim.New()
	c3 := New(s3, p, &recorder{s: s3})
	c3.Prealloc(1, OnDemand)
	s3.Run(200)
	wantOD := 200.0 / 3600 * p.OnDemandUSDPerHour
	if got := c3.CostUSD(); math.Abs(got-wantOD) > 1e-12 {
		t.Errorf("on-demand CostUSD = %v, want flat %v", got, wantOD)
	}
}

// heteroParams builds a two-type fleet for rotation tests.
func heteroParams() Params {
	p := DefaultParams()
	p.Types = []InstanceType{
		{Name: "A", GPUs: 4, Speed: 1, MemScale: 1, SpotUSDPerHour: 1, OnDemandUSDPerHour: 2},
		{Name: "B", GPUs: 4, Speed: 1, MemScale: 1, SpotUSDPerHour: 1, OnDemandUSDPerHour: 2},
	}
	return p
}

// TestSpotTypeRotationDeterministic pins the launch-path audit: the type
// rotation advances exactly once per spot instance actually created —
// peeking the next type, zero-count launches, and on-demand allocations
// never consume a slot — so the assigned type sequence is a pure function
// of the launch order.
func TestSpotTypeRotationDeterministic(t *testing.T) {
	s := sim.New()
	c := New(s, heteroParams(), &recorder{s: s})

	// Peeking is side-effect-free.
	if c.spotTypeAt(c.spotLaunches).Name != "A" || c.spotTypeAt(c.spotLaunches).Name != "A" {
		t.Fatal("peeking the rotation advanced it")
	}
	// Paths that launch nothing consume nothing.
	c.launchSpot(0, 0)
	c.Prealloc(0, Spot)
	c.AllocOnDemand(2) // on-demand never touches the spot rotation
	if c.spotLaunches != 0 {
		t.Fatalf("spotLaunches = %d after non-launches, want 0", c.spotLaunches)
	}
	// Mixed launch paths interleave types in strict creation order.
	c.Prealloc(3, Spot)
	c.launchSpot(2, 0)
	var got []string
	for _, inst := range c.Alive() {
		if inst.Kind == Spot {
			got = append(got, inst.Type.Name)
		}
	}
	want := []string{"A", "B", "A", "B", "A"}
	if len(got) != len(want) {
		t.Fatalf("spot fleet = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation order %v, want %v", got, want)
		}
	}
}
