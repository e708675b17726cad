package calibrate

import (
	"fmt"
	"sort"
	"strings"

	"spotserve/internal/experiments"
	"spotserve/internal/market"
	"spotserve/internal/scenario"
	"spotserve/internal/trace"
)

// FitSpec is the market-parameter grid FitMarket scores: the cross product
// of OU mean prices (the level the process reverts to), OU volatilities,
// and bid-ladder positions/widths. Empty axes default to DefaultFitSpec's.
type FitSpec struct {
	// Bases are candidate mean spot prices in $/h (the OU reversion level
	// of the fleet's primary instance type).
	Bases []float64 `json:"bases,omitempty"`
	// Sigmas are candidate OU log-price volatilities per √second.
	Sigmas []float64 `json:"sigmas,omitempty"`
	// Bids are candidate ladder floors in $/h (the lowest bid).
	Bids []float64 `json:"bids,omitempty"`
	// Spreads are candidate ladder widths (top rung bids Bid·(1+Spread)).
	Spreads []float64 `json:"spreads,omitempty"`
}

// DefaultFitSpec brackets the library defaults: base prices around the
// g4dn 1.9 $/h reference, volatility at half/1×/2× DefaultOU's, and bids
// straddling the default 2.1 $/h ladder floor — 27 candidates.
func DefaultFitSpec() FitSpec {
	return FitSpec{
		Bases:   []float64{1.7, 1.9, 2.1},
		Sigmas:  []float64{0.007, 0.013, 0.026},
		Bids:    []float64{1.9, 2.1, 2.3},
		Spreads: []float64{0.6},
	}
}

// withDefaults fills empty axes from DefaultFitSpec.
func (f FitSpec) withDefaults() FitSpec {
	def := DefaultFitSpec()
	if len(f.Bases) == 0 {
		f.Bases = def.Bases
	}
	if len(f.Sigmas) == 0 {
		f.Sigmas = def.Sigmas
	}
	if len(f.Bids) == 0 {
		f.Bids = def.Bids
	}
	if len(f.Spreads) == 0 {
		f.Spreads = def.Spreads
	}
	return f
}

// FitCell is one candidate's outcome: its parameters and the summed capped
// relative error over the observed trace's scorable metrics (lower is
// better).
type FitCell struct {
	Base   float64 `json:"base"`
	Sigma  float64 `json:"sigma"`
	Bid    float64 `json:"bid"`
	Spread float64 `json:"spread"`
	Score  float64 `json:"score"`
	// Metrics counts the observed metrics the score summed over.
	Metrics int `json:"metrics"`
}

// name encodes the candidate's parameters into its registry-style axis
// name. The name carries the full parameter tuple, so two candidates can
// never share a sweep cache key (Scenario.CacheKey folds the axis names in).
func (c FitCell) name() string {
	return fmt.Sprintf("fit-ps(base=%g,sigma=%g,bid=%g,spread=%g)", c.Base, c.Sigma, c.Bid, c.Spread)
}

// FitReport is FitMarket's outcome: every candidate sorted best-first
// (score ascending, grid order breaking ties) and the winner.
type FitReport struct {
	Name  string    `json:"name,omitempty"`
	Spec  FitSpec   `json:"spec"`
	Cells []FitCell `json:"cells"`
	Best  FitCell   `json:"best"`
}

// scoreCap bounds one metric's contribution to a fit score, so a single
// wildly-off metric (a zero observation, a count far from the simulated
// regime) cannot drown the rest of the trace.
const scoreCap = 2.0

// FitMarket scores the FitSpec grid of market-process parameters against an
// observed trace: each candidate replaces the reference scenario's
// availability model with a price-signal ladder driven by an OU process at
// the candidate's (base, sigma), bills spot capacity against the same
// process, replays, and sums capped relative errors over the trace's
// scorable metrics. All candidates share one sweep, so the search
// parallelizes like a grid; the result is deterministic in (trace, seed,
// spec) at any worker count.
func FitMarket(obs ObservedTrace, spec FitSpec, opts Options) (*FitReport, error) {
	if err := obs.Validate(); err != nil {
		return nil, err
	}
	obsVals := obs.metricValues()
	if len(obsVals) == 0 {
		return nil, fmt.Errorf("calibrate: observed trace %q carries no metrics to fit against", obs.Name)
	}
	ref := obs.Scenario.WithDefaults()
	base, slo, err := ref.cell()
	if err != nil {
		return nil, err
	}
	fp, ok := scenario.FleetByName(ref.Fleet)
	if !ok {
		return nil, fmt.Errorf("calibrate: unknown fleet preset %q", ref.Fleet)
	}
	var types []market.TypeSpec
	for _, t := range fp.Params.TypeList() {
		types = append(types, market.TypeSpec{Name: t.Name, USDPerHour: t.SpotUSDPerHour})
	}
	if len(types) == 0 {
		return nil, fmt.Errorf("calibrate: fleet preset %q lists no instance types", ref.Fleet)
	}
	horizon := obs.horizon()

	spec = spec.withDefaults()
	rep := &FitReport{Name: obs.Name, Spec: spec}
	var cells []experiments.Scenario
	for _, b := range spec.Bases {
		for _, sg := range spec.Sigmas {
			for _, bid := range spec.Bids {
				for _, sp := range spec.Spreads {
					cand := FitCell{Base: b, Sigma: sg, Bid: bid, Spread: sp}
					name := cand.name()
					// The candidate's ladder preempts against the OU curve of
					// the fleet's primary type at the candidate base price; the
					// billing market regenerates the same per-type curves, so
					// spikes and preemptions stay two views of one process.
					ctypes := append([]market.TypeSpec(nil), types...)
					ctypes[0].USDPerHour = b
					ps := scenario.DefaultPriceSignal()
					ps.Horizon = horizon
					ps.Type = ctypes[0]
					ps.Bid = bid
					ps.Spread = sp
					ou := market.DefaultOU()
					ou.Sigma = sg
					cell := base
					cell.AvailModel = name
					cell.TraceFn = func(seed int64) trace.Trace {
						curve, ok := ou.Generate(seed, horizon, ctypes[:1]).CurveFor(ctypes[0].Name)
						if !ok {
							panic(fmt.Sprintf("calibrate: OU generated no curve for %q", ctypes[0].Name))
						}
						return ps.TraceFromCurve(fmt.Sprintf("%s/%d", name, seed), curve)
					}
					cell.Market = name
					cell.MarketFn = func(seed int64) market.Market {
						return ou.Generate(seed, horizon, ctypes)
					}
					cells = append(cells, cell)
					rep.Cells = append(rep.Cells, cand)
				}
			}
		}
	}

	reps, err := replay(opts.Sweep, ref, cells)
	if err != nil {
		return nil, err
	}
	for i := range rep.Cells {
		pred := predictedMetrics(reps[i], horizon, slo)
		score, n := 0.0, 0
		for _, key := range MetricOrder {
			ov, observed := obsVals[key]
			agg, predicted := pred[key]
			if !observed || !predicted {
				continue
			}
			denom := ov
			if denom < 0 {
				denom = -denom
			}
			if denom < 1e-9 {
				denom = 1
			}
			e := agg.Mean() - ov
			if e < 0 {
				e = -e
			}
			e /= denom
			if e > scoreCap {
				e = scoreCap
			}
			score += e
			n++
		}
		if n == 0 {
			return nil, fmt.Errorf("calibrate: observed trace %q shares no metrics with the fit predictions", obs.Name)
		}
		rep.Cells[i].Score = score
		rep.Cells[i].Metrics = n
	}
	// Sort best-first; grid order breaks exact ties so the report is a pure
	// function of its inputs.
	sort.SliceStable(rep.Cells, func(i, j int) bool { return rep.Cells[i].Score < rep.Cells[j].Score })
	rep.Best = rep.Cells[0]
	return rep, nil
}

// Render formats the fit report as a fixed-width table, best candidate
// first and marked.
func (r *FitReport) Render() string {
	var b strings.Builder
	name := r.Name
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(&b, "Market-parameter fit: %s (%d candidates)\n", name, len(r.Cells))
	fmt.Fprintf(&b, "%8s %8s %8s %8s %10s %8s\n", "base$/h", "sigma", "bid$/h", "spread", "score", "metrics")
	for i, c := range r.Cells {
		mark := ""
		if i == 0 {
			mark = "  <- best"
		}
		fmt.Fprintf(&b, "%8.3f %8.4f %8.3f %8.2f %10.4f %8d%s\n",
			c.Base, c.Sigma, c.Bid, c.Spread, c.Score, c.Metrics, mark)
	}
	fmt.Fprintf(&b, "(score: sum over shared metrics of |predicted-observed|/|observed|, capped at %g per metric; lower is better)\n", scoreCap)
	return b.String()
}
