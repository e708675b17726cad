// Package scenario is the simulation-condition library: it turns "a spot
// market, an autoscaling policy and a fleet composition" into first-class,
// composable values spanning three orthogonal axes —
//
//   - availability models: seeded synthetic spot-trace generators
//     (diurnal sinusoid, bursty correlated preemption, capacity-crunch
//     ramp, multi-zone independent pools) emitting the same event-stream
//     format internal/trace parses, so synthetic and real traces are
//     interchangeable;
//   - autoscaling policies: cloud.Autoscaler implementations consulted by
//     the serving system on preemption/ready events (fixed-target as in
//     the paper, reactive queue-depth, predictive over-provisioning);
//   - fleet presets: homogeneous and heterogeneous instance-type tables
//     (per-type GPU count, speed and memory multipliers) threaded through
//     the mapper, planner and optimizer cost decisions.
//
// Every axis value is registered by name, and a Grid fans the cross
// product into experiments.Sweep cells, so any combination parallelizes
// and replicates (multi-seed bands) through the existing harness. All
// generators and policies take explicit seeds; the determinism tests pin
// parallel==serial fingerprints across the new axes.
//
// docs/SCENARIOS.md catalogs every registered name; a test fails when a
// registered axis value is missing from the catalog.
package scenario

import (
	"fmt"
	"sort"
	"strings"

	"spotserve/internal/cloud"
	"spotserve/internal/experiments"
	"spotserve/internal/market"
	"spotserve/internal/metrics"
	"spotserve/internal/model"
	"spotserve/internal/trace"
)

// Scenario names one point in the scenario space: an availability model,
// an autoscaling policy and a fleet preset (each by registry name), plus
// the serving system and model under test.
type Scenario struct {
	// Avail / Policy / Fleet are registry names for the three axes.
	Avail, Policy, Fleet string
	// Market names the spot-price process (internal/market registry)
	// billing the cell's spot capacity with time-varying prices. Empty
	// means flat prices — except under the price-signal availability
	// model, which defaults the market to its own driving process so
	// billing and preemption read the same curve.
	Market string
	// System is the serving system to run (default SpotServe).
	System experiments.System
	// Model is the served LLM (default GPT-20B).
	Model model.Spec
	// Seed is the base replication seed.
	Seed int64
}

// Cell resolves the named axes into one experiments.Scenario ready for the
// sweep harness. On-demand mixing is enabled: the autoscaling-policy axis
// acts through on-demand allocation, exactly like the paper's +O traces.
// Only SpotServe consults the policy; the baseline systems keep their own
// fleet logic (Grid.Cells skips baseline×non-fixed-policy combinations).
func (s Scenario) Cell() (experiments.Scenario, error) {
	am, ok := ModelByName(s.Avail)
	if !ok {
		return experiments.Scenario{}, fmt.Errorf("scenario: unknown availability model %q (have %s)",
			s.Avail, strings.Join(Models(), ", "))
	}
	pf, ok := PolicyByName(s.Policy)
	if !ok {
		return experiments.Scenario{}, fmt.Errorf("scenario: unknown policy %q (have %s)",
			s.Policy, strings.Join(Policies(), ", "))
	}
	fp, ok := FleetByName(s.Fleet)
	if !ok {
		return experiments.Scenario{}, fmt.Errorf("scenario: unknown fleet preset %q (have %s)",
			s.Fleet, strings.Join(Fleets(), ", "))
	}
	sys := s.System
	if sys == "" {
		sys = experiments.SpotServe
	}
	spec := s.Model
	if spec.Name == "" {
		spec = model.GPT20B
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	// The trace itself is generated per replica seed inside experiments.Run
	// (TraceFn below); the cell carries only the model.
	sc := experiments.DefaultScenario(sys, spec, trace.Trace{}, seed)
	sc.AllowOnDemand = true
	sc.AvailModel = am.Name()
	sc.TraceFn = am.Trace
	sc.Fleet = fp.Name
	params := fp.Params
	sc.CloudParams = &params
	sc.Policy = s.Policy
	sc.NewAutoscaler = pf

	// The market axis: price-signal availability implies its own driving
	// process unless overridden, so the curve billing integrates is the
	// curve that caused the preemptions (per-type streams derive from the
	// table index — the fleet's primary type replays the model's curve
	// bit-identically).
	mname := s.Market
	if mname == "" {
		if ps, ok := am.(PriceSignal); ok {
			mname = ps.Process
		}
	}
	if mname != "" {
		proc, ok := market.ByName(mname)
		if !ok {
			return experiments.Scenario{}, fmt.Errorf("scenario: unknown market process %q (have %s)",
				mname, strings.Join(market.Processes(), ", "))
		}
		types := marketTypes(fp.Params)
		horizon := scenarioHorizon
		sc.Market = mname
		sc.MarketFn = func(seed int64) market.Market {
			return proc.Generate(seed, horizon, types)
		}
	}
	return sc, nil
}

// scenarioHorizon is the generation window shared by the library's
// availability models and market processes (the paper's 20-minute scale).
const scenarioHorizon = 1200.0

// marketTypes projects a fleet's instance-type table into the market
// package's vocabulary: type name plus the base spot price its process
// reverts to.
func marketTypes(p cloud.Params) []market.TypeSpec {
	var out []market.TypeSpec
	for _, t := range p.TypeList() {
		out = append(out, market.TypeSpec{Name: t.Name, USDPerHour: t.SpotUSDPerHour})
	}
	return out
}

// Grid is a cross product over the three scenario axes (×systems): the
// scenario-diversity engine's input. Zero-value fields fall back to
// DefaultGrid's choices for that axis.
type Grid struct {
	// Avail / Policies / Fleets are registry names per axis.
	Avail, Policies, Fleets []string
	// Market names a spot-price process applied to every cell ("" = flat
	// billing, except price-signal cells, which bill their own process).
	Market string
	// Markets promotes the spot-price process to a full grid axis: every
	// combination runs once per entry, with "" meaning flat billing as
	// above. Empty falls back to the single Market value, so existing
	// grids keep their exact cell sets.
	Markets []string
	// SLO is the end-to-end latency objective in seconds behind the SLO%
	// column (<= 0 = DefaultSLO). It only scores results; the slo-latency
	// policy carries its own target.
	SLO float64
	// Systems lists the serving systems to run each combination under.
	Systems []experiments.System
	// Model is the served LLM for every cell.
	Model model.Spec
	// Seed is the base seed (the sweep's Seeds override per-replica).
	Seed int64
}

// DefaultSLO is the latency objective scored by the grid's SLO% column and
// targeted by the default slo-latency policy, in seconds.
const DefaultSLO = 120.0

// DefaultGrid covers every registered availability model and policy on the
// homogeneous and speed-heterogeneous fleets with SpotServe — 50 cells
// (5 availability models × 5 policies × 2 fleets).
func DefaultGrid() Grid {
	return Grid{
		Avail:    Models(),
		Policies: Policies(),
		Fleets:   []string{"homog", "hetero-speed"},
		Systems:  []experiments.System{experiments.SpotServe},
		Model:    model.GPT20B,
		Seed:     1,
	}
}

// Cells expands the grid into sweep-ready experiments cells in
// deterministic axis-major order (avail, policy, fleet, market, system).
func (g Grid) Cells() ([]experiments.Scenario, error) {
	def := DefaultGrid()
	if len(g.Avail) == 0 {
		g.Avail = def.Avail
	}
	if len(g.Policies) == 0 {
		g.Policies = def.Policies
	}
	if len(g.Fleets) == 0 {
		g.Fleets = def.Fleets
	}
	if len(g.Systems) == 0 {
		g.Systems = def.Systems
	}
	if g.Model.Name == "" {
		g.Model = def.Model
	}
	if g.Seed == 0 {
		g.Seed = def.Seed
	}
	markets := g.Markets
	if len(markets) == 0 {
		markets = []string{g.Market}
	}
	var out []experiments.Scenario
	for _, av := range g.Avail {
		for _, po := range g.Policies {
			for _, fl := range g.Fleets {
				for _, mk := range markets {
					for _, sys := range g.Systems {
						// The baselines do not consult autoscaling policies
						// (their fleet logic is part of what they baseline);
						// skip those combinations rather than rendering rows
						// whose policy label would be a no-op.
						if sys != experiments.SpotServe && po != "fixed" {
							continue
						}
						sc, err := Scenario{
							Avail: av, Policy: po, Fleet: fl, Market: mk,
							System: sys, Model: g.Model, Seed: g.Seed,
						}.Cell()
						if err != nil {
							return nil, err
						}
						out = append(out, sc)
					}
				}
			}
		}
	}
	return out, nil
}

// FullGrid is the scale-out cross: every registered availability model
// plus a 12-variant bid ladder (LadderNames), every policy, every fleet
// preset, and flat billing plus every market process — 17×5×4×3 = 1020
// cells under SpotServe. The grid sweeps stream rows with peak memory
// proportional to in-flight cells, not the grid, so this scale runs in a
// bounded footprint.
func FullGrid() Grid {
	g := DefaultGrid()
	g.Avail = append(Models(), LadderNames(
		[]float64{2.0, 2.2, 2.4},
		[]float64{0.3, 0.6, 0.9, 1.2})...)
	g.Fleets = Fleets()
	g.Markets = append([]string{""}, market.Processes()...)
	return g
}

// GridRow is one grid cell's outcome: the first-seed replica's headline
// stats plus cross-seed bands when the sweep replicates.
type GridRow struct {
	Avail, Policy, Fleet string
	// Market is the cell's spot-price process ("" = flat billing).
	Market string
	System experiments.System
	// Summary / CostUSD / OnDemand are the first-seed replica.
	Summary  metrics.Summary
	CostUSD  float64
	OnDemand int
	Reps     experiments.Replication
	// CostPer1kTok aggregates USD per 1000 generated tokens across the
	// cell's seed replicas — the economics headline a spot market moves.
	CostPer1kTok metrics.Agg
	// SLOPct aggregates the percentage of requests completing within the
	// grid's SLO latency across seed replicas; SLO records the objective
	// it was scored against.
	SLOPct metrics.Agg
	SLO    float64
	// CacheHitRate aggregates the reconfiguration engine's memo hit rate
	// across the cell's seed replicas (a diagnostic — hit rates never
	// change results, so they are not fingerprinted).
	CacheHitRate metrics.Agg
	// CacheShiftRate aggregates the share of memo lookups that missed
	// because the target shifted during a drain window (same fleet,
	// moved target — reconfig.CacheStats.ShiftMisses) rather than from a
	// cold fleet change. Diagnostic like CacheHitRate; never fingerprinted.
	CacheShiftRate metrics.Agg
	// Fingerprints are the per-seed replica digests in sweep-seed order —
	// the determinism contract a served row is checked against (a daemon
	// job's rows must fingerprint-match the equivalent CLI run).
	Fingerprints []string
	// Err is the cell's failure ("" on success): the first failed
	// replica's error, in seed order. A failed cell renders as an n/a row
	// with an error footer instead of aborting the sweep; its stats fields
	// and Fingerprints are left zero.
	Err string `json:"error,omitempty"`
	// Retries counts extra simulation attempts across the cell's replicas
	// (attempts beyond the first, summed). Always 0 when no fault fired,
	// so fault-free rows stay byte-identical whatever retry policy ran.
	Retries int `json:"retries,omitempty"`
}

// CostPer1kTok converts one replica's accrued USD into $ per 1000
// generated tokens (0 when nothing completed). Exported as the single
// definition of the grid's economics column — internal/calibrate scores
// observed traces against the exact same quantity.
func CostPer1kTok(r experiments.Result) float64 {
	tokens := r.GeneratedTokens()
	if tokens <= 0 {
		return 0
	}
	return r.Stats.CostUSD / tokens * 1000
}

// SLOPct returns the percentage of one replica's completed requests whose
// end-to-end latency met the objective. Exported for the same reason as
// CostPer1kTok: calibration reports must mean what the grid's SLO% column
// means.
func SLOPct(r experiments.Result, slo float64) float64 {
	if r.Stats.Latencies == nil || r.Stats.Latencies.Count() == 0 {
		return 0
	}
	vals := r.Stats.Latencies.Values()
	met := 0
	for _, v := range vals {
		if v <= slo {
			met++
		}
	}
	return float64(met) / float64(len(vals)) * 100
}

// BuildRow folds one cell's successful seed replicas into its grid row. It
// is pure in its inputs, so a row streamed mid-sweep is byte-identical to the
// row the finished sweep returns; the calibration replay streams its single
// cell through it too, so a daemon calibrate job's row is shaped exactly like
// a grid job's.
func BuildRow(rs []experiments.Result, slo float64) GridRow {
	first := rs[0]
	row := GridRow{
		Avail:    first.Scenario.AvailModel,
		Policy:   first.Scenario.Policy,
		Fleet:    first.Scenario.Fleet,
		Market:   first.Scenario.Market,
		System:   first.Scenario.System,
		Summary:  first.Stats.Latency,
		CostUSD:  first.Stats.CostUSD,
		OnDemand: first.Stats.OnDemandAllocated,
		Reps:     experiments.NewReplication(rs),
		SLO:      slo,
	}
	for _, r := range rs {
		row.CostPer1kTok.Add(CostPer1kTok(r))
		row.SLOPct.Add(SLOPct(r, slo))
		cs := r.Stats.ReconfigCache
		row.CacheHitRate.Add(cs.HitRate())
		if l := cs.Lookups(); l > 0 {
			row.CacheShiftRate.Add(float64(cs.ShiftMisses()) / float64(l))
		} else {
			row.CacheShiftRate.Add(0)
		}
		row.Fingerprints = append(row.Fingerprints, r.Fingerprint())
	}
	return row
}

// buildRowFT folds one cell's fault-isolated replicas into its grid row.
// With every replica successful it defers to BuildRow (plus the retry
// count), so a fault-free row is byte-identical whatever retry policy ran.
// Any failed replica degrades the whole cell to an error row — mixing bands
// over a partial seed set would silently change what the row means —
// carrying the axes from the cell scenario (the failed replicas have no
// Result to read them from).
func buildRowFT(cell experiments.Scenario, crs []experiments.CellResult, slo float64) GridRow {
	var ok []experiments.Result
	retries := 0
	errMsg := ""
	for _, cr := range crs {
		if cr.Attempts > 1 {
			retries += cr.Attempts - 1
		}
		if cr.Err != nil {
			if errMsg == "" {
				errMsg = cr.Err.Error()
			}
			continue
		}
		ok = append(ok, cr.Result)
	}
	if errMsg == "" {
		row := BuildRow(ok, slo)
		row.Retries = retries
		return row
	}
	return GridRow{
		Avail:   cell.AvailModel,
		Policy:  cell.Policy,
		Fleet:   cell.Fleet,
		Market:  cell.Market,
		System:  cell.System,
		SLO:     slo,
		Err:     errMsg,
		Retries: retries,
	}
}

// GridSweepStream runs the grid through the sweep pool, replicating every
// cell at each sweep seed (default: the grid's base seed once), and returns
// one row per cell in grid order. Results are byte-identical to a serial run
// at any worker count.
//
// Cells are fault-isolated: a panicking, erroring or injected-fault replica
// degrades its cell to an error row (rendered n/a) instead of aborting the
// sweep, failed replicas retry under the sweep's RetryPolicy, and the
// sweep's Context cancels the run cooperatively (unstarted cells become
// error rows).
//
// When onRow is non-nil it is invoked as each cell's last seed replica
// finishes (from sweep worker goroutines, serialized by the pool's mutex)
// with the cell index and the row — the same row the returned slice holds
// at that index; the serving daemon streams partial grids through it. Cells
// complete in nondeterministic order under parallelism.
//
// Aggregation is streaming and memory-bounded: raw replica Results are held
// only while their cell is in flight and released the moment the cell's row
// folds, so peak memory is O(active cells × seeds), not O(grid × seeds).
// A caller-installed sw.OnResult still fires for every successful replica.
func GridSweepStream(g Grid, sw experiments.Sweep, onRow func(cell int, row GridRow)) ([]GridRow, error) {
	cells, err := g.Cells()
	if err != nil {
		return nil, err
	}
	if len(sw.Seeds) == 0 {
		seed := g.Seed
		if seed == 0 {
			seed = 1
		}
		sw.Seeds = []int64{seed}
	}
	slo := g.SLO
	if slo <= 0 {
		slo = DefaultSLO
	}
	// Pending buffers are allocated on a cell's first replica and dropped
	// with its last; the pool serializes onCell, so the bookkeeping needs no
	// locking of its own.
	perCell := len(sw.Seeds)
	rows := make([]GridRow, len(cells))
	pending := make([][]experiments.CellResult, len(cells))
	landed := make([]int, len(cells))
	sw.Run(cells, func(i int, cr experiments.CellResult, _ bool) {
		cell := i / perCell
		if pending[cell] == nil {
			pending[cell] = make([]experiments.CellResult, perCell)
		}
		pending[cell][i%perCell] = cr
		if landed[cell]++; landed[cell] == perCell {
			rows[cell] = buildRowFT(cells[cell], pending[cell], slo)
			pending[cell] = nil // release: the row keeps aggregates, not Results
			if onRow != nil {
				onRow(cell, rows[cell])
			}
		}
	})
	return rows, nil
}

// RenderGrid formats grid rows as a text table, with mean ±stderr
// [min,max] bands across seeds when the sweep replicated.
func RenderGrid(rows []GridRow) string {
	var b strings.Builder
	bands := false
	for _, r := range rows {
		if r.Reps.Replicated() {
			bands = true
			break
		}
	}
	fmt.Fprintf(&b, "Scenario grid: availability × policy × fleet\n")
	fmt.Fprintf(&b, "%-20s %-15s %-13s %-18s %8s %8s %9s %8s %6s %4s %8s",
		"Avail", "Policy", "Fleet", "System", "Avg", "P99", "Cost", "$/1ktok", "SLO%", "OD", "Cache%")
	if bands {
		fmt.Fprintf(&b, "  %-30s %-30s %-30s", "P99 band", "Cost band", "$/1ktok band")
	}
	b.WriteString("\n")
	markets := map[string]bool{}
	var failed []GridRow
	for _, r := range rows {
		if r.Err != "" {
			// A fault-isolated failure: the axes identify the cell, every
			// stat is unknowable, and the error footer below explains why.
			fmt.Fprintf(&b, "%-20s %-15s %-13s %-18s %8s %8s %9s %8s %6s %4s %8s",
				r.Avail, r.Policy, r.Fleet, r.System,
				"n/a", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a")
			if bands {
				fmt.Fprintf(&b, "  %-30s %-30s %-30s", "n/a", "n/a", "n/a")
			}
			b.WriteString("\n")
			failed = append(failed, r)
			continue
		}
		// Cache% breaks the memo diagnostic into hit rate / drain-window
		// shift-miss share: "93/2%" reads "93% hits, 2% of lookups missed
		// only because the target shifted mid-drain".
		fmt.Fprintf(&b, "%-20s %-15s %-13s %-18s %7.1fs %7.1fs %8.2f$ %8.4f %5.1f%% %4d %8s",
			r.Avail, r.Policy, r.Fleet, r.System,
			r.Summary.Avg, r.Summary.P99, r.CostUSD,
			r.CostPer1kTok.Mean(), r.SLOPct.Mean(), r.OnDemand,
			fmt.Sprintf("%.0f/%.0f%%", r.CacheHitRate.Mean()*100, r.CacheShiftRate.Mean()*100))
		if bands {
			fmt.Fprintf(&b, "  %-30s %-30s %-30s",
				r.Reps.P99.Band(), r.Reps.Cost.Band(), r.CostPer1kTok.Band())
		}
		b.WriteString("\n")
		if r.Market != "" {
			markets[r.Market] = true
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(&b, "(%d cell(s) failed and render n/a; fault-isolated errors:)\n", len(failed))
		for _, r := range failed {
			fmt.Fprintf(&b, "(  %s/%s/%s/%s: %s)\n", r.Avail, r.Policy, r.Fleet, r.System, r.Err)
		}
	}
	if bands && len(rows) > 0 {
		// Report the max replication across rows, not row 0's: with mixed
		// replication the footer must describe the widest band printed.
		maxN := 0
		for _, r := range rows {
			if r.Reps.Avg.N > maxN {
				maxN = r.Reps.Avg.N
			}
		}
		fmt.Fprintf(&b, "(bands: mean ±stderr [min,max] over %d seeds)\n", maxN)
	}
	slo := DefaultSLO
	if len(rows) > 0 && rows[0].SLO > 0 {
		slo = rows[0].SLO
	}
	fmt.Fprintf(&b, "($/1ktok, SLO%%: mean across seeds; SLO%% = requests within the %.0f s objective)\n", slo)
	if len(markets) > 0 {
		names := make([]string, 0, len(markets))
		for n := range markets {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "(market: spot billing integrates the %s price process(es); flat-price rows unmarked)\n",
			strings.Join(names, ", "))
	}
	fmt.Fprintf(&b, "(Cache%%: mean reconfiguration-memo hit rate / drain-window shift-miss share across seeds; diagnostic only, never affects results)\n")
	return b.String()
}
