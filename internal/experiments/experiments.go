// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each experiment has one entry point returning structured
// rows; cmd/experiments renders them as text tables, and the repository's
// benchmarks wrap them so `go test -bench` replays the full evaluation.
//
// Experiment index (see DESIGN.md):
//
//	Table 1  — model overview: min #GPUs, (P,M), l_exe(B=1)
//	Figure 5 — availability traces A_S, B_S and the +O mixes
//	Figure 6 — end-to-end latency, 3 models × 4 traces × 3 systems
//	Figure 7 — monetary cost vs latency on GPT-20B
//	Figure 8 — fluctuating (MAF) workload study
//	Figure 9 — ablation of SpotServe's components
package experiments

import (
	"fmt"

	"spotserve/internal/cloud"
	"spotserve/internal/config"
	"spotserve/internal/core"
	"spotserve/internal/cost"
	"spotserve/internal/market"
	"spotserve/internal/metrics"
	"spotserve/internal/model"
	"spotserve/internal/trace"
	"spotserve/internal/workload"
)

// System identifies which serving system a scenario runs.
type System string

const (
	SpotServe    System = "SpotServe"
	Reparallel   System = "Reparallelization"
	Reroute      System = "Rerouting"
	OnDemandOnly System = "OnDemand"
)

// Systems lists the comparison order used in the figures.
func Systems() []System { return []System{Reroute, Reparallel, SpotServe} }

// Scenario describes one serving run.
type Scenario struct {
	System System
	Spec   model.Spec
	// Trace is the spot availability trace (ignored for OnDemandOnly).
	Trace trace.Trace
	// OnDemandN is the fixed fleet size for OnDemandOnly.
	OnDemandN int
	// Rate is the stable arrival rate; RateFn (optional) overrides it
	// with a fluctuating profile.
	Rate   float64
	RateFn workload.RateFn
	// CV is the arrival burstiness (paper: 6).
	CV float64
	// AllowOnDemand enables Algorithm-1 on-demand mixing (+O traces).
	AllowOnDemand bool
	// Features overrides SpotServe's feature set when non-nil (ablation).
	Features *core.Features
	// Drain extends the run past the trace horizon so queued requests
	// finish.
	Drain float64
	// SampleFleet records instance counts every 10 s (Figure 5).
	SampleFleet bool
	Seed        int64

	// --- scenario-library axes (zero values = the paper's fixed setup) ---

	// AvailModel names the availability model that produced the trace
	// (fingerprinted; "" = a fixed/embedded trace).
	AvailModel string
	// TraceFn, when non-nil, regenerates the availability trace from the
	// replica seed, so multi-seed replication varies the spot market along
	// with the workload. It must be deterministic in the seed.
	TraceFn func(seed int64) trace.Trace
	// Fleet names the fleet preset (fingerprinted; "" = homogeneous
	// default) and CloudParams carries its resolved provider
	// configuration (nil = cloud.DefaultParams()).
	Fleet       string
	CloudParams *cloud.Params
	// Policy names the autoscaling policy (fingerprinted; "" =
	// fixed-target) and NewAutoscaler builds a fresh policy instance for
	// one run from the replica seed (policies may be stateful).
	Policy        string
	NewAutoscaler func(seed int64) cloud.Autoscaler
	// Market names the spot-price process driving time-varying spot
	// billing (fingerprinted; "" = flat prices), and MarketFn regenerates
	// the per-type price curves from the replica seed — so multi-seed
	// bands sample the price process along with the workload and trace.
	// It must be deterministic in the seed.
	Market   string
	MarketFn func(seed int64) market.Market

	// DisableReconfigCache runs the reconfiguration pipeline down its cold
	// recompute path — the reference mode the cache equivalence tests
	// compare against. Results are byte-identical either way (the memos
	// replay exact recurrences), so the flag is not fingerprinted.
	DisableReconfigCache bool

	// disableFastForward runs the engine one event per iteration — the
	// reference mode the fast-forward equivalence test compares against.
	// Results are byte-identical either way, so it is not part of the
	// public scenario surface (and not fingerprinted).
	disableFastForward bool
}

// Result bundles a scenario's outcome.
type Result struct {
	Scenario Scenario
	Stats    core.Stats
	// SpotCount / OnDemandCount sample the fleet over time when
	// SampleFleet was set.
	SpotCount     metrics.Series
	OnDemandCount metrics.Series
	// FinalConfig is the configuration at the end of the run.
	FinalConfig config.Config
	// Steps counts simulator events executed — a diagnostic for the
	// fast-forward kernel (not part of the result fingerprint: fast-forward
	// changes the event count, never the results).
	Steps uint64
}

// DefaultScenario fills the paper's defaults for a model/system/trace.
func DefaultScenario(sys System, spec model.Spec, tr trace.Trace, seed int64) Scenario {
	return Scenario{
		System: sys,
		Spec:   spec,
		Trace:  tr,
		Rate:   workload.DefaultRates()[spec.Name],
		CV:     6,
		Drain:  900,
		Seed:   seed,
	}
}

// Table1Row is one row of Table 1.
type Table1Row struct {
	Model   string
	SizeGB  float64
	MinGPUs int
	P, M    int
	LexeB1  float64
	// PaperMinGPUs / PaperLexe are the published values for comparison.
	PaperMinGPUs int
	PaperLexe    float64
}

// Table1 regenerates Table 1 from the cost model.
func Table1() []Table1Row {
	paper := map[string]struct {
		min  int
		lexe float64
	}{
		"OPT-6.7B":  {4, 5.447},
		"GPT-20B":   {12, 14.373},
		"LLaMA-30B": {16, 17.540},
	}
	var rows []Table1Row
	for _, spec := range model.All() {
		est := cost.NewEstimator(cost.DefaultParams(), spec)
		min, shape := est.MinGPUs(config.DefaultLimits(), cost.DefaultMaxTokens, false)
		rows = append(rows, Table1Row{
			Model:        spec.Name,
			SizeGB:       spec.ParamBytes / model.GB,
			MinGPUs:      min,
			P:            shape.P,
			M:            shape.M,
			LexeB1:       est.Exec(shape.P, shape.M, 1, cost.DefaultSeqIn, cost.DefaultSeqOut),
			PaperMinGPUs: paper[spec.Name].min,
			PaperLexe:    paper[spec.Name].lexe,
		})
	}
	return rows
}

// Figure5Row summarizes one availability trace (real or generated +O).
type Figure5Row struct {
	Name          string
	Spot          metrics.Series
	OnDemand      metrics.Series
	MinTotal, Max int
}

// Figure5 regenerates the four availability traces: A_S and B_S replayed
// directly, and A_S+O / B_S+O produced by running Algorithm 1 with
// on-demand mixing over them (as the paper generates its +O traces).
func Figure5(seed int64) []Figure5Row { return Figure5Sweep(SingleSeed(seed)) }

// Figure5Sweep is Figure5 on the parallel harness. The trace plots are a
// single-seed visualization, so only the sweep's first seed (or 1) is
// simulated; the two +O replays still share the worker pool.
func Figure5Sweep(sw Sweep) []Figure5Row {
	if len(sw.Seeds) > 1 {
		sw.Seeds = sw.Seeds[:1]
	}
	bases := []trace.Trace{trace.AS(), trace.BS()}
	var mixes []Scenario
	for _, base := range bases {
		sc := DefaultScenario(SpotServe, model.GPT20B, base, 1)
		sc.AllowOnDemand = true
		sc.SampleFleet = true
		mixes = append(mixes, sc)
	}
	mixed := sw.RunCells(mixes)
	var rows []Figure5Row
	for i, base := range bases {
		// Raw spot trace.
		var spot metrics.Series
		for t := 0.0; t < base.Horizon; t += 10 {
			spot.Add(t, float64(base.CountAt(t)))
		}
		rows = append(rows, Figure5Row{
			Name: base.Name, Spot: spot,
			MinTotal: base.MinCount(), Max: base.MaxCount(),
		})
		// +O mix: replay with the GPT-20B serving stack allowed to
		// allocate on-demand instances.
		res := mixed[i][0]
		minTotal, maxTotal := fleetExtremes(res)
		rows = append(rows, Figure5Row{
			Name:     base.Name + "+O",
			Spot:     res.SpotCount,
			OnDemand: res.OnDemandCount,
			MinTotal: minTotal,
			Max:      maxTotal,
		})
	}
	return rows
}

func fleetExtremes(res Result) (min, max int) {
	min = 1 << 30
	for i := range res.SpotCount.Samples {
		tot := int(res.SpotCount.Samples[i].Value)
		if i < len(res.OnDemandCount.Samples) {
			tot += int(res.OnDemandCount.Samples[i].Value)
		}
		if tot < min {
			min = tot
		}
		if tot > max {
			max = tot
		}
	}
	if min == 1<<30 {
		min = 0
	}
	return
}

// Figure6Cell is one (model, trace, system) latency row. Summary is the
// first-seed replica (identical to the historical serial output); Reps
// carries the cross-seed bands when the sweep replicates.
type Figure6Cell struct {
	Model   string
	Trace   string
	System  System
	Summary metrics.Summary
	Reps    Replication
}

// Figure6 regenerates the end-to-end latency comparison: every model on
// A_S, B_S (spot only) and A_S+O, B_S+O (on-demand mixing), under all
// three systems.
func Figure6(seed int64) []Figure6Cell { return Figure6Sweep(SingleSeed(seed)) }

// Figure6Sweep runs the 36-cell latency grid through the parallel harness,
// replicating each cell at every sweep seed.
func Figure6Sweep(sw Sweep) []Figure6Cell {
	var out []Figure6Cell
	var cells []Scenario
	for _, spec := range model.All() {
		for _, tr := range []trace.Trace{trace.AS(), trace.BS()} {
			for _, mix := range []bool{false, true} {
				name := tr.Name
				if mix {
					name += "+O"
				}
				for _, sys := range Systems() {
					sc := DefaultScenario(sys, spec, tr, 1)
					sc.AllowOnDemand = mix
					cells = append(cells, sc)
					out = append(out, Figure6Cell{
						Model:  spec.Name,
						Trace:  name,
						System: sys,
					})
				}
			}
		}
	}
	reps := sw.RunCells(cells)
	for i := range out {
		out[i].Reps = NewReplication(reps[i])
		out[i].Summary = out[i].Reps.First
	}
	return out
}

// Figure7Row is one point of the cost/latency plot. The scalar fields are
// the first-seed replica; CostBand aggregates cost/token across seeds.
type Figure7Row struct {
	System System
	Trace  string
	// CostPerToken is USD per generated token ×1e-5 (the paper's axis).
	CostPerToken float64
	AvgLatency   float64
	P99Latency   float64
	Reps         Replication
	CostBand     metrics.Agg
}

// Figure7 regenerates the monetary-cost study on GPT-20B: the three
// systems on all four traces, plus the on-demand-only sweep.
func Figure7(seed int64) []Figure7Row { return Figure7Sweep(SingleSeed(seed)) }

// Figure7Sweep runs the cost study through the parallel harness.
func Figure7Sweep(sw Sweep) []Figure7Row {
	var out []Figure7Row
	var cells []Scenario
	spec := model.GPT20B
	for _, tr := range []trace.Trace{trace.AS(), trace.BS()} {
		for _, mix := range []bool{false, true} {
			name := tr.Name
			if mix {
				name += "+O"
			}
			for _, sys := range Systems() {
				sc := DefaultScenario(sys, spec, tr, 1)
				sc.AllowOnDemand = mix
				cells = append(cells, sc)
				out = append(out, Figure7Row{System: sys, Trace: name})
			}
		}
	}
	// On-demand only: a sweep over fixed fleet sizes (the dashed line).
	for _, n := range []int{4, 6, 8, 10} {
		sc := DefaultScenario(OnDemandOnly, spec, trace.Trace{}, 1)
		sc.OnDemandN = n
		sc.Trace = trace.Trace{Name: fmt.Sprintf("OD-%d", n), Horizon: 1200,
			Events: []trace.Event{{At: 0, Count: 0}}}
		cells = append(cells, sc)
		out = append(out, Figure7Row{System: OnDemandOnly, Trace: sc.Trace.Name})
	}
	reps := sw.RunCells(cells)
	for i := range out {
		out[i].Reps = NewReplication(reps[i])
		first := reps[i][0]
		out[i].CostPerToken = costPerToken(first)
		out[i].AvgLatency = first.Stats.Latency.Avg
		out[i].P99Latency = first.Stats.Latency.P99
		for _, r := range reps[i] {
			out[i].CostBand.Add(costPerToken(r))
		}
	}
	return out
}

// GeneratedTokens returns the tokens a run generated: completed requests
// times the workload's decode length. The single source for every
// cost-per-token conversion (Figure 7's axis, the scenario grid's
// $/1k-token column), so token accounting can only change in one place.
func (r Result) GeneratedTokens() float64 {
	return float64(r.Stats.Completed * cost.DefaultSeqOut)
}

// costPerToken converts a replica's accrued USD to the paper's cost axis
// (×1e-5 USD per generated token).
func costPerToken(res Result) float64 {
	tokens := res.GeneratedTokens()
	if tokens <= 0 {
		return 0
	}
	return res.Stats.CostUSD / tokens * 1e5
}

// Figure8Row is one system's outcome on the fluctuating workload. Summary,
// PerRequest and ConfigLog are the first-seed replica; Reps carries the
// cross-seed bands.
type Figure8Row struct {
	System     System
	Trace      string
	Summary    metrics.Summary
	PerRequest metrics.Series
	ConfigLog  []core.ConfigChange
	Reps       Replication
}

// Figure8 regenerates the fluctuating-workload study: the rescaled
// MAF-style arrival profile over the A'_S / B'_S traces with on-demand
// mixing, for all three systems.
func Figure8(seed int64) []Figure8Row { return Figure8Sweep(SingleSeed(seed)) }

// Figure8Sweep runs the fluctuating-workload study through the parallel
// harness.
func Figure8Sweep(sw Sweep) []Figure8Row {
	var out []Figure8Row
	var cells []Scenario
	spec := model.GPT20B
	base := workload.DefaultRates()[spec.Name]
	for _, tr := range []trace.Trace{trace.APrimeS(), trace.BPrimeS()} {
		for _, sys := range Systems() {
			sc := DefaultScenario(sys, spec, tr, 1)
			sc.AllowOnDemand = true
			sc.RateFn = workload.StepRate(workload.MAFSteps(base))
			cells = append(cells, sc)
			out = append(out, Figure8Row{System: sys, Trace: tr.Name + "+O"})
		}
	}
	reps := sw.RunCells(cells)
	for i := range out {
		out[i].Reps = NewReplication(reps[i])
		first := reps[i][0]
		out[i].Summary = first.Stats.Latency
		out[i].PerRequest = first.Stats.PerRequest
		out[i].ConfigLog = first.Stats.ConfigLog
	}
	return out
}

// Figure9Row is one ablation variant's outcome.
type Figure9Row struct {
	Variant string
	Trace   string
	Summary metrics.Summary
	Reps    Replication
}

// Figure9 regenerates the ablation study on GPT-20B over A_S and B_S:
// starting from full SpotServe, components are removed cumulatively —
// parallelization controller, migration planner, interruption arranger,
// device mapper (matching the paper's order).
func Figure9(seed int64) []Figure9Row { return Figure9Sweep(SingleSeed(seed)) }

// Figure9Sweep runs the ablation study through the parallel harness.
func Figure9Sweep(sw Sweep) []Figure9Row {
	variants := []struct {
		name string
		mut  func(*core.Features)
	}{
		{"SpotServe", func(f *core.Features) {}},
		{"-Controller", func(f *core.Features) { f.Controller = false }},
		{"-MigrationPlanner", func(f *core.Features) { f.MigrationPlanner = false }},
		{"-InterruptionArranger", func(f *core.Features) { f.Arranger = false }},
		{"-DeviceMapper", func(f *core.Features) { f.DeviceMapper = false; f.Hierarchical = false }},
	}
	var out []Figure9Row
	var cells []Scenario
	for _, tr := range []trace.Trace{trace.AS(), trace.BS()} {
		feat := core.AllFeatures()
		for _, v := range variants {
			v.mut(&feat)
			f := feat
			sc := DefaultScenario(SpotServe, model.GPT20B, tr, 1)
			sc.Features = &f
			cells = append(cells, sc)
			out = append(out, Figure9Row{Variant: v.name, Trace: tr.Name})
		}
	}
	reps := sw.RunCells(cells)
	for i := range out {
		out[i].Reps = NewReplication(reps[i])
		out[i].Summary = out[i].Reps.First
	}
	return out
}

// MinMemRow reports the migration-buffer ablation on configuration space.
type MinMemRow struct {
	Model         string
	MemOptMinGPUs int
	NaiveMinGPUs  int
}

// MinMem regenerates the §6.2 observation that the memory-optimized
// migration planner enlarges the configuration space (GPT-20B: 16→12).
func MinMem() []MinMemRow {
	var out []MinMemRow
	for _, spec := range model.All() {
		est := cost.NewEstimator(cost.DefaultParams(), spec)
		mo, _ := est.MinGPUs(config.DefaultLimits(), cost.DefaultMaxTokens, false)
		na, _ := est.MinGPUs(config.DefaultLimits(), cost.DefaultMaxTokens, true)
		out = append(out, MinMemRow{Model: spec.Name, MemOptMinGPUs: mo, NaiveMinGPUs: na})
	}
	return out
}
