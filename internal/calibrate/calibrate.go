// Package calibrate is the simulator's realism gate: it replays the
// scenario an observed serving trace was captured under through the
// existing sweep harness and scores prediction against observation, metric
// by metric, under merged per-metric tolerances. The product is a
// deterministic validation report — same observed trace + seed ⇒
// byte-identical report at any worker count — in both rendered-table and
// machine-readable JSON form, plus a fitting helper that searches a small
// grid of market-process parameters for the cell matching the trace best.
//
// docs/CALIBRATION.md documents the observed-trace schema, the tolerance
// semantics and the fitting workflow; the round-trip self-test (a simulated
// run exported as an observed trace calibrates against itself with zero
// violations) pins the predicted and observed metric pipelines to one
// shared definition.
package calibrate

import (
	"encoding/json"
	"fmt"
	"strings"

	"spotserve/internal/experiments"
	"spotserve/internal/metrics"
	"spotserve/internal/model"
	"spotserve/internal/scenario"
)

// Options configures one calibration run.
type Options struct {
	// Sweep runs the replay: its worker pool, cache, context, retry policy
	// and fault hook all apply (the daemon passes each job's sweep). The
	// observed trace's ScenarioRef sets the replication seeds, overriding
	// Sweep.Seeds. Results are byte-identical at any worker count.
	Sweep experiments.Sweep
	// Tolerances overrides per-metric tolerances, winning over both the
	// defaults and the trace's own overrides.
	Tolerances map[string]Tolerance
	// OnRow, when non-nil, receives the replayed cell's grid row as soon as
	// the replay finishes — the daemon streams it exactly like a grid job's
	// rows.
	OnRow func(row scenario.GridRow)
}

// Row is one metric's comparison in a calibration report.
type Row struct {
	Metric   string  `json:"metric"`
	Observed float64 `json:"observed"`
	// Predicted is the cross-seed mean prediction (meaningless when
	// Verdict is "skipped" — the simulator predicts nothing for the key).
	Predicted float64 `json:"predicted"`
	AbsErr    float64 `json:"abs_err"`
	// RelErr is AbsErr/|Observed|, or 0 for a zero observation (kept
	// finite so the JSON form always marshals).
	RelErr  float64   `json:"rel_err"`
	Allowed float64   `json:"allowed"`
	Tol     Tolerance `json:"tolerance"`
	// PredBand renders the cross-seed prediction band when the replay
	// replicated ("mean ±stderr [min,max] n=N").
	PredBand string  `json:"pred_band,omitempty"`
	Verdict  Verdict `json:"verdict"`
}

// Report is a calibration run's outcome: per-metric comparison rows in
// canonical order, verdict counts, the overall verdict (fail > warn > pass)
// and the replayed replicas' fingerprints — the determinism handle the
// daemon-vs-CLI equivalence test compares.
type Report struct {
	Name         string      `json:"name,omitempty"`
	Scenario     ScenarioRef `json:"scenario"`
	Horizon      float64     `json:"horizon"`
	SLO          float64     `json:"slo"`
	Seeds        int         `json:"seeds"`
	Rows         []Row       `json:"rows"`
	Pass         int         `json:"pass"`
	Warn         int         `json:"warn"`
	Fail         int         `json:"fail"`
	Skipped      int         `json:"skipped"`
	Verdict      Verdict     `json:"verdict"`
	Fingerprints []string    `json:"fingerprints"`
}

// cell resolves the reference into one sweep-ready scenario cell, reusing
// the registry resolution (and error text) of the scenario library.
func (r ScenarioRef) cell() (experiments.Scenario, float64, error) {
	r = r.WithDefaults()
	sys, err := scenario.SystemByName(r.System)
	if err != nil {
		return experiments.Scenario{}, 0, fmt.Errorf("calibrate: %w", err)
	}
	spec := model.GPT20B
	if r.Model != "" {
		s, ok := model.ByName(r.Model)
		if !ok {
			return experiments.Scenario{}, 0, fmt.Errorf("calibrate: unknown model %q", r.Model)
		}
		spec = s
	}
	sc, err := scenario.Scenario{
		Avail: r.Avail, Policy: r.Policy, Fleet: r.Fleet, Market: r.Market,
		System: sys, Model: spec, Seed: r.Seed,
	}.Cell()
	if err != nil {
		return experiments.Scenario{}, 0, fmt.Errorf("calibrate: %w", err)
	}
	slo := r.SLO
	if slo <= 0 {
		slo = scenario.DefaultSLO
	}
	return sc, slo, nil
}

// ResolveScenario validates the observed trace's scenario reference against
// the registries — the submission-time check the daemon runs so a bad axis
// name fails the POST, not the job.
func (o ObservedTrace) ResolveScenario() error {
	_, _, err := o.Scenario.cell()
	return err
}

// predictedMetrics folds one cell's seed replicas into the canonical metric
// aggregates. It is the single definition of "predicted" — Export writes
// the same aggregates as "observed", which is what makes the round-trip
// self-test exact rather than approximately close.
func predictedMetrics(rs []experiments.Result, horizon, slo float64) map[string]metrics.Agg {
	m := make(map[string]metrics.Agg, len(MetricOrder))
	add := func(key string, f func(r experiments.Result) float64) {
		var a metrics.Agg
		for _, r := range rs {
			a.Add(f(r))
		}
		m[key] = a
	}
	add(MetricLatencyAvg, func(r experiments.Result) float64 { return r.Stats.Latency.Avg })
	add(MetricLatencyP90, func(r experiments.Result) float64 { return r.Stats.Latency.P90 })
	add(MetricLatencyP95, func(r experiments.Result) float64 { return r.Stats.Latency.P95 })
	add(MetricLatencyP96, func(r experiments.Result) float64 { return r.Stats.Latency.P96 })
	add(MetricLatencyP97, func(r experiments.Result) float64 { return r.Stats.Latency.P97 })
	add(MetricLatencyP98, func(r experiments.Result) float64 { return r.Stats.Latency.P98 })
	add(MetricLatencyP99, func(r experiments.Result) float64 { return r.Stats.Latency.P99 })
	add(MetricThroughputRPS, func(r experiments.Result) float64 {
		if horizon <= 0 {
			return 0
		}
		return float64(r.Stats.Completed) / horizon
	})
	add(MetricCompleted, func(r experiments.Result) float64 { return float64(r.Stats.Completed) })
	add(MetricSpendUSD, func(r experiments.Result) float64 { return r.Stats.CostUSD })
	add(MetricCostPer1kTok, scenario.CostPer1kTok)
	add(MetricSLOPct, func(r experiments.Result) float64 { return scenario.SLOPct(r, slo) })
	add(MetricPreemptions, func(r experiments.Result) float64 {
		return float64(len(preemptionTimes(r)))
	})
	add(MetricOnDemand, func(r experiments.Result) float64 { return float64(r.Stats.OnDemandAllocated) })
	return m
}

// preemptionTimes derives a replica's preemption event log from its
// availability trace (experiments.Run stores the per-seed generated trace
// back into Result.Scenario): every capacity decrement is that many
// preempted instances at the step time.
func preemptionTimes(r experiments.Result) []float64 {
	var out []float64
	prev := 0
	for i, e := range r.Scenario.Trace.Events {
		if i > 0 && e.Count < prev {
			for k := 0; k < prev-e.Count; k++ {
				out = append(out, e.At)
			}
		}
		prev = e.Count
	}
	return out
}

// Run replays the observed trace's scenario through the sweep harness and
// scores prediction against observation. The report is deterministic: same
// trace + seed ⇒ byte-identical Render and JSON output at any Parallel.
func Run(obs ObservedTrace, opts Options) (*Report, error) {
	if err := obs.Validate(); err != nil {
		return nil, err
	}
	obsVals := obs.metricValues()
	if len(obsVals) == 0 {
		return nil, fmt.Errorf("calibrate: observed trace %q carries no metrics to score", obs.Name)
	}
	ref := obs.Scenario.WithDefaults()
	cell, slo, err := ref.cell()
	if err != nil {
		return nil, err
	}
	reps, err := replay(opts.Sweep, ref, []experiments.Scenario{cell})
	if err != nil {
		return nil, err
	}
	rs := reps[0]
	if opts.OnRow != nil {
		opts.OnRow(scenario.BuildRow(rs, slo))
	}
	pred := predictedMetrics(rs, obs.horizon(), slo)
	tol := MergeTolerances(DefaultTolerances(), obs.Tolerances, opts.Tolerances)

	rep := &Report{
		Name:     obs.Name,
		Scenario: ref,
		Horizon:  obs.horizon(),
		SLO:      slo,
		Seeds:    len(rs),
	}
	for _, r := range rs {
		rep.Fingerprints = append(rep.Fingerprints, r.Fingerprint())
	}
	keys := append(append([]string{}, MetricOrder...), sortedExtraKeys(obsVals)...)
	for _, key := range keys {
		ov, observed := obsVals[key]
		if !observed {
			continue
		}
		row := Row{Metric: key, Observed: ov}
		agg, predicted := pred[key]
		if !predicted {
			row.Verdict = VerdictSkipped
			rep.Skipped++
			rep.Rows = append(rep.Rows, row)
			continue
		}
		row.Predicted = agg.Mean()
		row.Tol = toleranceFor(tol, key)
		row.AbsErr = row.Predicted - ov
		if row.AbsErr < 0 {
			row.AbsErr = -row.AbsErr
		}
		if ov != 0 {
			o := ov
			if o < 0 {
				o = -o
			}
			row.RelErr = row.AbsErr / o
		}
		row.Allowed = row.Tol.allowed(ov)
		if agg.N > 1 {
			row.PredBand = agg.Band().String()
		}
		row.Verdict = scoreVerdict(row.AbsErr, row.Allowed)
		switch row.Verdict {
		case VerdictPass:
			rep.Pass++
		case VerdictWarn:
			rep.Warn++
		case VerdictFail:
			rep.Fail++
		}
		rep.Rows = append(rep.Rows, row)
	}
	if rep.Pass+rep.Warn+rep.Fail == 0 {
		return nil, fmt.Errorf("calibrate: observed trace %q has no scorable metrics (all %d skipped)",
			obs.Name, rep.Skipped)
	}
	switch {
	case rep.Fail > 0:
		rep.Verdict = VerdictFail
	case rep.Warn > 0:
		rep.Verdict = VerdictWarn
	default:
		rep.Verdict = VerdictPass
	}
	return rep, nil
}

// Render formats the report as a fixed-width table, deterministic in the
// report's contents (the golden test pins it byte-for-byte).
func (r *Report) Render() string {
	var b strings.Builder
	name := r.Name
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(&b, "Calibration report: %s\n", name)
	s := r.Scenario
	fmt.Fprintf(&b, "scenario: avail=%s policy=%s fleet=%s market=%s system=%s model=%s seed=%d seeds=%d slo=%gs horizon=%gs\n",
		s.Avail, s.Policy, s.Fleet, orDash(s.Market), s.System, orDash(s.Model), s.Seed, r.Seeds, r.SLO, r.Horizon)
	bands := false
	for _, row := range r.Rows {
		if row.PredBand != "" {
			bands = true
			break
		}
	}
	fmt.Fprintf(&b, "%-16s %12s %12s %10s %8s %10s  %-12s %-7s",
		"metric", "observed", "predicted", "abs err", "rel err", "allowed", "tolerance", "verdict")
	if bands {
		fmt.Fprintf(&b, " %-30s", "predicted band")
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		if row.Verdict == VerdictSkipped {
			fmt.Fprintf(&b, "%-16s %12.4f %12s %10s %8s %10s  %-12s %-7s",
				row.Metric, row.Observed, "n/a", "n/a", "n/a", "n/a", "n/a", row.Verdict)
			if bands {
				fmt.Fprintf(&b, " %-30s", "n/a")
			}
			b.WriteString("\n")
			continue
		}
		fmt.Fprintf(&b, "%-16s %12.4f %12.4f %10.4f %7.2f%% %10.4f  %-12s %-7s",
			row.Metric, row.Observed, row.Predicted, row.AbsErr, row.RelErr*100,
			row.Allowed, row.Tol, row.Verdict)
		if bands {
			fmt.Fprintf(&b, " %-30s", row.PredBand)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "verdict: %s (%d pass, %d warn, %d fail, %d skipped)\n",
		r.Verdict, r.Pass, r.Warn, r.Fail, r.Skipped)
	fmt.Fprintf(&b, "(allowed = abs + rel·|observed|; warn within %g× allowed; tolerances merged default ← trace ← request)\n",
		WarnFactor)
	return b.String()
}

// JSON renders the machine-readable report form (indented, trailing
// newline) — byte-identical across runs like Render.
func (r *Report) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// Export converts finished replicas of one cell into an observed trace
// whose metric values are the predictions themselves (cross-seed means via
// the shared predictedMetrics), plus the first replica's preemption log and
// a one-interval spend log for schema realism — both overridden by the
// explicit metrics, so calibrating the export against its own scenario
// yields zero violations by construction.
func Export(name string, ref ScenarioRef, rs []experiments.Result, horizon, slo float64) ObservedTrace {
	o := ObservedTrace{
		Name:     name,
		Scenario: ref.WithDefaults(),
		Horizon:  horizon,
		Metrics:  make(map[string]float64),
	}
	for key, agg := range predictedMetrics(rs, horizon, slo) {
		o.Metrics[key] = agg.Mean()
	}
	if len(rs) > 0 {
		o.Preemptions = preemptionTimes(rs[0])
		if cost := rs[0].Stats.CostUSD; cost > 0 {
			o.Spend = []SpendInterval{{T0: 0, T1: horizon, USD: cost}}
		}
	}
	return o
}

// ExportScenario simulates the referenced scenario and exports it as an
// observed trace — the `-exp calibrate -calib-export` path, and the seed
// generator for the round-trip self-test.
func ExportScenario(name string, ref ScenarioRef, parallel int) (ObservedTrace, error) {
	ref = ref.WithDefaults()
	cell, slo, err := ref.cell()
	if err != nil {
		return ObservedTrace{}, err
	}
	reps, err := replay(experiments.Sweep{Parallel: parallel}, ref, []experiments.Scenario{cell})
	if err != nil {
		return ObservedTrace{}, err
	}
	return Export(name, ref, reps[0], DefaultHorizon, slo), nil
}

// replay runs the cells at the reference's seeds through the sweep pool and
// returns each cell's replicas in seed order. A replica that fails — a
// panic, an injected fault, or the sweep's context ending before it ran —
// fails the whole replay with the lowest-index failure as the error: a
// report over a partial seed set would silently change what it means.
func replay(sw experiments.Sweep, ref ScenarioRef, cells []experiments.Scenario) ([][]experiments.Result, error) {
	sw.Seeds = experiments.SeedRange(ref.Seed, ref.Seeds)
	perCell := len(sw.Seeds)
	out := make([][]experiments.Result, len(cells))
	for i := range out {
		out[i] = make([]experiments.Result, perCell)
	}
	failed := len(cells) * perCell
	var failure error
	sw.Run(cells, func(i int, cr experiments.CellResult, _ bool) {
		out[i/perCell][i%perCell] = cr.Result
		if cr.Err != nil && i < failed {
			failed, failure = i, cr.Err
		}
	})
	if failure != nil {
		return nil, fmt.Errorf("calibrate: replay: %w", failure)
	}
	return out, nil
}
