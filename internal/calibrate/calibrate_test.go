package calibrate

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"spotserve/internal/experiments"
)

// ref2 is the small two-seed scenario the round-trip and equivalence tests
// replay: bursty availability keeps preemptions non-trivial.
func ref2() ScenarioRef {
	return ScenarioRef{Avail: "bursty", Policy: "fixed", Fleet: "homog", Seed: 1, Seeds: 2}
}

// TestRoundTripSelfCalibration is the tentpole acceptance test: a simulated
// run exported as an observed trace must calibrate against its own scenario
// with zero tolerance violations — predicted and observed flow through one
// metric definition, so every row's error is exactly zero.
func TestRoundTripSelfCalibration(t *testing.T) {
	obs, err := ExportScenario("round-trip", ref2(), 0)
	if err != nil {
		t.Fatalf("ExportScenario: %v", err)
	}
	rep, err := Run(obs, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Verdict != VerdictPass {
		t.Fatalf("round-trip verdict = %s, want pass\n%s", rep.Verdict, rep.Render())
	}
	if rep.Fail != 0 || rep.Warn != 0 {
		t.Fatalf("round-trip violations: %d fail, %d warn\n%s", rep.Fail, rep.Warn, rep.Render())
	}
	for _, row := range rep.Rows {
		if row.Verdict == VerdictSkipped {
			continue
		}
		if row.AbsErr != 0 {
			t.Errorf("metric %s: abs err %v, want exactly 0", row.Metric, row.AbsErr)
		}
	}
	if got := len(rep.Rows); got != len(MetricOrder) {
		t.Errorf("report rows = %d, want every canonical metric (%d)", got, len(MetricOrder))
	}
}

// TestReportDeterministicUnderParallel pins the determinism contract: the
// same observed trace produces byte-identical Render and JSON output across
// repeated runs and at any worker count.
func TestReportDeterministicUnderParallel(t *testing.T) {
	obs, err := ExportScenario("det", ref2(), 0)
	if err != nil {
		t.Fatalf("ExportScenario: %v", err)
	}
	var renders, jsons []string
	for _, parallel := range []int{1, 0, 4} {
		rep, err := Run(obs, Options{Sweep: experiments.Sweep{Parallel: parallel}})
		if err != nil {
			t.Fatalf("Run(parallel=%d): %v", parallel, err)
		}
		data, err := rep.JSON()
		if err != nil {
			t.Fatalf("JSON(parallel=%d): %v", parallel, err)
		}
		renders = append(renders, rep.Render())
		jsons = append(jsons, string(data))
	}
	for i := 1; i < len(renders); i++ {
		if renders[i] != renders[0] {
			t.Errorf("render differs between parallel settings:\n%s\nvs\n%s", renders[0], renders[i])
		}
		if jsons[i] != jsons[0] {
			t.Errorf("JSON differs between parallel settings")
		}
	}
}

// TestVerdictBands walks one metric across the pass/warn/fail boundary by
// shifting the observed value away from the prediction.
func TestVerdictBands(t *testing.T) {
	obs, err := ExportScenario("bands", ScenarioRef{Avail: "diurnal", Seeds: 1}, 0)
	if err != nil {
		t.Fatalf("ExportScenario: %v", err)
	}
	const key = MetricCompleted
	base := obs.Metrics[key]
	tol := DefaultTolerances()[key]
	allowed := tol.Abs + tol.Rel*base // observed shifts are small vs base, so ≈ the scored band
	cases := []struct {
		name  string
		shift float64
		want  Verdict
	}{
		{"well-inside", allowed * 0.5, VerdictPass},
		{"warn-zone", allowed * 1.5, VerdictWarn},
		{"beyond-warn", allowed * 3.0, VerdictFail},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shifted := obs
			shifted.Metrics = make(map[string]float64, len(obs.Metrics))
			for k, v := range obs.Metrics {
				shifted.Metrics[k] = v
			}
			shifted.Metrics[key] = base + tc.shift
			rep, err := Run(shifted, Options{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			var row *Row
			for i := range rep.Rows {
				if rep.Rows[i].Metric == key {
					row = &rep.Rows[i]
				}
			}
			if row == nil {
				t.Fatalf("no %s row in report", key)
			}
			if row.Verdict != tc.want {
				t.Errorf("%s shifted by %v: verdict %s, want %s (abs err %v, allowed %v)",
					key, tc.shift, row.Verdict, tc.want, row.AbsErr, row.Allowed)
			}
		})
	}
}

// TestToleranceMergeOrder checks the override chain: defaults ← trace
// overrides ← request overrides, later layers winning per key.
func TestToleranceMergeOrder(t *testing.T) {
	got := MergeTolerances(
		map[string]Tolerance{"a": {Abs: 1}, "b": {Abs: 1}, "c": {Abs: 1}},
		map[string]Tolerance{"b": {Abs: 2}, "c": {Abs: 2}},
		map[string]Tolerance{"c": {Abs: 3}},
	)
	if got["a"].Abs != 1 || got["b"].Abs != 2 || got["c"].Abs != 3 {
		t.Errorf("merge order wrong: %+v", got)
	}
	// A trace-level override must move a report's allowed band.
	obs, err := ExportScenario("tol", ScenarioRef{Avail: "diurnal", Seeds: 1}, 0)
	if err != nil {
		t.Fatalf("ExportScenario: %v", err)
	}
	obs.Tolerances = map[string]Tolerance{MetricCompleted: {Abs: 99, Rel: 0}}
	rep, err := Run(obs, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, row := range rep.Rows {
		if row.Metric == MetricCompleted && row.Allowed != 99 {
			t.Errorf("trace tolerance override ignored: allowed = %v, want 99", row.Allowed)
		}
	}
	// And a request-level override must win over the trace's.
	rep, err = Run(obs, Options{Tolerances: map[string]Tolerance{MetricCompleted: {Abs: 7}}})
	if err != nil {
		t.Fatalf("Run with request override: %v", err)
	}
	for _, row := range rep.Rows {
		if row.Metric == MetricCompleted && row.Allowed != 7 {
			t.Errorf("request tolerance override ignored: allowed = %v, want 7", row.Allowed)
		}
	}
}

// TestSkippedAndUnscorable: an unknown observed key is reported "skipped"
// and never moves the verdict; a trace with only unknown keys errors.
func TestSkippedAndUnscorable(t *testing.T) {
	obs, err := ExportScenario("skip", ScenarioRef{Avail: "diurnal", Seeds: 1}, 0)
	if err != nil {
		t.Fatalf("ExportScenario: %v", err)
	}
	obs.Metrics["gpu_temperature_c"] = 71.5
	rep, err := Run(obs, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Skipped != 1 {
		t.Errorf("skipped = %d, want 1", rep.Skipped)
	}
	if rep.Verdict != VerdictPass {
		t.Errorf("verdict %s, want pass (skipped rows must not move it)", rep.Verdict)
	}
	last := rep.Rows[len(rep.Rows)-1]
	if last.Metric != "gpu_temperature_c" || last.Verdict != VerdictSkipped {
		t.Errorf("extra key not reported last as skipped: %+v", last)
	}

	only := ObservedTrace{Metrics: map[string]float64{"nonsense": 1}}
	if _, err := Run(only, Options{}); err == nil {
		t.Error("trace with only unscorable metrics: want error, got nil")
	}
	if _, err := Run(ObservedTrace{}, Options{}); err == nil {
		t.Error("empty trace: want error, got nil")
	}
}

// TestParseObservedNative exercises the native schema: valid input round-
// trips, unknown fields / trailing data / bad domains error.
func TestParseObservedNative(t *testing.T) {
	good := `{
		"name": "capture-1",
		"scenario": {"avail": "bursty", "seeds": 2},
		"horizon": 600,
		"latency": {"avg": 12.5, "p99": 40.25},
		"throughput_rps": 0.5,
		"preemptions": [10, 250, 251],
		"spend": [{"t0": 0, "t1": 600, "usd": 9.5}],
		"tolerances": {"latency_avg": {"abs": 1, "rel": 0.2}}
	}`
	obs, err := ParseObserved([]byte(good))
	if err != nil {
		t.Fatalf("ParseObserved(good): %v", err)
	}
	vals := obs.metricValues()
	checks := map[string]float64{
		"latency_avg": 12.5, "latency_p99": 40.25,
		MetricThroughputRPS: 0.5, MetricPreemptions: 3, MetricSpendUSD: 9.5,
	}
	for k, want := range checks {
		if got := vals[k]; got != want {
			t.Errorf("metricValues[%s] = %v, want %v", k, got, want)
		}
	}
	// An explicit metric wins over the derived value.
	withOverride := obs
	withOverride.Metrics = map[string]float64{MetricPreemptions: 7}
	if got := withOverride.metricValues()[MetricPreemptions]; got != 7 {
		t.Errorf("explicit metrics entry did not win: %v", got)
	}

	bad := []struct{ name, in string }{
		{"unknown-field", `{"name": "x", "latenzy": {}}`},
		{"trailing", `{"name": "x"} {"more": 1}`},
		{"nan-in-json", `{"horizon": NaN}`},
		{"negative-latency", `{"latency": {"avg": -1}}`},
		{"spend-reversed", `{"spend": [{"t0": 10, "t1": 5, "usd": 1}]}`},
		{"negative-tolerance", `{"tolerances": {"x": {"abs": -1, "rel": 0}}}`},
		{"negative-seeds", `{"scenario": {"seeds": -1}}`},
		{"not-json", `hello`},
		{"array", `[1,2,3]`},
	}
	for _, tc := range bad {
		if _, err := ParseObserved([]byte(tc.in)); err == nil {
			t.Errorf("ParseObserved(%s): want error, got nil", tc.name)
		}
	}
}

// TestParseObservedPrometheus exercises the Prometheus instant-query
// import: name mapping, quantile folding, exporter-prefix stripping,
// duplicate rejection.
func TestParseObservedPrometheus(t *testing.T) {
	in := `{
		"status": "success",
		"data": {
			"resultType": "vector",
			"result": [
				{"metric": {"__name__": "spotserve_latency_seconds", "quantile": "0.99"}, "value": [1700000000, "40.25"]},
				{"metric": {"__name__": "spotserve_latency_avg_seconds"}, "value": [1700000000, "12.5"]},
				{"metric": {"__name__": "spotserve_requests_per_second"}, "value": [1700000000, "0.5"]},
				{"metric": {"__name__": "spotserve_spend_usd_total"}, "value": [1700000000, "9.5"]},
				{"metric": {"__name__": "preemptions_total"}, "value": [1700000000, "3"]}
			]
		}
	}`
	obs, err := ParseObserved([]byte(in))
	if err != nil {
		t.Fatalf("ParseObserved(prometheus): %v", err)
	}
	want := map[string]float64{
		"latency_p99": 40.25, MetricLatencyAvg: 12.5,
		MetricThroughputRPS: 0.5, MetricSpendUSD: 9.5, MetricPreemptions: 3,
	}
	for k, v := range want {
		if got := obs.Metrics[k]; got != v {
			t.Errorf("Metrics[%s] = %v, want %v", k, got, v)
		}
	}

	bad := []struct{ name, in string }{
		{"bad-status", `{"status": "error", "data": {"result": []}}`},
		{"bad-value", `{"status": "success", "data": {"result": [{"metric": {"__name__": "x"}, "value": [1, "oops"]}]}}`},
		{"short-value", `{"status": "success", "data": {"result": [{"metric": {"__name__": "x"}, "value": [1]}]}}`},
		{"no-name", `{"status": "success", "data": {"result": [{"metric": {"job": "x"}, "value": [1, "2"]}]}}`},
		{"bad-quantile", `{"status": "success", "data": {"result": [{"metric": {"__name__": "latency_seconds", "quantile": "1.5"}, "value": [1, "2"]}]}}`},
		{"fractional-quantile", `{"status": "success", "data": {"result": [{"metric": {"__name__": "latency_seconds", "quantile": "0.995"}, "value": [1, "2"]}]}}`},
		{"duplicate", `{"status": "success", "data": {"result": [
			{"metric": {"__name__": "x"}, "value": [1, "2"]},
			{"metric": {"__name__": "x"}, "value": [1, "3"]}]}}`},
		{"inf-value", `{"status": "success", "data": {"result": [{"metric": {"__name__": "x"}, "value": [1, "+Inf"]}]}}`},
	}
	for _, tc := range bad {
		if _, err := ParseObserved([]byte(tc.in)); err == nil {
			t.Errorf("ParseObserved(%s): want error, got nil", tc.name)
		}
	}
}

// TestObservedMarshalRoundTrip: Marshal output reparses to the same trace.
func TestObservedMarshalRoundTrip(t *testing.T) {
	obs, err := ExportScenario("marshal", ScenarioRef{Avail: "diurnal", Seeds: 1}, 0)
	if err != nil {
		t.Fatalf("ExportScenario: %v", err)
	}
	data, err := obs.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := ParseObserved(data)
	if err != nil {
		t.Fatalf("ParseObserved(Marshal output): %v", err)
	}
	a, _ := json.Marshal(obs)
	b, _ := json.Marshal(back)
	if string(a) != string(b) {
		t.Errorf("marshal round trip drifted:\n%s\nvs\n%s", a, b)
	}
}

// TestRunUnknownAxes: a bad scenario reference surfaces the registry's
// error at Run time (and through ResolveScenario).
func TestRunUnknownAxes(t *testing.T) {
	obs := ObservedTrace{
		Scenario: ScenarioRef{Avail: "no-such-model"},
		Metrics:  map[string]float64{MetricCompleted: 10},
	}
	if _, err := Run(obs, Options{}); err == nil || !strings.Contains(err.Error(), "no-such-model") {
		t.Errorf("Run with unknown avail: err = %v, want registry error", err)
	}
	if err := obs.ResolveScenario(); err == nil {
		t.Error("ResolveScenario with unknown avail: want error")
	}
}

// TestRunUsesCache: a second calibration of the same trace is served from
// the sweep cache and still produces an identical report.
func TestRunUsesCache(t *testing.T) {
	obs, err := ExportScenario("cache", ScenarioRef{Avail: "diurnal", Seeds: 1}, 0)
	if err != nil {
		t.Fatalf("ExportScenario: %v", err)
	}
	cache := &mapCache{m: make(map[string]experiments.Result)}
	rep1, err := Run(obs, Options{Sweep: experiments.Sweep{Cache: cache}})
	if err != nil {
		t.Fatalf("Run 1: %v", err)
	}
	puts := cache.puts
	if puts == 0 {
		t.Fatal("first run stored nothing in the cache")
	}
	rep2, err := Run(obs, Options{Sweep: experiments.Sweep{Cache: cache}})
	if err != nil {
		t.Fatalf("Run 2: %v", err)
	}
	if cache.puts != puts {
		t.Errorf("second run stored %d new entries, want 0 (fully cached)", cache.puts-puts)
	}
	if rep1.Render() != rep2.Render() {
		t.Error("cached report differs from simulated report")
	}
}

// TestRunReturnsReplayFailure: a replica the sweep fails — an injected
// fault, a panic, or a context that ended before it ran — comes back from
// Run and FitMarket as an error, never a panic or a partial report.
func TestRunReturnsReplayFailure(t *testing.T) {
	obs, err := ExportScenario("failing", ref2(), 0)
	if err != nil {
		t.Fatalf("ExportScenario: %v", err)
	}
	down := experiments.Sweep{Inject: func(job, attempt int) error {
		if job == 1 {
			panic("replica down")
		}
		return nil
	}}
	if _, err := Run(obs, Options{Sweep: down}); err == nil || !strings.Contains(err.Error(), "replica down") {
		t.Fatalf("Run with a panicking replica: err = %v, want the captured panic", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stopped := experiments.Sweep{Context: ctx}
	if _, err := Run(obs, Options{Sweep: stopped}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under a cancelled context: err = %v, want context.Canceled", err)
	}
	spec := FitSpec{Bases: []float64{1.9}, Sigmas: []float64{0.013}, Bids: []float64{2.1}, Spreads: []float64{0.6}}
	if _, err := FitMarket(obs, spec, Options{Sweep: stopped}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FitMarket under a cancelled context: err = %v, want context.Canceled", err)
	}
}

type mapCache struct {
	mu   sync.Mutex
	m    map[string]experiments.Result
	puts int
}

func (c *mapCache) Get(key string) (experiments.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	return r, ok
}

func (c *mapCache) Put(key string, r experiments.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.m[key] = r
}

// TestFitMarketSingleCandidate runs the fitter on a one-candidate spec: the
// report must score that candidate against every observed metric, stay
// deterministic across worker counts, and render it as the best cell.
func TestFitMarketSingleCandidate(t *testing.T) {
	obs, err := ExportScenario("fit-smoke", ref2(), 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := FitSpec{Bases: []float64{1.9}, Sigmas: []float64{0.013}, Bids: []float64{2.1}, Spreads: []float64{0.6}}
	rep, err := FitMarket(obs, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("%d cells, want 1", len(rep.Cells))
	}
	best := rep.Best
	if best.Base != 1.9 || best.Sigma != 0.013 || best.Bid != 2.1 || best.Spread != 0.6 {
		t.Fatalf("best = %+v", best)
	}
	if best.Metrics != len(MetricOrder) {
		t.Fatalf("scored %d metrics, want %d", best.Metrics, len(MetricOrder))
	}
	if best.Score < 0 || best.Score > scoreCap*float64(len(MetricOrder)) {
		t.Fatalf("score %v out of range", best.Score)
	}
	render := rep.Render()
	if !strings.Contains(render, "<- best") || !strings.Contains(render, "1 candidates") {
		t.Fatalf("render missing best marker or count:\n%s", render)
	}
	// Worker count must not move the fit.
	rep4, err := FitMarket(obs, spec, Options{Sweep: experiments.Sweep{Parallel: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if rep4.Render() != render {
		t.Fatal("fit render differs across worker counts")
	}
	if rep4.Best.Score != best.Score {
		t.Fatalf("fit score differs across worker counts: %v vs %v", rep4.Best.Score, best.Score)
	}
}

// TestFitSpecDefaults pins the default grid: empty axes fill from
// DefaultFitSpec, partial specs keep what they set.
func TestFitSpecDefaults(t *testing.T) {
	def := FitSpec{}.withDefaults()
	want := DefaultFitSpec()
	if len(def.Bases) != len(want.Bases) || len(def.Sigmas) != len(want.Sigmas) ||
		len(def.Bids) != len(want.Bids) || len(def.Spreads) != len(want.Spreads) {
		t.Fatalf("defaults = %+v, want %+v", def, want)
	}
	partial := FitSpec{Bases: []float64{9.9}}.withDefaults()
	if len(partial.Bases) != 1 || partial.Bases[0] != 9.9 {
		t.Fatalf("partial spec lost its bases: %+v", partial)
	}
	if len(partial.Sigmas) != len(want.Sigmas) {
		t.Fatalf("partial spec missing default sigmas: %+v", partial)
	}
}

// TestFitMarketErrors covers the fitter's validation paths: a metric-free
// trace and an unknown fleet must error, not replay.
func TestFitMarketErrors(t *testing.T) {
	empty := ObservedTrace{Name: "empty", Scenario: ref2()}
	if _, err := FitMarket(empty, FitSpec{}, Options{}); err == nil {
		t.Fatal("metric-free trace did not error")
	}
	obs, err := ExportScenario("bad-fleet", ref2(), 0)
	if err != nil {
		t.Fatal(err)
	}
	obs.Scenario.Fleet = "no-such-fleet"
	if _, err := FitMarket(obs, FitSpec{}, Options{}); err == nil {
		t.Fatal("unknown fleet did not error")
	}
}
