package calibrate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ScenarioRef names the scenario an observed trace was captured under — the
// same registry axes a grid job uses, so replaying the matching scenario is
// one Scenario.Cell away. Zero-valued fields default like the CLI: diurnal
// availability, fixed-target policy, homogeneous fleet, SpotServe, GPT-20B,
// seed 1 at one replica.
type ScenarioRef struct {
	Avail  string  `json:"avail,omitempty"`
	Policy string  `json:"policy,omitempty"`
	Fleet  string  `json:"fleet,omitempty"`
	Market string  `json:"market,omitempty"`
	System string  `json:"system,omitempty"`
	Model  string  `json:"model,omitempty"`
	SLO    float64 `json:"slo,omitempty"`
	Seed   int64   `json:"seed,omitempty"`
	Seeds  int     `json:"seeds,omitempty"`
}

// WithDefaults fills the reference's zero values with the default scenario.
func (r ScenarioRef) WithDefaults() ScenarioRef {
	if r.Avail == "" {
		r.Avail = "diurnal"
	}
	if r.Policy == "" {
		r.Policy = "fixed"
	}
	if r.Fleet == "" {
		r.Fleet = "homog"
	}
	if r.System == "" {
		r.System = "spotserve"
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Seeds < 1 {
		r.Seeds = 1
	}
	return r
}

// SpendInterval is one step of an observed per-interval spend log: USD
// accrued over [T0, T1]. Calibration scores the summed total (spend_usd).
type SpendInterval struct {
	T0  float64 `json:"t0"`
	T1  float64 `json:"t1"`
	USD float64 `json:"usd"`
}

// ObservedTrace is the native observed-serving-trace schema: the scenario
// the trace was captured under plus whatever metrics the capture recorded —
// latency percentiles, throughput, a preemption log, a per-interval spend
// log, and free-form canonical metrics. Only metrics present are scored;
// explicit Metrics entries win over values derived from the structured
// fields. docs/CALIBRATION.md documents the schema and the canonical metric
// vocabulary.
type ObservedTrace struct {
	Name     string      `json:"name,omitempty"`
	Scenario ScenarioRef `json:"scenario,omitempty"`
	// Horizon is the capture window in seconds (throughput's denominator);
	// 0 means DefaultHorizon.
	Horizon float64 `json:"horizon,omitempty"`
	// Latency maps percentile labels ("avg", "p90", "p95", ... or the full
	// "latency_p99" form) to observed seconds.
	Latency map[string]float64 `json:"latency,omitempty"`
	// ThroughputRPS is completed requests per second over the horizon
	// (0 = not observed).
	ThroughputRPS float64 `json:"throughput_rps,omitempty"`
	// Preemptions is the observed preemption log: one entry per preempted
	// instance, at the preemption time in seconds. Scored as a count.
	Preemptions []float64 `json:"preemptions,omitempty"`
	// Spend is the observed per-interval spend log; scored as its total.
	Spend []SpendInterval `json:"spend,omitempty"`
	// Metrics carries canonical metric values directly (see MetricOrder);
	// an entry here overrides the value derived from the structured fields.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Tolerances overrides the per-metric tolerance defaults for this trace
	// (merged under any request-level overrides; see MergeTolerances).
	Tolerances map[string]Tolerance `json:"tolerances,omitempty"`
}

// DefaultHorizon is the capture window assumed when an observed trace does
// not record one — the paper's 20-minute scale, matching the scenario
// library's generation window.
const DefaultHorizon = 1200.0

// ParseObserved decodes an observed trace from JSON. Two formats are
// accepted: the native ObservedTrace schema (unknown fields rejected, so a
// misspelled key fails loudly), and a Prometheus-style instant-query result
// ({"status":"success","data":{"result":[...]}}) whose samples map onto the
// canonical metric vocabulary. Malformed or hostile input returns an error,
// never panics; the fuzz harness pins this.
func ParseObserved(data []byte) (ObservedTrace, error) {
	// Prometheus-style results identify themselves with a status+data
	// envelope the native schema does not have.
	var probe struct {
		Status string          `json:"status"`
		Data   json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal(data, &probe); err == nil && probe.Status != "" && len(probe.Data) > 0 {
		return parsePrometheus(data)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var o ObservedTrace
	if err := dec.Decode(&o); err != nil {
		return ObservedTrace{}, fmt.Errorf("calibrate: bad observed trace: %w", err)
	}
	if dec.More() {
		return ObservedTrace{}, fmt.Errorf("calibrate: bad observed trace: trailing data after JSON object")
	}
	if err := o.Validate(); err != nil {
		return ObservedTrace{}, err
	}
	return o, nil
}

// Marshal renders the observed trace as indented JSON (the form
// `experiments -exp calibrate -calib-export` writes).
func (o ObservedTrace) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// finite rejects NaN and ±Inf (JSON cannot encode them, but traces are also
// constructed programmatically).
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Validate checks the observed trace's domains: finite non-negative
// measurements, ordered spend intervals, non-negative tolerances and a
// sane scenario reference. It never inspects registries — unknown axis
// names surface when the scenario is resolved, with the registry's own
// error text.
func (o ObservedTrace) Validate() error {
	if !finite(o.Horizon) || o.Horizon < 0 {
		return fmt.Errorf("calibrate: observed trace: horizon must be finite and >= 0, got %v", o.Horizon)
	}
	for k, v := range o.Latency {
		if !finite(v) || v < 0 {
			return fmt.Errorf("calibrate: observed trace: latency[%q] must be finite and >= 0, got %v", k, v)
		}
	}
	if !finite(o.ThroughputRPS) || o.ThroughputRPS < 0 {
		return fmt.Errorf("calibrate: observed trace: throughput_rps must be finite and >= 0, got %v", o.ThroughputRPS)
	}
	for i, t := range o.Preemptions {
		if !finite(t) || t < 0 {
			return fmt.Errorf("calibrate: observed trace: preemptions[%d] must be finite and >= 0, got %v", i, t)
		}
	}
	for i, s := range o.Spend {
		if !finite(s.T0) || !finite(s.T1) || !finite(s.USD) {
			return fmt.Errorf("calibrate: observed trace: spend[%d] must be finite", i)
		}
		if s.T1 < s.T0 {
			return fmt.Errorf("calibrate: observed trace: spend[%d]: t1 %v before t0 %v", i, s.T1, s.T0)
		}
		if s.USD < 0 {
			return fmt.Errorf("calibrate: observed trace: spend[%d]: negative usd %v", i, s.USD)
		}
	}
	for k, v := range o.Metrics {
		if !finite(v) {
			return fmt.Errorf("calibrate: observed trace: metrics[%q] must be finite, got %v", k, v)
		}
	}
	for k, t := range o.Tolerances {
		if !finite(t.Abs) || !finite(t.Rel) || t.Abs < 0 || t.Rel < 0 {
			return fmt.Errorf("calibrate: observed trace: tolerances[%q] must be finite and >= 0, got %+v", k, t)
		}
	}
	if o.Scenario.Seeds < 0 {
		return fmt.Errorf("calibrate: observed trace: scenario.seeds must be >= 0, got %d", o.Scenario.Seeds)
	}
	if !finite(o.Scenario.SLO) || o.Scenario.SLO < 0 {
		return fmt.Errorf("calibrate: observed trace: scenario.slo must be finite and >= 0, got %v", o.Scenario.SLO)
	}
	return nil
}

// horizon resolves the capture window.
func (o ObservedTrace) horizon() float64 {
	if o.Horizon > 0 {
		return o.Horizon
	}
	return DefaultHorizon
}

// metricValues flattens the observed trace into the canonical metric map:
// latency percentiles prefixed latency_, throughput, the preemption count,
// the summed spend, then explicit Metrics entries (which win on collision).
func (o ObservedTrace) metricValues() map[string]float64 {
	m := make(map[string]float64)
	for k, v := range o.Latency {
		key := strings.ToLower(strings.TrimSpace(k))
		if !strings.HasPrefix(key, "latency_") {
			key = "latency_" + key
		}
		m[key] = v
	}
	if o.ThroughputRPS > 0 {
		m[MetricThroughputRPS] = o.ThroughputRPS
	}
	if len(o.Preemptions) > 0 {
		m[MetricPreemptions] = float64(len(o.Preemptions))
	}
	if len(o.Spend) > 0 {
		total := 0.0
		for _, s := range o.Spend {
			total += s.USD
		}
		m[MetricSpendUSD] = total
	}
	for k, v := range o.Metrics {
		m[strings.ToLower(strings.TrimSpace(k))] = v
	}
	return m
}

// --- Prometheus-style import ---

// parsePrometheus maps a Prometheus HTTP-API instant-query result onto the
// canonical metric vocabulary: each sample's __name__ (with any spotserve_
// exporter prefix stripped, and a quantile label folded into latency_pNN)
// becomes one observed metric. The scenario reference cannot ride along in
// this format, so it stays zero-valued (defaults) — embed the samples in a
// native trace's "metrics" field when the scenario matters.
func parsePrometheus(data []byte) (ObservedTrace, error) {
	var pr struct {
		Status string `json:"status"`
		Data   struct {
			ResultType string `json:"resultType"`
			Result     []struct {
				Metric map[string]string `json:"metric"`
				Value  []json.RawMessage `json:"value"`
			} `json:"result"`
		} `json:"data"`
	}
	if err := json.Unmarshal(data, &pr); err != nil {
		return ObservedTrace{}, fmt.Errorf("calibrate: bad prometheus result: %w", err)
	}
	if pr.Status != "success" {
		return ObservedTrace{}, fmt.Errorf("calibrate: prometheus result status %q, want success", pr.Status)
	}
	o := ObservedTrace{Metrics: make(map[string]float64)}
	for i, r := range pr.Data.Result {
		key, err := promKey(r.Metric)
		if err != nil {
			return ObservedTrace{}, fmt.Errorf("calibrate: prometheus result[%d]: %w", i, err)
		}
		if len(r.Value) != 2 {
			return ObservedTrace{}, fmt.Errorf("calibrate: prometheus result[%d]: value must be [ts, \"v\"], got %d elements", i, len(r.Value))
		}
		var raw string
		if err := json.Unmarshal(r.Value[1], &raw); err != nil {
			return ObservedTrace{}, fmt.Errorf("calibrate: prometheus result[%d]: %w", i, err)
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || !finite(v) {
			return ObservedTrace{}, fmt.Errorf("calibrate: prometheus result[%d]: bad sample value %q", i, raw)
		}
		if _, dup := o.Metrics[key]; dup {
			return ObservedTrace{}, fmt.Errorf("calibrate: prometheus result[%d]: duplicate metric %q", i, key)
		}
		o.Metrics[key] = v
	}
	if err := o.Validate(); err != nil {
		return ObservedTrace{}, err
	}
	return o, nil
}

// promAliases maps exporter metric names onto the canonical vocabulary.
var promAliases = map[string]string{
	"latency_avg_seconds":      MetricLatencyAvg,
	"requests_per_second":      MetricThroughputRPS,
	"requests_completed_total": MetricCompleted,
	"spend_usd_total":          MetricSpendUSD,
	"cost_per_1k_tokens_usd":   MetricCostPer1kTok,
	"preemptions_total":        MetricPreemptions,
	"on_demand_total":          MetricOnDemand,
	"slo_met_percent":          MetricSLOPct,
}

// promKey maps one Prometheus sample's labels to a canonical metric key.
func promKey(labels map[string]string) (string, error) {
	name := strings.TrimPrefix(labels["__name__"], "spotserve_")
	if name == "" {
		return "", fmt.Errorf("sample has no __name__ label")
	}
	if q, ok := labels["quantile"]; ok && name == "latency_seconds" {
		qf, err := strconv.ParseFloat(q, 64)
		if err != nil || !finite(qf) || qf <= 0 || qf >= 1 {
			return "", fmt.Errorf("bad latency quantile %q", q)
		}
		p := math.Round(qf * 100)
		if math.Abs(qf*100-p) > 1e-9 {
			return "", fmt.Errorf("unsupported latency quantile %q (want a whole percentile)", q)
		}
		return fmt.Sprintf("latency_p%d", int(p)), nil
	}
	if canon, ok := promAliases[name]; ok {
		return canon, nil
	}
	return strings.ToLower(name), nil
}

// sortedExtraKeys returns the observed metric keys outside the canonical
// order, sorted — the deterministic tail of a report.
func sortedExtraKeys(obs map[string]float64) []string {
	canon := make(map[string]bool, len(MetricOrder))
	for _, k := range MetricOrder {
		canon[k] = true
	}
	var extra []string
	for k := range obs {
		if !canon[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	return extra
}
