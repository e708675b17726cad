package main

import (
	rtmetrics "runtime/metrics"
	"sort"

	"spotserve/internal/metrics"
)

// metricDef is one metric as BENCHMARK.json lists it. The tables below are
// the single source of the metric vocabulary; the smoke test checks that
// BENCHMARK.json says the same.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator or the daemon sees,
// reported by every workload on an untraced run. An op is one simulated
// cell (replica) or, on daemon-mixed, one job. Times are host-normalized
// (host.go): the measured time over the host's slowdown in the same stretch
// of the run.
var endToEnd = []metricDef{
	// Median over several set-ups in one run: inputs built, the shared
	// cost profile warmed, and on daemon-mixed the daemon started and its
	// cell cache primed. Its spread is not judged, so it has the largest
	// bound.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Simulated replicas completed per second inside the simulator
	// (daemon-mixed: cells completed per second with two jobs always in
	// flight, the busy phase).
	{Name: "cells_per_s", Unit: "cells/s", Better: "higher", Bound: 0.1},
	// Time per op: one experiments.Run, or on daemon-mixed the time from
	// POST /jobs to the done-line of a job sent to an idle daemon (the solo
	// phase; under open-loop load queueing amplifies any speed change
	// beyond a usable bound, so those latencies are detail figures).
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.1},
	// 99th percentile of /gc/heap/live:bytes sampled after every op: the
	// memory a run holds at its high points. (The single largest sample
	// depends on where GC happens to land and does not repeat.)
	{Name: "heap_p99_mb", Unit: "MB", Better: "lower", Bound: 0.1},
}

// perLayer are the metrics a traced run reports. Every workload measures
// every one of them: counts are read from the workload's results, times
// come from replaying a layer's public entry points on inputs taken from
// the workload's own cells.
var perLayer = []metricDef{
	{Name: "sim.events_per_cell", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "engine.ns_per_iteration", Unit: "ns", Better: "lower"},
	{Name: "cost.ns_per_exec", Unit: "ns", Better: "lower"},
	{Name: "cost.ns_per_decode_range", Unit: "ns", Better: "lower"},
	{Name: "reconfig.reconfigs_per_cell", Unit: "count", Better: "lower"},
	{Name: "reconfig.memo_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "reconfig.shift_miss_frac", Unit: "ratio", Better: "lower"},
	{Name: "reconfig.km_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "reconfig.propose_us.cold", Unit: "us", Better: "lower"},
	{Name: "reconfig.propose_us.warm", Unit: "us", Better: "lower"},
	{Name: "reconfig.map_us.cold", Unit: "us", Better: "lower"},
	{Name: "reconfig.map_us.warm", Unit: "us", Better: "lower"},
	{Name: "reconfig.plan_us.cold", Unit: "us", Better: "lower"},
	{Name: "reconfig.plan_us.warm", Unit: "us", Better: "lower"},
	{Name: "km.map_us.km", Unit: "us", Better: "lower"},
	{Name: "km.map_us.identity", Unit: "us", Better: "lower"},
	{Name: "core.requests_per_cell", Unit: "count", Better: "higher"},
	{Name: "core.migrations_per_cell", Unit: "count", Better: "lower"},
	{Name: "core.reloads_per_cell", Unit: "count", Better: "lower"},
	{Name: "core.alloc_kb_per_cell", Unit: "KB", Better: "lower"},
	{Name: "core.allocs_per_cell", Unit: "count", Better: "lower"},
	{Name: "inputs.generate_us", Unit: "us", Better: "lower"},
	{Name: "scenario.build_row_us", Unit: "us", Better: "lower"},
	{Name: "scenario.render_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.pool_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "experiments.fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "metrics.summarize_us", Unit: "us", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(vals, n=4) computes them (the "exclusive" method),
// so spreads printed here match the usual spreadsheet arithmetic. One value
// gives itself three times.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// median of vals (0 for none).
func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapMeter samples the live heap as /gc/heap/live:bytes reports it (the
// heap retained after the most recent GC).
type heapMeter struct {
	sample [1]rtmetrics.Sample
	mb     metrics.Latencies
}

func newHeapMeter() *heapMeter {
	h := &heapMeter{}
	h.sample[0].Name = "/gc/heap/live:bytes"
	return h
}

// observe reads the live heap once.
func (h *heapMeter) observe() {
	rtmetrics.Read(h.sample[:])
	h.mb.Add(float64(h.sample[0].Value.Uint64()) / (1 << 20))
}

func (h *heapMeter) report(res *result) {
	res.e2e["heap_p99_mb"] = h.mb.Percentile(99)
	res.detail["heap.peak_mb"] = h.mb.Max()
}

// allocCounter reads cumulative heap allocation counters, for per-call
// allocation deltas.
type allocCounter struct {
	samples [2]rtmetrics.Sample
}

func newAllocCounter() *allocCounter {
	a := &allocCounter{}
	a.samples[0].Name = "/gc/heap/allocs:bytes"
	a.samples[1].Name = "/gc/heap/allocs:objects"
	return a
}

// read returns the bytes and objects allocated so far by the process.
func (a *allocCounter) read() (bytes, objects uint64) {
	rtmetrics.Read(a.samples[:])
	return a.samples[0].Value.Uint64(), a.samples[1].Value.Uint64()
}
