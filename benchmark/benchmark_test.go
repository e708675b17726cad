package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// shortRun is the smallest run of a workload: one set-up and the check
// set (the daemon also sends a few jobs in every other phase).
func shortRun(t *testing.T, traced bool) runConfig {
	return runConfig{seed: 1, short: true, traced: traced, setupReps: 1, traceDir: t.TempDir()}
}

// TestBenchmarkJSON pins BENCHMARK.json to the program: the same workloads
// and the same metrics, names, units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json keys = %v, want %v", got, want)
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, program %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, program %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v, program %+v", bj.PerLayer, perLayer)
	}
}

// TestOutputFormat checks an untraced run's last line: exactly the keys
// correct, attempted, failed and metrics, and every end-to-end metric with
// its unit.
func TestOutputFormat(t *testing.T) {
	w, _ := workloadByName("od-steady")
	cfg := shortRun(t, false)
	var out bytes.Buffer
	rec, err := runOne(w, cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Fatalf("short run incorrect:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int                   `json:"attempted"`
		Failed    *int                   `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if last.Correct == nil || last.Attempted == nil || last.Failed == nil || *last.Attempted < 1 {
		t.Fatalf("last line lacks correct/attempted/failed: %q", lines[len(lines)-1])
	}
	checkMetrics(t, "end_to_end", last.Metrics, endToEnd)
}

// TestSecondsFixed checks that --seconds accepts only run_seconds: the run
// length is fixed by committed op counts.
func TestSecondsFixed(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "od-steady", "--seconds", "5"}, &out, &errOut); code != 2 {
		t.Fatalf("--seconds 5: exit %d, want 2 (%s)", code, errOut.String())
	}
}

// TestDaemonPlanFitsCache checks that a full daemon-mixed plan never
// evicts the primed cells its repeated jobs must hit.
func TestDaemonPlanFitsCache(t *testing.T) {
	for _, seed := range digestSeeds {
		if _, err := planJobs(seed, false, primedSpecList()); err != nil {
			t.Fatal(err)
		}
	}
}

// metricByName finds a metric in either table.
func metricByName(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

func checkMetrics(t *testing.T, what string, got map[string]metricValue, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: metric %s unit %q, want %q", what, d.Name, m.Unit, d.Unit)
		}
	}
}

// TestWorkloadsShortScale runs every workload traced at the smallest scale
// and checks that the check set matches the committed digest, that both
// metric sets are complete, and that the Chrome trace is well formed.
func TestWorkloadsShortScale(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := shortRun(t, true)
			tr := newTracer()
			res, err := w.run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if res.refErr != nil {
				t.Fatalf("reference path: %v", res.refErr)
			}
			want, ok, err := committedDigest(w.name, cfg.seed)
			if err != nil || !ok {
				t.Fatalf("no committed digest for seed %d: %v", cfg.seed, err)
			}
			if got := digestOf(res.check); got != want {
				t.Fatalf("check-set digest %s, committed %s", got, want)
			}
			asValues := func(m map[string]float64) map[string]metricValue {
				out := map[string]metricValue{}
				for k, v := range m {
					d, _ := metricByName(k)
					out[k] = metricValue{Value: v, Unit: d.Unit}
				}
				return out
			}
			checkMetrics(t, "end_to_end", asValues(res.e2e), endToEnd)
			checkMetrics(t, "per_layer", asValues(res.layer), perLayer)
			checkTrace(t, tr)
		})
	}
}

// checkTrace writes the Chrome trace, parses it back, and checks that each
// child span lies within its parent and that self times are not negative.
func checkTrace(t *testing.T, tr *tracer) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID, Parent int
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	type iv struct{ lo, hi float64 }
	byID := map[int]iv{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("bad event %+v", e)
		}
		byID[e.Args.ID] = iv{e.Ts, e.Ts + e.Dur}
	}
	for _, e := range doc.TraceEvents {
		if e.Args.Parent < 0 {
			continue
		}
		// Times are microseconds with nanosecond digits; allow float
		// rounding of one nanosecond.
		const eps = 1e-3
		p, c := byID[e.Args.Parent], byID[e.Args.ID]
		if c.lo < p.lo-eps || c.hi > p.hi+eps {
			t.Errorf("span %d %s [%v, %v] outside its parent %d [%v, %v]", e.Args.ID, e.Name, c.lo, c.hi, e.Args.Parent, p.lo, p.hi)
		}
	}
	for _, st := range tr.selfTimes() {
		if st.Self < 0 {
			t.Errorf("%s: negative self time %v", st.Name, st.Self)
		}
	}
}
