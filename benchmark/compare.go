package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// envInfo is the machine a result was measured on. Results from different
// machines are never compared.
type envInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func currentEnv() envInfo {
	return envInfo{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// cpuModel is the processor's model name, or GOARCH where the platform
// does not say.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run in a result file (one JSON object per line).
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Env       envInfo                `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Detail    map[string]float64     `json:"detail,omitempty"`
}

func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

// Verdicts of one comparison row.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges side b against side a for a metric with a bound. Where
// either side's spread (interquartile range over median) exceeds the
// bound the metric is unresolved, unless every b run beats every a run.
func verdict(d metricDef, a, b []float64) string {
	better := func(x, y float64) bool { // x better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	spread := func(v []float64) float64 {
		q1, m, q3 := quartiles(v)
		return math.Abs(ratio(q3-q1, m))
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		if allBetter {
			return verdictImproved
		}
		return verdictUnresolved
	}
	ma, mb := median(a), median(b)
	worse := ratio(mb-ma, math.Abs(ma))
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return verdictRegressed
	case worse < -d.Bound:
		return verdictImproved
	}
	return verdictUnchanged
}

// compareFiles prints, for each workload and metric, each side's median
// and quartiles, the ratio b/a and a verdict against the metric's bound.
// It refuses results from different machines or toolchains and reports
// whether any bounded metric regressed or is unresolved.
func compareFiles(pathA, pathB string, w io.Writer) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	env := a[0].Env
	for _, r := range append(append([]record(nil), a...), b...) {
		if r.Env != env {
			return false, fmt.Errorf("results come from different machines or toolchains: %+v vs %+v", env, r.Env)
		}
	}
	byWorkload := func(rs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var names []string
	for n := range wa {
		if _, ok := wb[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("no workload appears in both files")
	}
	fmt.Fprintf(w, "machine: %s, nproc %d, GOMAXPROCS %d, %s\n", env.CPU, env.NProc, env.GOMAXPROCS, env.Go)
	fmt.Fprintf(w, "%-13s %-30s %-38s %-38s %7s  %s\n", "workload", "metric", "A median [Q1, Q3] (n)", "B median [Q1, Q3] (n)", "B/A", "verdict")
	ok := true
	for _, wl := range names {
		for _, tab := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range tab {
				va, vb := values(wa[wl], d.Name), values(wb[wl], d.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				v := "-"
				if d.Bound > 0 {
					v = verdict(d, va, vb)
					if v == verdictRegressed || v == verdictUnresolved {
						ok = false
					}
				}
				fmt.Fprintf(w, "%-13s %-30s %-38s %-38s %7.3f  %s\n", wl, d.Name+" ("+d.Unit+")",
					side(va), side(vb), ratio(median(vb), median(va)), v)
			}
		}
		fa, fb := failures(wa[wl]), failures(wb[wl])
		fmt.Fprintf(w, "%-13s %-30s %-38s %-38s\n", wl, "failed/attempted", fa, fb)
	}
	return ok, nil
}

func values(rs []record, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func side(v []float64) string {
	q1, m, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", m, q1, q3, len(v))
}

func failures(rs []record) string {
	f, n, wrong := 0, 0, 0
	for _, r := range rs {
		f += r.Failed
		n += r.Attempted
		if !r.Correct {
			wrong++
		}
	}
	return fmt.Sprintf("%d/%d, %d incorrect run(s)", f, n, wrong)
}
