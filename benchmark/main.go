// Command spotbench is the repository's end-to-end benchmark. It runs four
// named workloads over the simulator and the spotserved daemon in one
// process: an untraced run prints every end-to-end metric in
// BENCHMARK.json, a traced run every per-layer metric, and every run checks
// its results against committed digests and an independent reference
// path. See README.md for the workloads, the metrics and how to compare
// two commits.
//
//	spotbench [--workload all|<name>] [--seed N] [--trace 0|1] [--out results.jsonl]
//	spotbench --compare a.jsonl b.jsonl
//	spotbench --update      (from the repository root: rewrite testdata/digests.json)
//
// --cpuprofile FILE profiles any run for `go tool pprof`. A run does a
// fixed, committed amount of work; --seconds, if given, must be 20.
//
// The last line of a run's output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
)

// runSeconds is BENCHMARK.json's run_seconds. Every workload's op count is
// committed, sized so its measured phase takes about this long on the
// reference machine, so two commits always do the same work. --seconds is
// accepted for harnesses that pass run_seconds, and only with this value.
const runSeconds = 20

// setupReps is how many set-ups a run times for setup_s.
const setupReps = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spotbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed (1 is the default, 2 the held-out seed)")
	seconds := fs.Int("seconds", runSeconds, "BENCHMARK.json's run_seconds; the run length is fixed, so only this value is accepted")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics and writing <workload>.trace.json")
	out := fs.String("out", "", "append each run's result, with the machine it ran on, to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two result files: --compare a.jsonl b.jsonl")
	update := fs.Bool("update", false, "regenerate "+digestPath+" (run from the repository root)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "spotbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "spotbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *compare != (fs.NArg() == 2) || (!*compare && fs.NArg() != 0) {
		fmt.Fprintln(stderr, "spotbench: --compare takes exactly two result files; other modes take no arguments")
		return 2
	}
	switch {
	case *compare:
		ok, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "spotbench: %v\n", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	case *update:
		if err := updateDigests(); err != nil {
			fmt.Fprintf(stderr, "spotbench: update: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", digestPath)
		return 0
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "spotbench: --trace takes 0 or 1")
		return 2
	}
	if *seconds != runSeconds {
		fmt.Fprintf(stderr, "spotbench: --seconds %d: run length is fixed by committed op counts; only %d is accepted\n", *seconds, runSeconds)
		return 2
	}
	var ws []namedWorkload
	if *name == "all" {
		ws = workloads
	} else if w, ok := workloadByName(*name); ok {
		ws = []namedWorkload{w}
	} else {
		fmt.Fprintf(stderr, "spotbench: unknown workload %q\n", *name)
		return 2
	}
	cfg := runConfig{seed: *seed, traced: *traced == 1, setupReps: setupReps, traceDir: "."}
	code := 0
	for _, w := range ws {
		rec, err := runOne(w, cfg, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "spotbench: %s: %v\n", w.name, err)
			return 1
		}
		if !rec.Correct {
			code = 1
		}
		if *out != "" {
			rec.Env = currentEnv()
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintf(stderr, "spotbench: %v\n", err)
				return 1
			}
		}
	}
	return code
}

// runOne runs one workload, checks its outputs, and prints its metrics with
// the result JSON as the last line. An incorrect or invalid run fails all
// its ops and reports correct=false.
func runOne(w namedWorkload, cfg runConfig, stdout io.Writer) (record, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	res, err := w.run(cfg, tr)
	if err != nil {
		return record{}, err
	}
	want, known, err := committedDigest(w.name, cfg.seed)
	if err != nil {
		return record{}, err
	}
	got := digestOf(res.check)
	var problems []string
	if res.refErr != nil {
		problems = append(problems, "reference path disagrees: "+res.refErr.Error())
	}
	if known && got != want {
		problems = append(problems, fmt.Sprintf("check-set digest %s, committed %s", got, want))
	}
	if res.invalid != "" {
		problems = append(problems, "invalid run: "+res.invalid)
	}
	if len(problems) > 0 {
		res.failed = res.attempted
	}

	defs, vals := endToEnd, res.e2e
	if cfg.traced {
		defs, vals = perLayer, res.layer
	}
	rec := record{
		Workload: w.name, Seed: cfg.seed, Traced: cfg.traced,
		Correct: len(problems) == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{}, Detail: res.detail,
	}
	fmt.Fprintf(stdout, "== %s  seed %d  %s\n", w.name, cfg.seed, map[bool]string{false: "untraced", true: "traced"}[cfg.traced])
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return record{}, fmt.Errorf("metric %s not measured (%v)", d.Name, v)
		}
		rec.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "  %-30s %14.4f %s\n", d.Name, v, d.Unit)
	}
	for _, k := range sortedKeys(res.detail) {
		fmt.Fprintf(stdout, "  %-30s %14.4f   (detail)\n", k, res.detail[k])
	}
	if known && got == want {
		fmt.Fprintf(stdout, "  check-set digest matches testdata/digests.json (seed %d)\n", cfg.seed)
	}
	for _, p := range problems {
		fmt.Fprintf(stdout, "  FAIL: %s\n", p)
	}
	if tr != nil {
		path := filepath.Join(cfg.traceDir, w.name+".trace.json")
		if err := tr.writeChromeFile(path); err != nil {
			return record{}, err
		}
		fmt.Fprintf(stdout, "  layer self times (%s):\n", path)
		for _, st := range tr.selfTimes() {
			fmt.Fprintf(stdout, "    %-28s %8d calls %12.2f ms self %12.2f ms total\n",
				st.Name, st.Calls, ms(st.Self), ms(st.Total))
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": rec.Metrics,
	})
	if err != nil {
		return record{}, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return rec, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
