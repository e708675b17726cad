// Command experiments regenerates the paper's tables and figures, and runs
// scenario-library grids.
//
// Usage:
//
//	experiments [-exp all|table1|fig5|fig6|fig7|fig8|fig9|minmem|scenarios|calibrate]
//	            [-seed N] [-seeds K] [-parallel W]
//	            [-avail a,b] [-policies p,q] [-fleets f,g] [-systems spotserve|baselines|all]
//	            [-market ou|squeeze] [-slo S] [-full]
//	            [-observed trace.json] [-fit] [-calib-export out.json]
//
// Each experiment prints a text rendition of the corresponding table or
// figure, including SpotServe-vs-baseline factors where the paper reports
// them. Runs are deterministic for a fixed seed: the scenario grid executes
// on a bounded worker pool (-parallel, default all cores) with results
// aggregated in scenario order, so the output is byte-identical to a serial
// run. -seeds K replicates every simulated cell at seeds seed..seed+K-1 and
// appends mean ±stderr [min,max] bands to the rendered tables.
//
// -exp scenarios sweeps the scenario library (docs/SCENARIOS.md): the
// cross product of availability models × autoscaling policies × fleet
// presets, selectable with -avail/-policies/-fleets (comma-separated
// registry names; empty = the default grid axes). -market bills every
// cell's spot capacity against a registered price process (price-signal
// cells default to their own driving process), and -slo sets the latency
// objective behind the grid's SLO% column. -full swaps in the scale-out
// cross (scenario.FullGrid): every registered model plus a 12-variant bid
// ladder × every policy × every fleet × flat billing plus every market
// process — 1020 cells, aggregated streamingly in O(active cells) memory.
// Cells are fault-isolated: a failing cell renders as an n/a row with an
// error footer instead of aborting the sweep, and once the table is printed
// the command exits 1 if any cell failed.
//
// -exp calibrate (docs/CALIBRATION.md; never part of -exp all) replays the
// scenario of an observed serving trace (-observed trace.json) and prints
// the tolerance-scored validation report, exiting 1 when any metric fails
// its band. -fit additionally searches the default market-parameter grid
// for the candidate matching the trace best. -calib-export out.json instead
// simulates the scenario selected by the grid flags (first of each axis)
// and writes it as an observed trace — the round-trip input.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"spotserve/internal/calibrate"
	"spotserve/internal/experiments"
	"spotserve/internal/scenario"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table1, fig5, fig6, fig7, fig8, fig9, minmem, scenarios")
	seed := flag.Int64("seed", 1, "base random seed (runs are deterministic per seed)")
	seeds := flag.Int("seeds", 1, "replication: run each cell at this many consecutive seeds")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for the scenario sweep (1 = serial)")
	avail := flag.String("avail", "", "scenario grid: comma-separated availability models (default: all registered)")
	policies := flag.String("policies", "", "scenario grid: comma-separated autoscaling policies (default: all registered)")
	fleets := flag.String("fleets", "", "scenario grid: comma-separated fleet presets (default: homog,hetero-speed)")
	systems := flag.String("systems", "spotserve", "scenario grid: spotserve, baselines, or all")
	marketName := flag.String("market", "", "scenario grid: spot-price process billing every cell (default: flat prices; price-signal cells use their own process)")
	full := flag.Bool("full", false, "scenario grid: run the full 1000+-cell cross (all models + a 12-variant bid ladder × policies × fleets × markets) with streaming aggregation")
	slo := flag.Float64("slo", 0, "scenario grid: latency objective in seconds for the SLO% column (default 120)")
	observed := flag.String("observed", "", "calibrate: observed-trace JSON file to validate against (docs/CALIBRATION.md)")
	fit := flag.Bool("fit", false, "calibrate: also fit the default market-parameter grid to the observed trace")
	calibExport := flag.String("calib-export", "", "calibrate: simulate the scenario from the grid flags and write it as an observed trace to this file")
	flag.Parse()

	sw := experiments.Sweep{
		Parallel: *parallel,
		Seeds:    experiments.SeedRange(*seed, *seeds),
	}

	failed := false
	run := func(name string, fn func()) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		fn()
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table1", func() { fmt.Print(experiments.RenderTable1(experiments.Table1())) })
	run("minmem", func() { fmt.Print(experiments.RenderMinMem(experiments.MinMem())) })
	run("fig5", func() { fmt.Print(experiments.RenderFigure5(experiments.Figure5Sweep(sw))) })
	run("fig6", func() { fmt.Print(experiments.RenderFigure6(experiments.Figure6Sweep(sw))) })
	run("fig7", func() { fmt.Print(experiments.RenderFigure7(experiments.Figure7Sweep(sw))) })
	run("fig8", func() { fmt.Print(experiments.RenderFigure8(experiments.Figure8Sweep(sw))) })
	run("fig9", func() { fmt.Print(experiments.RenderFigure9(experiments.Figure9Sweep(sw))) })
	run("scenarios", func() {
		g := scenario.Grid{
			Avail:    splitList(*avail),
			Policies: splitList(*policies),
			Fleets:   splitList(*fleets),
			Market:   *marketName,
			SLO:      *slo,
			Systems:  systemList(*systems),
			Seed:     *seed,
		}
		if *full {
			// The full cross, with any explicit axis flags overriding the
			// scale-out defaults. Rows aggregate as cells finish (streaming,
			// O(active cells) memory); a progress line keeps the 1000+-cell
			// run observable.
			fg := scenario.FullGrid()
			fg.SLO, fg.Seed = g.SLO, *seed
			if len(g.Avail) > 0 {
				fg.Avail = g.Avail
			}
			if len(g.Policies) > 0 {
				fg.Policies = g.Policies
			}
			if len(g.Fleets) > 0 {
				fg.Fleets = g.Fleets
			}
			if *marketName != "" {
				fg.Markets = splitList(*marketName)
			}
			fg.Systems = systemList(*systems)
			g = fg
		}
		done := 0
		onRow := func(int, scenario.GridRow) {
			if done++; *full && done%100 == 0 {
				fmt.Fprintf(os.Stderr, "scenarios: %d cells done\n", done)
			}
		}
		rows, err := scenario.GridSweepStream(g, sw, onRow)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenarios: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(scenario.RenderGrid(rows))
		for _, r := range rows {
			failed = failed || r.Err != ""
		}
	})

	// Calibration is an explicit mode, never part of -exp all: it needs an
	// input file (or writes one) and its exit status means verdict, not
	// render success.
	if *exp == "calibrate" {
		runCalibrate(calibrateFlags{
			observed: *observed,
			fit:      *fit,
			export:   *calibExport,
			parallel: *parallel,
			ref: calibrate.ScenarioRef{
				Avail:  firstOf(splitList(*avail)),
				Policy: firstOf(splitList(*policies)),
				Fleet:  firstOf(splitList(*fleets)),
				Market: *marketName,
				SLO:    *slo,
				Seed:   *seed,
				Seeds:  *seeds,
			},
		})
		return
	}

	switch *exp {
	case "all", "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "minmem", "scenarios":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// calibrateFlags bundles the -exp calibrate inputs.
type calibrateFlags struct {
	observed string
	fit      bool
	export   string
	parallel int
	ref      calibrate.ScenarioRef
}

// runCalibrate drives the calibration mode: export a simulated run as an
// observed trace (-calib-export), or validate an observed trace against its
// replayed scenario (-observed), optionally fitting market parameters
// (-fit). A fail verdict exits 1; usage and I/O errors exit 2.
func runCalibrate(cf calibrateFlags) {
	if cf.export != "" {
		obs, err := calibrate.ExportScenario("export", cf.ref, cf.parallel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "calibrate: %v\n", err)
			os.Exit(2)
		}
		data, err := obs.Marshal()
		if err != nil {
			fmt.Fprintf(os.Stderr, "calibrate: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(cf.export, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "calibrate: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("calibrate: wrote observed trace to %s (%d metrics)\n", cf.export, len(obs.Metrics))
		return
	}
	if cf.observed == "" {
		fmt.Fprintln(os.Stderr, "calibrate: -observed trace.json required (or -calib-export out.json)")
		os.Exit(2)
	}
	data, err := os.ReadFile(cf.observed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "calibrate: %v\n", err)
		os.Exit(2)
	}
	obs, err := calibrate.ParseObserved(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "calibrate: %v\n", err)
		os.Exit(2)
	}
	opts := calibrate.Options{Sweep: experiments.Sweep{Parallel: cf.parallel}}
	rep, err := calibrate.Run(obs, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "calibrate: %v\n", err)
		os.Exit(2)
	}
	fmt.Print(rep.Render())
	if cf.fit {
		fr, err := calibrate.FitMarket(obs, calibrate.FitSpec{}, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "calibrate: fit: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(fr.Render())
	}
	if rep.Verdict == calibrate.VerdictFail {
		os.Exit(1)
	}
}

// firstOf returns a list's first entry ("" when empty) — the calibration
// scenario is a single cell, so only the first of each grid axis applies.
func firstOf(xs []string) string {
	if len(xs) == 0 {
		return ""
	}
	return xs[0]
}

// splitList parses a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// systemList maps the -systems flag to serving systems.
func systemList(s string) []experiments.System {
	switch s {
	case "", "spotserve":
		return []experiments.System{experiments.SpotServe}
	case "baselines":
		return []experiments.System{experiments.Reroute, experiments.Reparallel}
	case "all":
		return experiments.Systems()
	default:
		fmt.Fprintf(os.Stderr, "unknown -systems %q (want spotserve, baselines, or all)\n", s)
		os.Exit(2)
		return nil
	}
}
