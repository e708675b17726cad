package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"spotserve/internal/experiments"
	"spotserve/internal/metrics"
	"spotserve/internal/model"
	"spotserve/internal/scenario"
	"spotserve/internal/trace"
)

// namedWorkload is one named set of inputs the benchmark runs.
type namedWorkload struct {
	name string
	// why is the reason the workload exists (BENCHMARK.json, README.md).
	why string
	run func(cfg runConfig, tr *tracer) (*result, error)
}

var workloads = []namedWorkload{
	{
		name: "paper-fig6",
		why:  "the paper's Figure 6 grid run serially; embedded traces recur, so reconfig memos run warm, and both baselines run",
		run:  runPaperFig6,
	},
	{
		name: "od-steady",
		why:  "steady light load on a fixed on-demand fleet, no preemptions; decode in sim and engine takes most of the CPU and reconfig almost none",
		run:  runODSteady,
	},
	{
		name: "spot-storm",
		why:  "seeded preemption storms through the sweep pool; fleets are novel each replica, so reconfig map and plan dominate",
		run:  runSpotStorm,
	},
	{
		name: "daemon-mixed",
		why:  "spotserved over HTTP: closed loops with one and two jobs in flight, then Poisson arrivals at 0.5-1.25x capacity; fresh jobs fill the cell cache, repeats hit it",
		run:  runDaemonMixed,
	},
}

func workloadByName(name string) (namedWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return namedWorkload{}, false
}

// runConfig is one run's settings.
type runConfig struct {
	seed int64
	// short runs only the check set (the smoke test and --update); a full
	// run does every workload's committed op count.
	short  bool
	traced bool
	// setupReps is how many times the set-up runs; setup_s is the median.
	setupReps int
	// traceDir receives <workload>.trace.json on a traced run.
	traceDir string
}

// size is n on a full run and short on a short one.
func (c runConfig) size(n, short int) int {
	if c.short {
		return short
	}
	return n
}

// result is what one workload run produced.
type result struct {
	attempted, failed int
	// check holds the check set's replica fingerprints in op order; their
	// digest is compared against testdata/digests.json.
	check []string
	// refErr reports a disagreement between the measured path and the
	// reference path that recomputed the check set.
	refErr error
	// e2e are the end-to-end metrics (untraced runs), layer the per-layer
	// metrics (traced runs), detail the workload's extra figures.
	e2e, layer, detail map[string]float64
	// invalid, when set, says why the run does not measure the system.
	invalid string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, detail: map[string]float64{}}
}

// timeSetup runs setup reps times and returns the median host-normalized
// duration in seconds: each repetition is divided by the slowdown that
// calibration bursts just before and after it measure, since the host's
// speed moves within a second. last tells setup whether its state will be
// used.
func timeSetup(reps int, setup func(last bool) error) (float64, error) {
	if reps < 1 {
		reps = 1
	}
	var ds []float64
	for i := 0; i < reps; i++ {
		host := newHostMeter()
		host.burst()
		t := time.Now()
		if err := setup(i == reps-1); err != nil {
			return 0, err
		}
		d := time.Since(t)
		host.burst()
		ds = append(ds, d.Seconds()/host.slowdown())
	}
	return median(ds), nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// catch runs f, turning a panic in it into an error: a malformed input
// fails its ops, not the benchmark.
func catch(what string, f func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s panicked: %v", what, p)
		}
	}()
	f()
	return nil
}

// runCell runs one simulation. It is on the timed path, so it recovers
// itself and names the cell only on a panic.
func runCell(sc experiments.Scenario) (r experiments.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cell %s/%s/%s seed %d panicked: %v", sc.System, sc.Spec.Name, sc.Trace.Name, sc.Seed, p)
		}
	}()
	return experiments.Run(sc), nil
}

// reportOps fills the time metrics of a simulation workload: lat holds
// each op's time inside experiments.Run in ms, busy is the measured time
// the ops took together, and host sampled the host during them.
func reportOps(res *result, lat *metrics.Latencies, busy time.Duration, host *hostMeter) {
	slow := host.slowdown()
	res.e2e["cells_per_s"] = ratio(float64(lat.Count())*slow, busy.Seconds())
	res.e2e["op_p50_ms"] = lat.Percentile(50) / slow
	res.e2e["op_p95_ms"] = lat.Percentile(95) / slow
	res.detail["host.slowdown"] = slow
}

// physics accumulates the simulated outcome of the check set: what the
// paper's figures plot. It is deterministic in the seed.
type physics struct{ p99, usd []float64 }

func (p *physics) add(r experiments.Result) {
	p.p99 = append(p.p99, r.Stats.Latency.P99)
	p.usd = append(p.usd, scenario.CostPer1kTok(r))
}

func (p *physics) report(detail map[string]float64) {
	detail["physics.sim_p99_s"] = mean(p.p99)
	detail["physics.usd_per_1k_tok"] = mean(p.usd)
}

// compareFingerprints checks the reference path's results against the
// measured check set.
func compareFingerprints(check []string, ref []experiments.Result) error {
	if len(ref) != len(check) {
		return fmt.Errorf("reference path produced %d results, check set has %d", len(ref), len(check))
	}
	for i, r := range ref {
		if fp := r.Fingerprint(); fp != check[i] {
			return fmt.Errorf("check op %d: measured fingerprint %.12s…, reference path %.12s…", i, check[i], fp)
		}
	}
	return nil
}

// Committed run sizes. Each was fixed once so a run's measured phase takes
// about 20 s on the reference machine; a commit that runs faster or slower
// still does exactly this work.
const (
	// fig6Passes of the 36-cell Figure 6 grid.
	fig6Passes = 150
	// odCells cells, of which the first odCheckN are the check set.
	odCells  = 7500
	odCheckN = 48
	// stormPasses of the 144-replica storm grid.
	stormPasses = 24
)

// warmSeed seeds every set-up's warm-up pass. It is fixed, so set-up does
// the same work in every run and setup_s does not move with --seed.
const warmSeed = 0

// runTimer is a pass-through experiments.ResultCache. The sweep pool calls
// Get just before and Put just after each simulation on the worker that
// runs it, so the pair brackets experiments.Run exactly. It never stores a
// result, so every lookup misses and every replica simulates.
type runTimer struct {
	tr     *tracer
	parent int

	mu   sync.Mutex
	open map[string]timedRun
	lat  metrics.Latencies // ms inside experiments.Run
	runs int64
}

type timedRun struct {
	at   time.Time
	span int
}

func newRunTimer(tr *tracer) *runTimer { return &runTimer{tr: tr, open: map[string]timedRun{}} }

func (t *runTimer) Get(key string) (experiments.Result, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.tr.begin("experiments.Run", t.parent, t.runs)
	t.open[key] = timedRun{at: time.Now(), span: sp}
	t.runs++
	return experiments.Result{}, false
}

func (t *runTimer) Put(key string, _ experiments.Result) {
	now := time.Now()
	t.mu.Lock()
	run := t.open[key]
	delete(t.open, key)
	t.lat.Add(ms(now.Sub(run.at)))
	t.mu.Unlock()
	t.tr.end(run.span)
}

// busy is the total time inside experiments.Run.
func (t *runTimer) busy() time.Duration {
	return time.Duration(t.lat.Mean() * float64(t.lat.Count()) * float64(time.Millisecond))
}

// runPaperFig6 is the closed loop with one worker over the paper's own
// evaluation: experiments.Figure6Sweep pass after pass, each simulation
// timed through the sweep's cache hook. The first pass runs at the run's
// seed and is the check set; later passes run at seeds the run's rng draws.
func runPaperFig6(cfg runConfig, tr *tracer) (*result, error) {
	res := newResult()
	fig6 := func(sw experiments.Sweep) error {
		return catch("Figure 6 sweep", func() { experiments.Figure6Sweep(sw) })
	}
	// Set-up runs one pass at warmSeed, filling the shared cost profile.
	setup, err := timeSetup(cfg.setupReps, func(bool) error {
		return fig6(experiments.Sweep{Parallel: 1, Seeds: []int64{warmSeed}})
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	var checkRes []experiments.Result
	host, hm := newHostMeter(), newHeapMeter()
	timer := newRunTimer(tr)
	root := tr.begin("measure", -1, -1)
	start := time.Now()
	passes := cfg.size(fig6Passes, 1)
	for pass := 0; pass < passes; pass++ {
		seed := cfg.seed
		if pass > 0 {
			seed = rng.Int63n(1 << 40)
		}
		done := 0
		sp := tr.begin("experiments.Figure6Sweep", root, int64(pass))
		timer.parent = sp
		err := fig6(experiments.Sweep{
			Parallel: 1,
			Seeds:    []int64{seed},
			Cache:    timer,
			// One worker: this runs between two simulations, untimed.
			OnResult: func(_ int, r experiments.Result, _ bool) {
				done++
				hm.observe()
				if pass == 0 {
					fp := tr.begin("experiments.Fingerprint", sp, int64(done-1))
					res.check = append(res.check, r.Fingerprint())
					tr.end(fp)
					checkRes = append(checkRes, r)
				}
			},
		})
		tr.end(sp)
		res.attempted += fig6PassLen
		if err != nil {
			res.failed += fig6PassLen - done
			if pass == 0 {
				res.check = append(res.check, "error: "+err.Error())
			}
		}
		host.tick()
	}
	elapsed := time.Since(start)
	tr.end(root)
	spans := tr.count()

	var phys physics
	for _, r := range checkRes {
		phys.add(r)
	}
	res.e2e["setup_s"] = setup
	reportOps(res, &timer.lat, timer.busy(), host)
	hm.report(res)
	phys.report(res.detail)

	// Reference path: the check set's scenarios again, through the sweep
	// pool on every core.
	ref, err := runPool(scenariosOf(checkRes))
	if err != nil {
		res.refErr = err
	} else {
		res.refErr = compareFingerprints(res.check, ref)
	}
	if cfg.traced {
		if res.refErr != nil {
			ref = nil
		}
		res.layer = replayLayers(ref, tr, groupsOf(len(ref), 1))
		// One worker: the share of wall time spent inside experiments.Run.
		res.layer["experiments.pool_efficiency"] = ratio(timer.busy().Seconds(), elapsed.Seconds())
		res.layer["bench.trace_overhead_frac"] = traceOverhead(spans, elapsed)
	}
	return res, nil
}

// fig6PassLen is the Figure 6 grid's cell count: 3 models × {A_S, B_S} ×
// {spot, +O} × 3 systems.
const fig6PassLen = 36

func scenariosOf(rs []experiments.Result) []experiments.Scenario {
	out := make([]experiments.Scenario, len(rs))
	for i, r := range rs {
		out[i] = r.Scenario
	}
	return out
}

// odSource yields od-steady's k-th cell: a fixed on-demand fleet of four
// instances (Figure 7's OD-4 point) cycling the three models, each cell at
// a fresh seed, under steady light load: Poisson arrivals (CV 1) at half
// the paper's rate for an hour. Batches stay small, so decode iterations,
// not request generation or the control plane, take the time.
func odSource(seed int64) func(k int) experiments.Scenario {
	rng := rand.New(rand.NewSource(seed))
	models := model.All()
	od := trace.Trace{Name: "OD-4", Horizon: 3600, Events: []trace.Event{{At: 0, Count: 0}}}
	return func(k int) experiments.Scenario {
		sc := experiments.DefaultScenario(experiments.OnDemandOnly, models[k%len(models)], od, rng.Int63n(1<<40))
		sc.OnDemandN = 4
		sc.Rate /= 2
		sc.CV = 1
		return sc
	}
}

// runODSteady is the closed loop with one worker: od-steady's cells one
// after another through experiments.Run. The first odCheckN cells are the
// check set.
func runODSteady(cfg runConfig, tr *tracer) (*result, error) {
	res := newResult()
	var checkCells []experiments.Scenario
	// Set-up builds the check set's inputs and warms the shared cost
	// profile with as many cells at warmSeed.
	setup, err := timeSetup(cfg.setupReps, func(bool) error {
		src, warm := odSource(cfg.seed), odSource(warmSeed)
		checkCells = make([]experiments.Scenario, odCheckN)
		for k := range checkCells {
			checkCells[k] = src(k)
			if _, err := runCell(warm(k)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	src := odSource(cfg.seed)
	host, hm := newHostMeter(), newHeapMeter()
	var lat metrics.Latencies
	var busy time.Duration
	var phys physics
	root := tr.begin("measure", -1, -1)
	start := time.Now()
	for k := 0; k < cfg.size(odCells, odCheckN); k++ {
		sc := src(k)
		sp := tr.begin("experiments.Run", root, int64(k))
		t := time.Now()
		r, err := runCell(sc)
		d := time.Since(t)
		tr.end(sp)
		res.attempted++
		if err != nil {
			res.failed++
			if k < odCheckN {
				res.check = append(res.check, "error: "+err.Error())
			}
			continue
		}
		lat.Add(ms(d))
		busy += d
		hm.observe()
		if k < odCheckN {
			fp := tr.begin("experiments.Fingerprint", root, int64(k))
			res.check = append(res.check, r.Fingerprint())
			tr.end(fp)
			phys.add(r)
		}
		host.tick()
	}
	elapsed := time.Since(start)
	tr.end(root)
	spans := tr.count()

	res.e2e["setup_s"] = setup
	reportOps(res, &lat, busy, host)
	hm.report(res)
	phys.report(res.detail)

	// Reference path: the check set again, through the sweep pool.
	ref, err := runPool(checkCells)
	if err != nil {
		res.refErr = err
	} else {
		res.refErr = compareFingerprints(res.check, ref)
	}
	if cfg.traced {
		if res.refErr != nil {
			ref = nil
		}
		res.layer = replayLayers(ref, tr, groupsOf(len(ref), 1))
		// One worker: the share of wall time spent inside experiments.Run.
		res.layer["experiments.pool_efficiency"] = ratio(busy.Seconds(), elapsed.Seconds())
		res.layer["bench.trace_overhead_frac"] = traceOverhead(spans, elapsed)
	}
	return res, nil
}

// runPool runs cells once each at their own seeds through the sweep pool.
func runPool(cells []experiments.Scenario) (out []experiments.Result, err error) {
	err = catch("sweep pool", func() {
		for _, reps := range (experiments.Sweep{Parallel: runtime.GOMAXPROCS(0)}).RunCells(cells) {
			out = append(out, reps...)
		}
	})
	return out, err
}

// runReplicas runs every cell at every seed serially through
// experiments.Run, cell-major like the sweep pool, and returns the results
// with the total simulation time.
func runReplicas(cells []experiments.Scenario, seeds []int64) ([]experiments.Result, time.Duration, error) {
	var out []experiments.Result
	var total time.Duration
	for _, c := range cells {
		for _, s := range seeds {
			c.Seed = s
			t := time.Now()
			r, err := runCell(c)
			total += time.Since(t)
			if err != nil {
				return nil, total, err
			}
			out = append(out, r)
		}
	}
	return out, total, nil
}

// groupsOf splits n results into consecutive groups of size per (a grid
// cell's seed replicas).
func groupsOf(n, per int) [][2]int {
	var g [][2]int
	for lo := 0; lo+per <= n; lo += per {
		g = append(g, [2]int{lo, lo + per})
	}
	return g
}

// stormSeeds is the replication of every spot-storm cell.
const stormSeeds = 3

// stormGrid is spot-storm's pass: 4 preemption-heavy availability models ×
// 3 policies × 2 fleets × 2 markets, SpotServe only — 48 cells.
func stormGrid() scenario.Grid {
	return scenario.Grid{
		Avail:    []string{"bursty", "multizone", "price-signal", "price-signal/2.2x0.6"},
		Policies: []string{"fixed", "reactive-queue", "slo-latency"},
		Fleets:   []string{"homog", "hetero-speed"},
		Markets:  []string{"", "ou"},
		Systems:  []experiments.System{experiments.SpotServe},
		Model:    model.GPT20B,
	}
}

// gridSweep runs one streaming grid sweep.
func gridSweep(g scenario.Grid, sw experiments.Sweep) (rows []scenario.GridRow, err error) {
	if perr := catch("grid sweep", func() { rows, err = scenario.GridSweepStream(g, sw, nil) }); perr != nil {
		return nil, perr
	}
	return rows, err
}

// runSpotStorm is the closed loop over the sweep pool: grid pass after grid
// pass through scenario.GridSweepStream on nproc workers, each pass at a
// new base seed. The first pass, at the run's seed, is the check set.
func runSpotStorm(cfg runConfig, tr *tracer) (*result, error) {
	res := newResult()
	workers := runtime.GOMAXPROCS(0)
	grid := stormGrid()
	var cells []experiments.Scenario
	// Set-up expands the grid and runs a warm-up pass at warmSeed.
	setup, err := timeSetup(cfg.setupReps, func(bool) error {
		var err error
		if cells, err = grid.Cells(); err != nil {
			return err
		}
		_, err = gridSweep(grid, experiments.Sweep{Parallel: workers, Seeds: experiments.SeedRange(warmSeed, stormSeeds)})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	perPass := len(cells) * stormSeeds

	rng := rand.New(rand.NewSource(cfg.seed))
	host, hm := newHostMeter(), newHeapMeter()
	timer := newRunTimer(tr)
	var busy time.Duration
	root := tr.begin("measure", -1, -1)
	for pass := 0; pass < cfg.size(stormPasses, 1); pass++ {
		base := cfg.seed
		if pass > 0 {
			base = rng.Int63n(1 << 40)
		}
		done := 0
		sw := experiments.Sweep{
			Parallel: workers,
			Seeds:    experiments.SeedRange(base, stormSeeds),
			Cache:    timer,
			OnResult: func(int, experiments.Result, bool) {
				done++
				hm.observe()
			},
		}
		sp := tr.begin("scenario.GridSweepStream", root, int64(pass))
		timer.parent = sp
		t := time.Now()
		rows, err := gridSweep(grid, sw)
		busy += time.Since(t)
		tr.end(sp)
		host.tick()
		res.attempted += perPass
		if err != nil {
			res.failed += perPass - done
			if pass == 0 {
				res.check = append(res.check, "error: "+err.Error())
			}
			continue
		}
		if pass == 0 {
			for _, row := range rows {
				res.check = append(res.check, row.Fingerprints...)
			}
		}
	}
	tr.end(root)
	spans := tr.count()

	res.e2e["setup_s"] = setup
	reportOps(res, &timer.lat, busy, host)
	hm.report(res)

	// Reference path: the first pass's replicas again, serially.
	ref, _, err := runReplicas(cells, experiments.SeedRange(cfg.seed, stormSeeds))
	if err != nil {
		res.refErr = err
	} else {
		res.refErr = compareFingerprints(res.check, ref)
	}
	var phys physics
	for _, r := range ref {
		phys.add(r)
	}
	phys.report(res.detail)
	if cfg.traced {
		if res.refErr != nil {
			ref = nil
		}
		res.layer = replayLayers(ref, tr, groupsOf(len(ref), stormSeeds))
		// The workers' busy share: time inside experiments.Run over
		// workers × the passes' wall time.
		res.layer["experiments.pool_efficiency"] = ratio(timer.busy().Seconds(), float64(workers)*busy.Seconds())
		res.layer["bench.trace_overhead_frac"] = traceOverhead(spans, busy)
	}
	return res, nil
}
