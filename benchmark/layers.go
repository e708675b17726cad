package main

import (
	"math/rand"
	"time"

	"spotserve/internal/cloud"
	"spotserve/internal/config"
	"spotserve/internal/core"
	"spotserve/internal/cost"
	"spotserve/internal/engine"
	"spotserve/internal/experiments"
	"spotserve/internal/metrics"
	"spotserve/internal/model"
	"spotserve/internal/reconfig"
	"spotserve/internal/scenario"
	"spotserve/internal/sim"
	"spotserve/internal/workload"
)

// Replay caps keep a traced run's replay phase to a few seconds whatever
// the workload's check-set size.
const (
	maxReplayCells        = 48
	maxAllocCells         = 24
	maxTransitionsPerCell = 4
	maxTransitions        = 160
	costReps              = 200
)

// sink keeps replayed calls' results alive so the compiler cannot drop
// the calls.
var sink float64

// replayLayers measures every per-layer metric except the two that depend
// on the workload's own loop (experiments.pool_efficiency and
// bench.trace_overhead_frac). Counts are read from rs, the workload's
// check-set results; times come from calling each layer's public entry
// points again on inputs taken from those results. groups are the index
// ranges of one grid cell's seed replicas. With no results every metric
// reads 0.
func replayLayers(rs []experiments.Result, tr *tracer, groups [][2]int) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	if len(rs) == 0 {
		return out
	}
	root := tr.begin("replay", -1, -1)
	defer tr.end(root)
	sample := rs
	if len(sample) > maxReplayCells {
		sample = sample[:maxReplayCells]
	}
	readCounts(out, rs)
	timed := func(name string, f func()) {
		sp := tr.begin(name, root, -1)
		f()
		tr.end(sp)
	}
	timed("replay.core", func() { replayCore(out, rs) })
	timed("replay.sim", func() { replaySim(out, sample) })
	timed("replay.engine", func() { replayEngine(out, sample) })
	timed("replay.cost", func() { replayCost(out, sample) })
	timed("replay.reconfig", func() { replayReconfig(out, rs) })
	timed("replay.inputs", func() { replayInputs(out, sample) })
	timed("replay.helpers", func() { replayHelpers(out, rs, groups) })
	return out
}

// readCounts fills the per-cell counts the results carry.
func readCounts(out map[string]float64, rs []experiments.Result) {
	var steps, reconfigs, reqs, migs, reloads []float64
	var lookups, hits, shifts, kmHits, kmLookups int
	for _, r := range rs {
		st := r.Stats
		steps = append(steps, float64(r.Steps))
		reconfigs = append(reconfigs, float64(len(st.ConfigLog)))
		reqs = append(reqs, float64(st.Submitted))
		migs = append(migs, float64(st.Migrations))
		reloads = append(reloads, float64(st.Reloads))
		cs := st.ReconfigCache
		lookups += cs.Lookups()
		hits += cs.Hits()
		shifts += cs.ShiftMisses()
		kmHits += cs.KMHits
		kmLookups += cs.KMHits + cs.KMMisses
	}
	out["sim.events_per_cell"] = mean(steps)
	out["reconfig.reconfigs_per_cell"] = mean(reconfigs)
	out["core.requests_per_cell"] = mean(reqs)
	out["core.migrations_per_cell"] = mean(migs)
	out["core.reloads_per_cell"] = mean(reloads)
	out["reconfig.memo_hit_frac"] = ratio(float64(hits), float64(lookups))
	out["reconfig.shift_miss_frac"] = ratio(float64(shifts), float64(lookups))
	out["reconfig.km_hit_frac"] = ratio(float64(kmHits), float64(kmLookups))
}

// replayCore re-runs cells serially to read the allocation each one costs.
func replayCore(out map[string]float64, rs []experiments.Result) {
	ac := newAllocCounter()
	var kb, objs []float64
	for i, r := range rs {
		if i == maxAllocCells {
			break
		}
		b0, o0 := ac.read()
		if _, err := runCell(r.Scenario); err != nil {
			continue
		}
		b1, o1 := ac.read()
		kb = append(kb, float64(b1-b0)/1024)
		objs = append(objs, float64(o1-o0))
	}
	out["core.alloc_kb_per_cell"] = mean(kb)
	out["core.allocs_per_cell"] = mean(objs)
}

// replaySim churns a fresh event kernel through as many events as each
// cell executed: a window of pending events, each firing event scheduling
// its successor with After, every fourth successor cancelled and
// rescheduled.
func replaySim(out map[string]float64, rs []experiments.Result) {
	rng := rand.New(rand.NewSource(1))
	var total time.Duration
	var events uint64
	for _, r := range rs {
		n := int(r.Steps)
		if n < 1 {
			continue
		}
		delays := make([]float64, 2*n+64)
		for i := range delays {
			delays[i] = rng.Float64()
		}
		s := sim.New()
		next := 0
		delay := func() float64 { next++; return delays[next%len(delays)] }
		fired := 0
		var fire func()
		fire = func() {
			fired++
			if fired+s.Pending() < n {
				h := s.After(delay(), fire)
				if fired%4 == 0 {
					h.Cancel()
					s.After(delay(), fire)
				}
			}
		}
		for i := 0; i < 32 && i < n; i++ {
			s.At(delay(), fire)
		}
		t := time.Now()
		s.RunAll()
		total += time.Since(t)
		events += s.Steps()
	}
	out["sim.ns_per_event"] = ratio(float64(total.Nanoseconds()), float64(events))
}

// cellConfig is the configuration a cell ended on: FinalConfig when the
// system records one, else the last configuration it logged.
func cellConfig(r experiments.Result) config.Config {
	if c := r.FinalConfig; !c.IsZero() && c.B > 0 {
		return c
	}
	for i := len(r.Stats.ConfigLog) - 1; i >= 0; i-- {
		if c := r.Stats.ConfigLog[i].Config; !c.IsZero() && c.B > 0 {
			return c
		}
	}
	return config.Zero
}

// cellWorkload rebuilds the arrival options experiments.Run generates a
// cell's requests from, by the same rules (internal/experiments/runner.go);
// the result's Scenario already carries the trace its TraceFn produced.
func cellWorkload(sc experiments.Scenario) workload.Options {
	horizon := sc.Trace.Horizon
	if sc.System == experiments.OnDemandOnly && horizon <= 0 {
		horizon = 1200
	}
	rate := sc.RateFn
	if rate == nil {
		rate = workload.ConstantRate(sc.Rate)
	}
	cv := sc.CV
	if cv <= 0 {
		cv = 6
	}
	opts := core.DefaultOptions(sc.Spec)
	return workload.Options{Horizon: horizon, Rate: rate, CV: cv, SeqIn: opts.SeqIn, SeqOut: opts.SeqOut, Seed: sc.Seed}
}

// replayHooks drive one pipeline through a queue of batches. They opt into
// fast-forward spans like every production hook set.
type replayHooks struct{ next func(*engine.Pipeline) }

func (h *replayHooks) IterationDone(*engine.Pipeline) bool                { return true }
func (h *replayHooks) RequestDone(*engine.Pipeline, *engine.RequestState) {}
func (h *replayHooks) BatchDone(p *engine.Pipeline)                       { h.next(p) }
func (h *replayHooks) BatchPaused(*engine.Pipeline, *engine.Batch)        {}
func (h *replayHooks) AllowFastForward(*engine.Pipeline) bool             { return true }

// fakeGPUs fabricates 4-GPU instances with n devices in all.
func fakeGPUs(n int) []*cloud.GPU {
	var gpus []*cloud.GPU
	var inst *cloud.Instance
	for id := 0; id < n; id++ {
		if id%4 == 0 {
			inst = &cloud.Instance{ID: int64(id / 4), Kind: cloud.Spot, State: cloud.Running}
		}
		g := &cloud.GPU{ID: int64(id), Slot: id % 4, Inst: inst}
		inst.GPUs = append(inst.GPUs, g)
		gpus = append(gpus, g)
	}
	return gpus
}

// replayEngine decodes each cell's whole request stream on one pipeline of
// the cell's final shape, batch after batch, and divides the time by the
// iterations committed.
func replayEngine(out map[string]float64, rs []experiments.Result) {
	var total time.Duration
	var iters int64
	for _, r := range rs {
		cfg := cellConfig(r)
		if cfg.IsZero() {
			continue
		}
		reqs, err := workload.Generate(cellWorkload(r.Scenario))
		if err != nil || len(reqs) == 0 {
			continue
		}
		shape := config.Config{D: 1, P: cfg.P, M: cfg.M, B: cfg.B}
		gpus := map[config.Position]*cloud.GPU{}
		positions := shape.Positions()
		for i, g := range fakeGPUs(shape.GPUs()) {
			gpus[positions[i]] = g
		}
		s := sim.New()
		hooks := &replayHooks{}
		eng := engine.New(s, cost.Shared(cost.DefaultParams(), r.Scenario.Spec), hooks)
		pipe, err := eng.NewPipeline(0, shape, gpus)
		if err != nil {
			continue
		}
		k := 0
		hooks.next = func(p *engine.Pipeline) {
			if k >= len(reqs) {
				return
			}
			b := &engine.Batch{}
			for ; k < len(reqs) && len(b.Requests) < shape.B; k++ {
				b.Requests = append(b.Requests, &engine.RequestState{Req: reqs[k]})
			}
			p.Start(b)
		}
		t := time.Now()
		hooks.next(pipe)
		s.RunAll()
		total += time.Since(t)
		iters += pipe.Iterations()
	}
	out["engine.ns_per_iteration"] = ratio(float64(total.Nanoseconds()), float64(iters))
}

// replayCost prices every configuration the cells logged with the shared
// estimator the simulations use.
func replayCost(out map[string]float64, rs []experiments.Result) {
	var execT, rangeT time.Duration
	calls := 0
	for _, r := range rs {
		est := cost.Shared(cost.DefaultParams(), r.Scenario.Spec)
		for _, ch := range r.Stats.ConfigLog {
			c := ch.Config
			if c.IsZero() || c.B <= 0 {
				continue
			}
			t := time.Now()
			for i := 0; i < costReps; i++ {
				sink += est.Exec(c.P, c.M, c.B, cost.DefaultSeqIn, cost.DefaultSeqOut)
			}
			execT += time.Since(t)
			t = time.Now()
			for i := 0; i < costReps; i++ {
				sink += est.DecodeRange(c.P, c.M, c.B, cost.DefaultSeqIn, cost.DefaultSeqIn+cost.DefaultSeqOut)[0]
			}
			rangeT += time.Since(t)
			calls += costReps
		}
	}
	out["cost.ns_per_exec"] = ratio(float64(execT.Nanoseconds()), float64(calls))
	out["cost.ns_per_decode_range"] = ratio(float64(rangeT.Nanoseconds()), float64(calls))
}

// transitionDevices fabricates the fleet a reconfiguration from old to
// new sees: enough 4-GPU instances for both, the devices of old holding
// its parameter shards, the rest empty.
func transitionDevices(spec model.Spec, old, next config.Config) []reconfig.DeviceContext {
	n := old.GPUs()
	if next.GPUs() > n {
		n = next.GPUs()
	}
	n = (n + 3) / 4 * 4
	positions := old.Positions()
	out := make([]reconfig.DeviceContext, n)
	for i, g := range fakeGPUs(n) {
		dc := reconfig.DeviceContext{GPU: g, CachePipeline: -1}
		if i < len(positions) {
			pos := positions[i]
			dc.ModelCtx = model.PositionRect(spec, old.P, old.M, pos.P, pos.M)
		}
		out[i] = dc
	}
	return out
}

// reconfigOptions mirrors the engine core.NewServer builds with every
// SpotServe feature on.
func reconfigOptions(spec model.Spec, disableCache bool) reconfig.Options {
	p := cost.DefaultParams()
	return reconfig.Options{
		Spec: spec, Est: cost.Shared(p, spec), Limits: config.DefaultLimits(),
		GPUsPerInstance: p.GPUsPerInstance, MaxInstances: 12,
		SeqIn: cost.DefaultSeqIn, SeqOut: cost.DefaultSeqOut,
		UseKM: true, Hierarchical: true, Progressive: true, MemOpt: true,
		UmaxBytes: p.BufMaxBytes, MigrateCache: true, DisableCache: disableCache,
	}
}

// stageTimes is one pass of Propose → Map → Plan.
type stageTimes struct{ propose, mapping, plan time.Duration }

func runPipeline(eng *reconfig.Engine, req reconfig.Request, devs []reconfig.DeviceContext, target config.Config) (stageTimes, bool) {
	var st stageTimes
	t := time.Now()
	eng.Propose(req)
	st.propose = time.Since(t)
	t = time.Now()
	m, err := eng.Map(devs, target, nil)
	st.mapping = time.Since(t)
	if err != nil {
		return st, false
	}
	t = time.Now()
	_, err = eng.Plan(devs, m, nil)
	st.plan = time.Since(t)
	return st, err == nil
}

// replayReconfig replays each cell's logged reconfigurations (from the
// boot configuration on) through a cold engine (memos off), a warm engine
// (the same transition a second time, memos primed), and the device mapper
// alone with Kuhn–Munkres matching on and off.
func replayReconfig(out map[string]float64, rs []experiments.Result) {
	var cold, warm []stageTimes
	var kmT, idT []float64
	for _, r := range rs {
		spec := r.Scenario.Spec
		prev := config.Zero
		done := 0
		for _, ch := range r.Stats.ConfigLog {
			next := ch.Config
			if next.IsZero() || next.B <= 0 {
				prev = config.Zero
				continue
			}
			if done == maxTransitionsPerCell || len(cold) == maxTransitions {
				break
			}
			devs := transitionDevices(spec, prev, next)
			req := reconfig.Request{Alpha: r.Scenario.Rate, GPUsAvail: len(devs), MaxGPUs: len(devs), SpeedFloor: 1, MemFloor: 1}
			prev = next
			c, ok := runPipeline(reconfig.NewEngine(reconfigOptions(spec, true)), req, devs, next)
			if !ok {
				continue
			}
			weng := reconfig.NewEngine(reconfigOptions(spec, false))
			runPipeline(weng, req, devs, next)
			w, _ := runPipeline(weng, req, devs, next)
			cold, warm = append(cold, c), append(warm, w)
			for _, useKM := range []bool{true, false} {
				t := time.Now()
				_, err := reconfig.MapDevices(spec, devs, next, reconfig.MapperOptions{UseKM: useKM, Hierarchical: true})
				us := float64(time.Since(t).Nanoseconds()) / 1e3
				if err != nil {
					continue
				}
				if useKM {
					kmT = append(kmT, us)
				} else {
					idT = append(idT, us)
				}
			}
			done++
		}
	}
	meanUS := func(st []stageTimes, f func(stageTimes) time.Duration) float64 {
		var v []float64
		for _, s := range st {
			v = append(v, float64(f(s).Nanoseconds())/1e3)
		}
		return mean(v)
	}
	propose := func(s stageTimes) time.Duration { return s.propose }
	mapping := func(s stageTimes) time.Duration { return s.mapping }
	plan := func(s stageTimes) time.Duration { return s.plan }
	out["reconfig.propose_us.cold"] = meanUS(cold, propose)
	out["reconfig.propose_us.warm"] = meanUS(warm, propose)
	out["reconfig.map_us.cold"] = meanUS(cold, mapping)
	out["reconfig.map_us.warm"] = meanUS(warm, mapping)
	out["reconfig.plan_us.cold"] = meanUS(cold, plan)
	out["reconfig.plan_us.warm"] = meanUS(warm, plan)
	out["km.map_us.km"] = mean(kmT)
	out["km.map_us.identity"] = mean(idT)
}

// replayInputs regenerates each cell's inputs: its requests, and its
// availability trace and price curves when the cell derives them from the
// seed.
func replayInputs(out map[string]float64, rs []experiments.Result) {
	var us []float64
	for _, r := range rs {
		sc := r.Scenario
		t := time.Now()
		if _, err := workload.Generate(cellWorkload(sc)); err != nil {
			continue
		}
		if sc.TraceFn != nil {
			sc.TraceFn(sc.Seed)
		}
		if sc.MarketFn != nil {
			sc.MarketFn(sc.Seed)
		}
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
	}
	out["inputs.generate_us"] = mean(us)
}

// replayHelpers times the result-side helpers every sweep calls:
// fingerprints, row folding, grid rendering and latency summaries.
func replayHelpers(out map[string]float64, rs []experiments.Result, groups [][2]int) {
	var fp, row, sum []float64
	for _, r := range rs {
		t := time.Now()
		r.Fingerprint()
		fp = append(fp, float64(time.Since(t).Nanoseconds())/1e3)

		l := &metrics.Latencies{}
		if r.Stats.Latencies != nil {
			for _, v := range r.Stats.Latencies.Values() {
				l.Add(v)
			}
		}
		t = time.Now()
		l.Summarize()
		sum = append(sum, float64(time.Since(t).Nanoseconds())/1e3)
	}
	var rows []scenario.GridRow
	for _, g := range groups {
		t := time.Now()
		rows = append(rows, scenario.BuildRow(rs[g[0]:g[1]], scenario.DefaultSLO))
		row = append(row, float64(time.Since(t).Nanoseconds())/1e3)
	}
	var render []float64
	for i := 0; i < 3 && len(rows) > 0; i++ {
		t := time.Now()
		scenario.RenderGrid(rows)
		render = append(render, ms(time.Since(t)))
	}
	out["experiments.fingerprint_us"] = mean(fp)
	out["scenario.build_row_us"] = mean(row)
	out["scenario.render_ms"] = median(render)
	out["metrics.summarize_us"] = mean(sum)
}

// traceOverhead estimates the share of the measured wall time a traced run
// spent recording spans: the cost of one begin/end pair, calibrated here,
// times the spans the measured loop recorded.
func traceOverhead(spans int, elapsed time.Duration) float64 {
	const n = 20000
	probe := newTracer()
	t := time.Now()
	for i := 0; i < n; i++ {
		probe.end(probe.begin("probe", -1, int64(i)))
	}
	per := float64(time.Since(t).Nanoseconds()) / n
	return ratio(per*float64(spans), float64(elapsed.Nanoseconds()))
}
