// Package baseline implements the two comparison systems of §6.1, built on
// the same inference engine and cloud substrate as SpotServe:
//
//   - Reparallelization (Varuna-style): adapts the parallel configuration
//     like SpotServe's controller, but realizes every change by restarting
//     all engines — parameters reload from storage and interrupted requests
//     recompute from scratch.
//   - Rerouting (MArk-style): a fixed model-parallel shape; whole inference
//     pipelines are dropped on preemption and re-initialized on
//     acquisition, with interrupted requests rerouted to surviving
//     pipelines and restarted.
package baseline

import (
	"sort"

	"spotserve/internal/cloud"
	"spotserve/internal/config"
	"spotserve/internal/core"
	"spotserve/internal/cost"
	"spotserve/internal/engine"
	"spotserve/internal/metrics"
	"spotserve/internal/reconfig"
	"spotserve/internal/sim"
	"spotserve/internal/workload"
)

// Reparallel is the Reparallelization baseline server.
type Reparallel struct {
	sim   *sim.Simulator
	cloud *cloud.Cloud
	est   *cost.Estimator
	eng   *engine.Engine
	rc    *reconfig.Engine
	opts  core.Options

	cfg        config.Config
	pipes      map[int]*engine.Pipeline
	queue      []*engine.RequestState
	restarting bool
	epoch      int
	dying      map[int64]bool

	stats core.Stats
}

// NewReparallel builds the baseline on a simulator and cloud.
func NewReparallel(s *sim.Simulator, cl *cloud.Cloud, opts core.Options) *Reparallel {
	est := cost.Shared(opts.CostParams, opts.Spec)
	r := &Reparallel{
		sim:   s,
		cloud: cl,
		est:   est,
		rc:    baselineEngine(est, opts),
		opts:  opts,
		pipes: map[int]*engine.Pipeline{},
		dying: map[int64]bool{},
	}
	r.eng = engine.New(s, est, (*reparallelHooks)(r))
	r.eng.NoFastForward = opts.DisableFastForward
	return r
}

// Install registers the server as the cloud's listener.
func (r *Reparallel) Install() { r.cloud.SetListener((*reparallelEvents)(r)) }

// Stats returns the serving outcome.
func (r *Reparallel) Stats() core.Stats {
	st := r.stats
	st.CostUSD = r.cloud.CostUSD()
	if st.Latencies != nil {
		st.Latency = st.Latencies.Summarize()
	}
	st.ReconfigCache = r.rc.CacheStats()
	return st
}

// Config returns the current configuration.
func (r *Reparallel) Config() config.Config { return r.cfg }

// LoadWorkload schedules arrivals and monitoring. Arrivals read reqs as
// they fire, so the caller must not modify it during the run.
func (r *Reparallel) LoadWorkload(reqs []workload.Request, horizon float64) {
	if r.stats.Latencies == nil {
		r.stats.Latencies = &metrics.Latencies{}
	}
	r.stats.Submitted += len(reqs)
	r.sim.Series(len(reqs), func(i int) float64 { return reqs[i].At }, func(i int) {
		r.queue = append(r.queue, &engine.RequestState{Req: reqs[i]})
		r.dispatch()
	})
	var ticks []float64
	for t := r.opts.CheckInterval; t < horizon; t += r.opts.CheckInterval {
		ticks = append(ticks, t)
	}
	r.sim.Series(len(ticks), func(i int) float64 { return ticks[i] },
		func(int) { r.workloadCheck() })
	r.sim.At(0, func() { r.bootstrap() })
}

func (r *Reparallel) usableGPUs() []*cloud.GPU {
	var out []*cloud.GPU
	for _, inst := range r.cloud.Alive() {
		if r.dying[inst.ID] || inst.State != cloud.Running {
			continue
		}
		out = append(out, inst.GPUs...)
	}
	return out
}

func (r *Reparallel) propose() reconfig.Proposal {
	gpus := r.usableGPUs()
	// Same required-rate estimate as SpotServe's controller: base rate
	// plus backlog pressure (fair comparison — only the reconfiguration
	// mechanism differs). Like the server, the fleet is measured in GPUs
	// and the request carries the slowest/smallest usable device floors,
	// so mixed fleets are planned with the same arithmetic — and the same
	// memoized pipeline — as SpotServe.
	alpha := r.opts.BaseRate + float64(len(r.queue))/120.0
	req := reconfig.Request{
		Alpha:      alpha,
		GPUsAvail:  len(gpus),
		MaxGPUs:    len(gpus),
		SpeedFloor: speedFloor(gpus),
		MemFloor:   memFloor(gpus),
	}
	if r.opts.Features.AllowOnDemand {
		req.MaxGPUs = r.opts.MaxInstances * r.opts.CostParams.GPUsPerInstance
	}
	return r.rc.Propose(req)
}

// speedFloor returns the slowest GPU's speed multiplier (1.0 when empty or
// homogeneous) — the conservative correction mixed fleets plan with.
func speedFloor(gpus []*cloud.GPU) float64 {
	floor, first := 1.0, true
	for _, g := range gpus {
		if sp := g.Inst.GPUSpeed(); first || sp < floor {
			floor, first = sp, false
		}
	}
	return floor
}

// memFloor returns the smallest usable instance's memory multiplier (1.0
// when empty or homogeneous) — feasibility is checked against it.
func memFloor(gpus []*cloud.GPU) float64 {
	floor, first := 1.0, true
	for _, g := range gpus {
		if ms := g.Inst.MemScale(); first || ms < floor {
			floor, first = ms, false
		}
	}
	return floor
}

// baselineEngine builds a baseline's reconfiguration pipeline with the
// same optimizer bounds as SpotServe's server — both comparison systems
// price configurations through the identical (and identically memoized)
// machinery, so only the reconfiguration *mechanism* differs.
func baselineEngine(est *cost.Estimator, opts core.Options) *reconfig.Engine {
	return reconfig.NewEngine(reconfig.Options{
		Spec:            opts.Spec,
		Est:             est,
		Limits:          opts.Limits,
		GPUsPerInstance: opts.CostParams.GPUsPerInstance,
		MaxInstances:    opts.MaxInstances,
		SeqIn:           opts.SeqIn,
		SeqOut:          opts.SeqOut,
		DisableCache:    opts.DisableReconfigCache,
	})
}

func (r *Reparallel) bootstrap() {
	prop := r.propose()
	r.manageFleet(prop)
	target := prop.Config
	gpus := r.usableGPUs()
	if target.GPUs() > len(gpus) {
		target = r.rc.Propose(reconfig.Request{
			Alpha:      r.opts.BaseRate,
			GPUsAvail:  len(gpus),
			MaxGPUs:    len(gpus),
			SpeedFloor: speedFloor(gpus),
			MemFloor:   memFloor(gpus),
		}).Config
	}
	if target.IsZero() || target.GPUs() > len(gpus) {
		return
	}
	r.install(target, "bootstrap")
	r.dispatch()
}

func (r *Reparallel) manageFleet(prop reconfig.Proposal) {
	if !r.opts.Features.AllowOnDemand {
		return
	}
	haveGPUs := r.cloud.GPUCount(func(id int64) bool { return r.dying[id] })
	if prop.WantGPUs > haveGPUs {
		r.stats.OnDemandAllocated += len(r.cloud.AllocOnDemandGPUs(prop.WantGPUs - haveGPUs))
	}
}

// install binds the configuration over the usable GPUs in ID order (no
// device mapping — contexts are rebuilt from storage anyway).
func (r *Reparallel) install(cfg config.Config, reason string) {
	gpus := r.usableGPUs()
	r.cfg = cfg
	r.pipes = map[int]*engine.Pipeline{}
	i := 0
	for d := 0; d < cfg.D; d++ {
		bind := map[config.Position]*cloud.GPU{}
		for p := 0; p < cfg.P; p++ {
			for m := 0; m < cfg.M; m++ {
				bind[config.Position{D: d, P: p, M: m}] = gpus[i]
				i++
			}
		}
		pipe, err := r.eng.NewPipeline(d, cfg, bind)
		if err != nil {
			panic(err)
		}
		if slow := core.PipelineSlowdown(bind); slow != 1 {
			pipe.SetSlowdown(slow)
		}
		r.pipes[d] = pipe
	}
	r.stats.ConfigLog = append(r.stats.ConfigLog, core.ConfigChange{
		At: r.sim.Now(), Config: cfg, Reason: reason,
	})
}

// restart aborts everything and re-initializes the whole deployment: the
// defining cost of this baseline. Interrupted requests lose all progress.
func (r *Reparallel) restart(reason string) {
	r.epoch++
	epoch := r.epoch
	var requeue []*engine.RequestState
	ids := make([]int, 0, len(r.pipes))
	for id := range r.pipes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		pipe := r.pipes[id]
		if !pipe.Busy() {
			continue
		}
		b := pipe.Abort()
		for _, q := range b.Requests {
			if q.Done() {
				continue
			}
			q.Committed = 0
			q.Restarts++
			requeue = append(requeue, q)
		}
	}
	r.queue = append(requeue, r.queue...)
	r.pipes = map[int]*engine.Pipeline{}
	r.cfg = config.Zero
	r.restarting = true

	prop := r.propose()
	r.manageFleet(prop)
	target := prop.Config
	gpus := r.usableGPUs()
	if target.GPUs() > len(gpus) {
		target = reconfig.FitToInstances(target, len(gpus))
	}
	if target.IsZero() {
		r.restarting = false
		return
	}
	r.stats.Reloads++
	delay := r.est.ReloadTime(target.P, target.M)
	r.sim.After(delay, func() {
		if epoch != r.epoch {
			return
		}
		r.restarting = false
		gpus := r.usableGPUs()
		tgt := target
		if tgt.GPUs() > len(gpus) {
			tgt = reconfig.FitToInstances(tgt, len(gpus))
		}
		if tgt.IsZero() {
			return
		}
		r.install(tgt, reason)
		r.dispatch()
	})
}

func (r *Reparallel) dispatch() {
	if r.restarting || r.cfg.IsZero() {
		return
	}
	ids := make([]int, 0, len(r.pipes))
	for id := range r.pipes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		pipe := r.pipes[id]
		if pipe.Busy() || len(r.queue) == 0 {
			continue
		}
		n := r.cfg.B
		if n > len(r.queue) {
			n = len(r.queue)
		}
		b := &engine.Batch{Requests: r.queue[:n]}
		r.queue = append([]*engine.RequestState(nil), r.queue[n:]...)
		pipe.Start(b)
	}
}

func (r *Reparallel) workloadCheck() {
	if r.restarting || r.cfg.IsZero() {
		return
	}
	alpha := r.opts.BaseRate
	phi := r.est.Throughput(r.cfg, r.opts.SeqIn, r.opts.SeqOut)
	if phi >= alpha*0.98 {
		return
	}
	prop := r.propose()
	if prop.Config.IsZero() || prop.Config == r.cfg {
		return
	}
	r.restart("workload")
}

type reparallelEvents Reparallel

func (e *reparallelEvents) InstanceReady(inst *cloud.Instance) {
	r := (*Reparallel)(e)
	if r.stats.Latencies == nil || r.restarting {
		return
	}
	if r.cfg.IsZero() {
		if r.sim.Now() == 0 {
			return // bootstrap event handles the initial fleet
		}
		r.restart("recovery")
		return
	}
	prop := r.propose()
	if prop.Config == r.cfg || prop.Config.IsZero() {
		return
	}
	if prop.Config.GPUs() > len(r.usableGPUs()) {
		return
	}
	r.restart("acquisition")
}

func (e *reparallelEvents) PreemptionNotice(inst *cloud.Instance, deadline float64) {
	r := (*Reparallel)(e)
	r.dying[inst.ID] = true
	if r.stats.Latencies == nil {
		return
	}
	inUse := false
	for _, pipe := range r.pipes {
		for _, g := range pipe.GPUs {
			if g.Inst.ID == inst.ID {
				inUse = true
			}
		}
	}
	if !inUse && !r.cfg.IsZero() {
		return
	}
	r.restart("preemption")
}

func (e *reparallelEvents) InstanceTerminated(inst *cloud.Instance) {
	r := (*Reparallel)(e)
	delete(r.dying, inst.ID)
	for _, g := range inst.GPUs {
		r.eng.DropDaemon(g.ID)
	}
}

type reparallelHooks Reparallel

// AllowFastForward opts into fast-forward: this baseline never pauses
// through IterationDone (it aborts pipelines outright on restart), so every
// run may batch its iteration commits.
func (h *reparallelHooks) AllowFastForward(p *engine.Pipeline) bool { return true }

func (h *reparallelHooks) IterationDone(p *engine.Pipeline) bool { return true }

func (h *reparallelHooks) RequestDone(p *engine.Pipeline, q *engine.RequestState) {
	r := (*Reparallel)(h)
	r.stats.Completed++
	r.stats.Latencies.Add(q.DoneAt - q.Req.At)
	r.stats.PerRequest.Add(q.Req.At, q.DoneAt-q.Req.At)
}

func (h *reparallelHooks) BatchDone(p *engine.Pipeline) {
	(*Reparallel)(h).dispatch()
}

func (h *reparallelHooks) BatchPaused(p *engine.Pipeline, b *engine.Batch) {}
