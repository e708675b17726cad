package core

import (
	"fmt"

	"spotserve/internal/cloud"
	"spotserve/internal/config"
	"spotserve/internal/cost"
	"spotserve/internal/engine"
	"spotserve/internal/metrics"
	"spotserve/internal/reconfig"
	"spotserve/internal/sim"
	"spotserve/internal/workload"
)

// shell is the serving substrate SpotServe and both baselines share, as in
// §6.1: the simulated cloud, inference engine and reconfiguration pipeline,
// the FIFO request queue and its dispatch, completion accounting and the
// usable-fleet views. Each system embeds one and adds its own
// reconfiguration mechanism; docs/ARCHITECTURE.md lists every remaining
// difference. The shell never branches on the system it serves.
type shell struct {
	sim   *sim.Simulator
	cloud *cloud.Cloud
	est   *cost.Estimator
	eng   *engine.Engine
	rc    *reconfig.Engine
	opts  Options

	cfg   config.Config
	queue []*engine.RequestState
	dying map[int64]bool // instance IDs under preemption notice
	stats Stats
	// pipes are the serving pipelines in ascending id order.
	pipes []*engine.Pipeline
}

// setup wires the shared substrate. ro carries a system's own
// reconfiguration options; setup adds the model, fleet and workload bounds
// every system plans with. hooks is the system's engine.Hooks.
func (sh *shell) setup(s *sim.Simulator, cl *cloud.Cloud, opts Options, ro reconfig.Options, hooks engine.Hooks) {
	sh.sim, sh.cloud, sh.opts = s, cl, opts
	sh.est = cost.Shared(opts.CostParams, opts.Spec)
	ro.Spec, ro.Est, ro.Limits = opts.Spec, sh.est, opts.Limits
	ro.GPUsPerInstance, ro.MaxInstances = opts.CostParams.GPUsPerInstance, opts.MaxInstances
	ro.SeqIn, ro.SeqOut = opts.SeqIn, opts.SeqOut
	ro.DisableCache = opts.DisableReconfigCache
	sh.rc = reconfig.NewEngine(ro)
	sh.eng = engine.New(s, sh.est, hooks)
	sh.eng.NoFastForward = opts.DisableFastForward
	sh.dying = map[int64]bool{}
}

// Config returns the current parallel configuration.
func (sh *shell) Config() config.Config { return sh.cfg }

// Stats returns a snapshot of the serving statistics.
func (sh *shell) Stats() Stats {
	st := sh.stats
	st.CostUSD = sh.cloud.CostUSD()
	if st.Latencies != nil {
		st.Latency = st.Latencies.Summarize()
	}
	st.ReconfigCache = sh.rc.CacheStats()
	return st
}

// load schedules a run: each arrival joins the queue and is then passed to
// arrive, the monitor calls tick every CheckInterval below until (a system
// without a monitor passes until = 0 and a nil tick), and bootstrap runs at
// t=0 after the cloud's initial-fleet events.
func (sh *shell) load(reqs []workload.Request, until float64, arrive func(*engine.RequestState), tick, bootstrap func()) {
	if sh.stats.Latencies == nil {
		sh.stats.Latencies = &metrics.Latencies{}
	}
	// One slab holds every request's state: per-arrival allocations would
	// dominate the steady-state profile.
	states := make([]engine.RequestState, len(reqs))
	for i, r := range reqs {
		states[i].Req = r
	}
	sh.stats.Submitted += len(reqs)
	sh.sim.Series(len(states), func(i int) float64 { return states[i].Req.At }, func(i int) {
		sh.queue = append(sh.queue, &states[i])
		arrive(&states[i])
	})
	var ticks []float64
	for t := sh.opts.CheckInterval; t < until; t += sh.opts.CheckInterval {
		ticks = append(ticks, t)
	}
	sh.sim.Series(len(ticks), func(i int) float64 { return ticks[i] }, func(int) { tick() })
	sh.sim.At(0, bootstrap)
}

// serves reports whether inst may host pipelines: running, and not under a
// preemption notice.
func (sh *shell) serves(inst *cloud.Instance) bool {
	return inst.State == cloud.Running && !sh.dying[inst.ID]
}

// usableGPUs returns the GPUs of serving instances in instance-ID order.
func (sh *shell) usableGPUs() []*cloud.GPU {
	var out []*cloud.GPU
	for _, inst := range sh.cloud.Alive() {
		if sh.serves(inst) {
			out = append(out, inst.GPUs...)
		}
	}
	return out
}

// usableGPUCount returns len(usableGPUs()) without building the slice.
func (sh *shell) usableGPUCount() int {
	n := 0
	for _, inst := range sh.cloud.Alive() {
		if sh.serves(inst) {
			n += len(inst.GPUs)
		}
	}
	return n
}

// request assembles the reconfiguration Request for required rate alpha:
// the canonical fleet signature is the device counts plus the speed and
// memory floors, so mixed fleets are planned for their slowest and
// smallest-memory serving instance (1.0 on homogeneous fleets).
func (sh *shell) request(alpha float64, gpus, maxGPUs int) reconfig.Request {
	req := reconfig.Request{Alpha: alpha, GPUsAvail: gpus, MaxGPUs: maxGPUs, SpeedFloor: 1, MemFloor: 1}
	first := true
	for _, inst := range sh.cloud.Alive() {
		if !sh.serves(inst) {
			continue
		}
		if sp := inst.GPUSpeed(); first || sp < req.SpeedFloor {
			req.SpeedFloor = sp
		}
		if ms := inst.MemScale(); first || ms < req.MemFloor {
			req.MemFloor = ms
		}
		first = false
	}
	return req
}

// fleetGPUs sums the GPUs of non-terminated instances not under notice —
// the device-denominated fleet size, exact on fleets whose instance types
// carry different GPU counts.
func (sh *shell) fleetGPUs() int {
	return sh.cloud.GPUCount(func(id int64) bool { return sh.dying[id] })
}

// hosts reports whether any serving pipeline runs on inst.
func (sh *shell) hosts(inst *cloud.Instance) bool {
	for _, p := range sh.pipes {
		if runsOn(p, inst) {
			return true
		}
	}
	return false
}

// runsOn reports whether any GPU of p belongs to inst.
func runsOn(p *engine.Pipeline, inst *cloud.Instance) bool {
	//detlint:allow maprange — existential scan with pure reads: the answer is whether ANY of the pipeline's GPUs belongs to inst, identical under every visit order
	for _, g := range p.GPUs {
		if g.Inst.ID == inst.ID {
			return true
		}
	}
	return false
}

// newPipeline builds pipeline id of cfg over bind. On a mixed fleet the
// pipeline decodes at its slowest GPU's pace, 1/minSpeed, so mixed fleets
// slow every system equally; homogeneous fleets keep speed 1 exactly.
func (sh *shell) newPipeline(id int, cfg config.Config, bind map[config.Position]*cloud.GPU) *engine.Pipeline {
	p, err := sh.eng.NewPipeline(id, cfg, bind)
	if err != nil {
		panic(fmt.Sprintf("core: newPipeline: %v", err))
	}
	minSpeed, first := 1.0, true
	//detlint:allow maprange — min-fold over pure reads: the minimum of a set is the same value under every visit order (float comparison is exact)
	for _, g := range bind {
		if sp := g.Inst.GPUSpeed(); first || sp < minSpeed {
			minSpeed, first = sp, false
		}
	}
	if minSpeed > 0 && minSpeed != 1 {
		p.SetSlowdown(1 / minSpeed)
	}
	return p
}

// dispatch feeds idle pipelines in id order: a pipeline's resumed batch
// first (resume maps pipeline id to the batch it inherits; nil when the
// system never resumes one), then up to cfg.B requests from the queue.
func (sh *shell) dispatch(resume map[int]*engine.Batch) {
	for _, pipe := range sh.pipes {
		if pipe.Busy() {
			continue
		}
		if b, ok := resume[pipe.ID]; ok {
			delete(resume, pipe.ID)
			if b.Size() > 0 {
				pipe.Start(b)
				continue
			}
		}
		if len(sh.queue) == 0 {
			continue
		}
		n := min(sh.cfg.B, len(sh.queue))
		// The batch owns a copy of its n requests so queue appends can
		// never alias its backing array; the queue just advances.
		b := &engine.Batch{Requests: append(make([]*engine.RequestState, 0, n), sh.queue[:n]...)}
		sh.queue = sh.queue[n:]
		pipe.Start(b)
	}
}

// restartInto appends b's unfinished requests to requeue with their
// progress reset: they recompute from scratch.
func restartInto(requeue []*engine.RequestState, b *engine.Batch) []*engine.RequestState {
	for _, r := range b.Requests {
		if r.Done() {
			continue
		}
		r.Committed = 0
		r.Restarts++
		requeue = append(requeue, r)
	}
	return requeue
}

// complete accounts a finished request.
func (sh *shell) complete(r *engine.RequestState) {
	lat := r.DoneAt - r.Req.At
	sh.stats.Completed++
	sh.stats.Latencies.Add(lat)
	sh.stats.PerRequest.Add(r.Req.At, lat)
}

// terminated forgets a reclaimed or released instance and drops its GPUs'
// context daemons.
func (sh *shell) terminated(inst *cloud.Instance) {
	delete(sh.dying, inst.ID)
	for _, g := range inst.GPUs {
		sh.eng.DropDaemon(g.ID)
	}
}

// baselineHooks are both baselines' engine hooks. Neither pauses a pipeline
// through IterationDone (they abort outright), so every run may fast-forward,
// and a finished batch just feeds the queue to idle pipelines.
type baselineHooks shell

func (h *baselineHooks) AllowFastForward(*engine.Pipeline) bool { return true }

func (h *baselineHooks) IterationDone(*engine.Pipeline) bool { return true }

func (h *baselineHooks) RequestDone(_ *engine.Pipeline, r *engine.RequestState) {
	(*shell)(h).complete(r)
}

func (h *baselineHooks) BatchDone(*engine.Pipeline) { (*shell)(h).dispatch(nil) }

func (h *baselineHooks) BatchPaused(*engine.Pipeline, *engine.Batch) {}
