package core

import (
	"spotserve/internal/cloud"
	"spotserve/internal/config"
	"spotserve/internal/engine"
	"spotserve/internal/reconfig"
	"spotserve/internal/sim"
	"spotserve/internal/workload"
)

// Reparallel is the Reparallelization baseline of §6.1 (Varuna-style): it
// adapts the parallel configuration like SpotServe's controller, but
// realizes every change by restarting all engines — parameters reload from
// storage and interrupted requests recompute from scratch.
type Reparallel struct {
	shell
	restarting bool
	epoch      int
}

// NewReparallel builds the baseline on a simulator and cloud. Its
// reconfiguration engine has the same optimizer bounds as SpotServe's but
// none of its mapping, planning or SLO options: devices are bound in ID
// order and contexts rebuilt from storage.
func NewReparallel(s *sim.Simulator, cl *cloud.Cloud, opts Options) *Reparallel {
	r := &Reparallel{}
	r.setup(s, cl, opts, reconfig.Options{}, (*baselineHooks)(&r.shell))
	return r
}

// Install registers the server as the cloud's listener.
func (r *Reparallel) Install() { r.cloud.SetListener((*reparallelEvents)(r)) }

// LoadWorkload schedules arrivals, a workload check every CheckInterval up
// to the horizon, and the bootstrap.
func (r *Reparallel) LoadWorkload(reqs []workload.Request, horizon float64) {
	r.load(reqs, horizon, func(*engine.RequestState) { r.dispatch(nil) }, r.workloadCheck, r.bootstrap)
}

// propose runs the optimizer over the usable fleet. Its required rate is
// BaseRate plus backlog pressure; unlike SpotServe's controller it never
// observes the arrival rate.
func (r *Reparallel) propose() reconfig.Proposal {
	gpus := r.usableGPUCount()
	maxGPUs := gpus
	if r.opts.Features.AllowOnDemand {
		maxGPUs = r.opts.MaxInstances * r.opts.CostParams.GPUsPerInstance
	}
	return r.rc.Propose(r.request(r.opts.BaseRate+float64(len(r.queue))/backlogDrainTarget, gpus, maxGPUs))
}

func (r *Reparallel) bootstrap() {
	prop := r.propose()
	r.manageFleet(prop)
	target := prop.Config
	n := r.usableGPUCount()
	if target.GPUs() > n {
		target = r.rc.Propose(r.request(r.opts.BaseRate, n, n)).Config
	}
	if target.IsZero() || target.GPUs() > n {
		return
	}
	r.install(target, "bootstrap")
	r.dispatch(nil)
}

// manageFleet allocates on-demand instances toward the proposal when
// allowed. Unlike SpotServe it never releases any.
func (r *Reparallel) manageFleet(prop reconfig.Proposal) {
	if !r.opts.Features.AllowOnDemand {
		return
	}
	if have := r.fleetGPUs(); prop.WantGPUs > have {
		r.stats.OnDemandAllocated += len(r.cloud.AllocOnDemandGPUs(prop.WantGPUs - have))
	}
}

// install binds the configuration over the usable GPUs in ID order (no
// device mapping — contexts are rebuilt from storage anyway).
func (r *Reparallel) install(cfg config.Config, reason string) {
	gpus := r.usableGPUs()
	r.cfg = cfg
	r.pipes = make([]*engine.Pipeline, cfg.D)
	i := 0
	for d := range r.pipes {
		bind := map[config.Position]*cloud.GPU{}
		for p := 0; p < cfg.P; p++ {
			for m := 0; m < cfg.M; m++ {
				bind[config.Position{D: d, P: p, M: m}] = gpus[i]
				i++
			}
		}
		r.pipes[d] = r.newPipeline(d, cfg, bind)
	}
	r.stats.ConfigLog = append(r.stats.ConfigLog, ConfigChange{At: r.sim.Now(), Config: cfg, Reason: reason})
}

// restart aborts everything and re-initializes the whole deployment: the
// defining cost of this baseline. Interrupted requests lose all progress.
func (r *Reparallel) restart(reason string) {
	r.epoch++
	epoch := r.epoch
	var requeue []*engine.RequestState
	for _, pipe := range r.pipes {
		if pipe.Busy() {
			requeue = restartInto(requeue, pipe.Abort())
		}
	}
	r.queue = append(requeue, r.queue...)
	r.pipes = nil
	r.cfg = config.Zero
	r.restarting = true

	prop := r.propose()
	r.manageFleet(prop)
	target := prop.Config
	if n := r.usableGPUCount(); target.GPUs() > n {
		target = reconfig.FitToInstances(target, n)
	}
	if target.IsZero() {
		r.restarting = false
		return
	}
	r.stats.Reloads++
	r.sim.After(r.est.ReloadTime(target.P, target.M), func() {
		if epoch != r.epoch {
			return
		}
		r.restarting = false
		tgt := target
		if n := r.usableGPUCount(); tgt.GPUs() > n {
			tgt = reconfig.FitToInstances(tgt, n)
		}
		if tgt.IsZero() {
			return
		}
		r.install(tgt, reason)
		r.dispatch(nil)
	})
}

// workloadCheck restarts when the configuration's modelled throughput falls
// short of BaseRate (SpotServe's monitor compares φ(C) with its observed
// α_t instead).
func (r *Reparallel) workloadCheck() {
	if r.restarting || r.cfg.IsZero() {
		return
	}
	if r.est.Throughput(r.cfg, r.opts.SeqIn, r.opts.SeqOut) >= r.opts.BaseRate*0.98 {
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
	if prop.Config.GPUs() > r.usableGPUCount() {
		return
	}
	r.restart("acquisition")
}

// PreemptionNotice restarts at once: this baseline makes no use of the
// grace period.
func (e *reparallelEvents) PreemptionNotice(inst *cloud.Instance, deadline float64) {
	r := (*Reparallel)(e)
	r.dying[inst.ID] = true
	if r.stats.Latencies == nil {
		return
	}
	if !r.hosts(inst) && !r.cfg.IsZero() {
		return
	}
	r.restart("preemption")
}

func (e *reparallelEvents) InstanceTerminated(inst *cloud.Instance) {
	(*Reparallel)(e).terminated(inst)
}
