package core

import (
	"slices"

	"spotserve/internal/cloud"
	"spotserve/internal/config"
	"spotserve/internal/engine"
	"spotserve/internal/reconfig"
	"spotserve/internal/sim"
	"spotserve/internal/workload"
)

// Reroute is the request-rerouting baseline of §6.1 (MArk-style): a fixed
// pre-defined optimal model-parallel shape whose pipelines are independent.
// Preempting an instance kills the pipelines it hosts; their requests are
// rerouted to surviving pipelines and restarted from scratch. New instances
// spawn new pipelines after a full parameter load. Config returns the fixed
// per-pipeline shape (D = 1); the number of pipelines floats with
// availability.
type Reroute struct {
	shell
	// live lists every live pipeline, initializing ones included, in id
	// order. A pipeline joins the shell's serving table once its reload
	// finishes; every reload of the fixed shape takes the same time, so
	// pipelines join in id order.
	live []*engine.Pipeline
	// used marks GPUs held by live pipelines.
	used     map[int64]bool
	nextPipe int
}

// NewReroute builds the baseline. Its reconfiguration engine is only
// consulted once, for the shape.
func NewReroute(s *sim.Simulator, cl *cloud.Cloud, opts Options) *Reroute {
	r := &Reroute{used: map[int64]bool{}}
	r.setup(s, cl, opts, reconfig.Options{}, (*baselineHooks)(&r.shell))
	return r
}

// Install registers the server as the cloud's listener.
func (r *Reroute) Install() { r.cloud.SetListener((*rerouteEvents)(r)) }

// LoadWorkload schedules arrivals and the bootstrap, which chooses the
// fixed shape exactly as SpotServe would for the initial fleet. The
// baseline runs no workload monitor.
func (r *Reroute) LoadWorkload(reqs []workload.Request, horizon float64) {
	r.load(reqs, 0, func(*engine.RequestState) { r.dispatch(nil) }, nil, r.bootstrap)
}

func (r *Reroute) bootstrap() {
	n := r.usableGPUCount()
	prop := r.rc.Propose(r.request(r.opts.BaseRate, n, n))
	if prop.Config.IsZero() {
		return
	}
	r.cfg = config.Config{D: 1, P: prop.Config.P, M: prop.Config.M, B: prop.Config.B}
	r.stats.ConfigLog = append(r.stats.ConfigLog, ConfigChange{At: 0, Config: prop.Config, Reason: "bootstrap"})
	// Initial pipelines come up instantly (pre-deployed system).
	for r.spawnPipeline(true) {
	}
	r.dispatch(nil)
}

// freeGPUs lists running-instance GPUs not used by any pipeline.
func (r *Reroute) freeGPUs() []*cloud.GPU {
	var out []*cloud.GPU
	for _, inst := range r.cloud.Alive() {
		if inst.State != cloud.Running {
			continue
		}
		for _, g := range inst.GPUs {
			if !r.used[g.ID] {
				out = append(out, g)
			}
		}
	}
	return out
}

// spawnPipeline builds one new pipeline from free GPUs. Instant pipelines
// (bootstrap) serve immediately; otherwise the pipeline pays the full
// parameter-load initialization before serving. Returns false when there
// are not enough free GPUs.
func (r *Reroute) spawnPipeline(instant bool) bool {
	if r.cfg.IsZero() {
		return false
	}
	need := r.cfg.GPUsPerPipeline()
	free := r.freeGPUs()
	if len(free) < need {
		return false
	}
	id := r.nextPipe
	r.nextPipe++
	bind := map[config.Position]*cloud.GPU{}
	for i, g := range free[:need] {
		bind[config.Position{D: id, P: i / r.cfg.M, M: i % r.cfg.M}] = g
		r.used[g.ID] = true
	}
	pipe := r.newPipeline(id, r.cfg, bind)
	r.live = append(r.live, pipe)
	if instant {
		r.pipes = append(r.pipes, pipe)
		return true
	}
	r.stats.Reloads++
	r.sim.After(r.est.ReloadTime(r.cfg.P, r.cfg.M), func() {
		if !slices.Contains(r.live, pipe) {
			return // killed while initializing
		}
		r.pipes = append(r.pipes, pipe)
		r.dispatch(nil)
	})
	return true
}

// killPipelinesOn destroys pipelines touching the instance, rerouting and
// restarting their requests.
func (r *Reroute) killPipelinesOn(inst *cloud.Instance) {
	var requeue []*engine.RequestState
	live := r.live[:0]
	for _, p := range r.live {
		if !runsOn(p, inst) {
			live = append(live, p)
			continue
		}
		if p.Busy() {
			requeue = restartInto(requeue, p.Abort())
		}
		//detlint:allow maprange — set removal: each GPU's entry is deleted exactly once, and deletions commute
		for _, g := range p.GPUs {
			delete(r.used, g.ID)
		}
		if i := slices.Index(r.pipes, p); i >= 0 {
			r.pipes = slices.Delete(r.pipes, i, i+1)
		}
	}
	r.live = live
	// Rerouted requests go to the queue front (they arrived earliest).
	r.queue = append(requeue, r.queue...)
	r.dispatch(nil)
}

type rerouteEvents Reroute

func (e *rerouteEvents) InstanceReady(inst *cloud.Instance) {
	r := (*Reroute)(e)
	if r.stats.Latencies == nil {
		return
	}
	if r.cfg.IsZero() {
		if r.sim.Now() > 0 {
			r.bootstrap()
		}
		return
	}
	for r.spawnPipeline(false) {
	}
}

// PreemptionNotice is ignored: this reactive baseline leaves the grace
// period unused, so pipelines run until the instance actually disappears
// and then lose everything.
func (e *rerouteEvents) PreemptionNotice(inst *cloud.Instance, deadline float64) {}

func (e *rerouteEvents) InstanceTerminated(inst *cloud.Instance) {
	r := (*Reroute)(e)
	r.terminated(inst)
	if r.stats.Latencies == nil {
		return
	}
	r.killPipelinesOn(inst)
	// Freed partial instances may combine into a new pipeline.
	for r.spawnPipeline(false) {
	}
}
