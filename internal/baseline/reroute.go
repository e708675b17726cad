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

// Reroute is the request-rerouting baseline: a fixed pre-defined optimal
// model-parallel shape whose pipelines are independent. Preempting an
// instance kills the pipelines it hosts; their requests are rerouted to
// surviving pipelines and restarted from scratch. New instances spawn new
// pipelines after a full parameter load.
type Reroute struct {
	sim   *sim.Simulator
	cloud *cloud.Cloud
	est   *cost.Estimator
	eng   *engine.Engine
	rc    *reconfig.Engine
	opts  core.Options

	// shape is the fixed (P, M, B); D floats with availability.
	shape config.Config

	nextPipe int
	pipes    map[int]*reroutePipe
	queue    []*engine.RequestState
	// used marks GPUs consumed by live or initializing pipelines.
	used map[int64]bool

	stats core.Stats
}

type reroutePipe struct {
	id   int
	pipe *engine.Pipeline
	gpus []*cloud.GPU
	// initializing pipelines hold GPUs but serve nothing yet.
	initializing bool
}

// NewReroute builds the baseline.
func NewReroute(s *sim.Simulator, cl *cloud.Cloud, opts core.Options) *Reroute {
	est := cost.Shared(opts.CostParams, opts.Spec)
	r := &Reroute{
		sim:   s,
		cloud: cl,
		est:   est,
		rc:    baselineEngine(est, opts),
		opts:  opts,
		pipes: map[int]*reroutePipe{},
		used:  map[int64]bool{},
	}
	r.eng = engine.New(s, est, (*rerouteHooks)(r))
	r.eng.NoFastForward = opts.DisableFastForward
	return r
}

// Install registers the server as the cloud's listener.
func (r *Reroute) Install() { r.cloud.SetListener((*rerouteEvents)(r)) }

// Stats returns the serving outcome.
func (r *Reroute) Stats() core.Stats {
	st := r.stats
	st.CostUSD = r.cloud.CostUSD()
	if st.Latencies != nil {
		st.Latency = st.Latencies.Summarize()
	}
	st.ReconfigCache = r.rc.CacheStats()
	return st
}

// Shape returns the fixed parallel shape.
func (r *Reroute) Shape() config.Config { return r.shape }

// LoadWorkload schedules arrivals; the fixed shape is chosen at bootstrap
// exactly as SpotServe would for the initial fleet (fair comparison).
// Arrivals read reqs as they fire, so the caller must not modify it during
// the run.
func (r *Reroute) LoadWorkload(reqs []workload.Request, horizon float64) {
	if r.stats.Latencies == nil {
		r.stats.Latencies = &metrics.Latencies{}
	}
	r.stats.Submitted += len(reqs)
	r.sim.Series(len(reqs), func(i int) float64 { return reqs[i].At }, func(i int) {
		r.queue = append(r.queue, &engine.RequestState{Req: reqs[i]})
		r.dispatch()
	})
	r.sim.At(0, func() { r.bootstrap() })
}

func (r *Reroute) bootstrap() {
	// GPU-denominated fleet measure + speed/memory floors: mixed fleets
	// must not make the baseline plan for devices that do not exist.
	var gpus []*cloud.GPU
	for _, inst := range r.cloud.Alive() {
		if inst.State == cloud.Running {
			gpus = append(gpus, inst.GPUs...)
		}
	}
	prop := r.rc.Propose(reconfig.Request{
		Alpha:      r.opts.BaseRate,
		GPUsAvail:  len(gpus),
		MaxGPUs:    len(gpus),
		SpeedFloor: speedFloor(gpus),
		MemFloor:   memFloor(gpus),
	})
	if prop.Config.IsZero() {
		return
	}
	r.shape = config.Config{D: 1, P: prop.Config.P, M: prop.Config.M, B: prop.Config.B}
	r.stats.ConfigLog = append(r.stats.ConfigLog, core.ConfigChange{
		At: 0, Config: prop.Config, Reason: "bootstrap",
	})
	// Initial pipelines come up instantly (pre-deployed system).
	for r.spawnPipeline(true) {
	}
	r.dispatch()
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
	if r.shape.IsZero() {
		return false
	}
	need := r.shape.GPUsPerPipeline()
	free := r.freeGPUs()
	if len(free) < need {
		return false
	}
	gpus := free[:need]
	id := r.nextPipe
	r.nextPipe++
	bind := map[config.Position]*cloud.GPU{}
	i := 0
	for p := 0; p < r.shape.P; p++ {
		for m := 0; m < r.shape.M; m++ {
			bind[config.Position{D: id, P: p, M: m}] = gpus[i]
			i++
		}
	}
	cfg := r.shape
	cfg.D = 1
	pipe, err := r.eng.NewPipeline(id, cfg, bind)
	if err != nil {
		panic(err)
	}
	if slow := core.PipelineSlowdown(bind); slow != 1 {
		pipe.SetSlowdown(slow)
	}
	rp := &reroutePipe{id: id, pipe: pipe, gpus: gpus, initializing: !instant}
	r.pipes[id] = rp
	for _, g := range gpus {
		r.used[g.ID] = true
	}
	if !instant {
		r.stats.Reloads++
		delay := r.est.ReloadTime(r.shape.P, r.shape.M)
		r.sim.After(delay, func() {
			if r.pipes[id] != rp {
				return // killed while initializing
			}
			rp.initializing = false
			r.dispatch()
		})
	}
	return true
}

// killPipelinesOn destroys pipelines touching the instance, rerouting and
// restarting their requests.
func (r *Reroute) killPipelinesOn(inst *cloud.Instance) {
	var requeue []*engine.RequestState
	ids := make([]int, 0, len(r.pipes))
	for id := range r.pipes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		rp := r.pipes[id]
		hit := false
		for _, g := range rp.gpus {
			if g.Inst.ID == inst.ID {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		if rp.pipe.Busy() {
			b := rp.pipe.Abort()
			for _, q := range b.Requests {
				if q.Done() {
					continue
				}
				q.Committed = 0
				q.Restarts++
				requeue = append(requeue, q)
			}
		}
		for _, g := range rp.gpus {
			delete(r.used, g.ID)
		}
		delete(r.pipes, id)
	}
	// Rerouted requests go to the queue front (they arrived earliest).
	r.queue = append(requeue, r.queue...)
	r.dispatch()
}

func (r *Reroute) dispatch() {
	ids := make([]int, 0, len(r.pipes))
	for id := range r.pipes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		rp := r.pipes[id]
		if rp.initializing || rp.pipe.Busy() || len(r.queue) == 0 {
			continue
		}
		n := r.shape.B
		if n > len(r.queue) {
			n = len(r.queue)
		}
		b := &engine.Batch{Requests: r.queue[:n]}
		r.queue = append([]*engine.RequestState(nil), r.queue[n:]...)
		rp.pipe.Start(b)
	}
}

type rerouteEvents Reroute

func (e *rerouteEvents) InstanceReady(inst *cloud.Instance) {
	r := (*Reroute)(e)
	if r.stats.Latencies == nil {
		return
	}
	if r.shape.IsZero() {
		if r.sim.Now() > 0 {
			r.bootstrap()
		}
		return
	}
	for r.spawnPipeline(false) {
	}
}

func (e *rerouteEvents) PreemptionNotice(inst *cloud.Instance, deadline float64) {
	// Reactive baseline: the grace period is unused; pipelines run until
	// the instance actually disappears and then lose everything.
}

func (e *rerouteEvents) InstanceTerminated(inst *cloud.Instance) {
	r := (*Reroute)(e)
	for _, g := range inst.GPUs {
		r.eng.DropDaemon(g.ID)
	}
	if r.stats.Latencies == nil {
		return
	}
	r.killPipelinesOn(inst)
	// Freed partial instances may combine into a new pipeline.
	for r.spawnPipeline(false) {
	}
}

type rerouteHooks Reroute

// AllowFastForward opts into fast-forward: rerouting never pauses
// through IterationDone (dead pipelines are aborted), so every run may
// batch its iteration commits.
func (h *rerouteHooks) AllowFastForward(p *engine.Pipeline) bool { return true }

func (h *rerouteHooks) IterationDone(p *engine.Pipeline) bool { return true }

func (h *rerouteHooks) RequestDone(p *engine.Pipeline, q *engine.RequestState) {
	r := (*Reroute)(h)
	r.stats.Completed++
	r.stats.Latencies.Add(q.DoneAt - q.Req.At)
	r.stats.PerRequest.Add(q.Req.At, q.DoneAt-q.Req.At)
}

func (h *rerouteHooks) BatchDone(p *engine.Pipeline) {
	(*Reroute)(h).dispatch()
}

func (h *rerouteHooks) BatchPaused(p *engine.Pipeline, b *engine.Batch) {}
