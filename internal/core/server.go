// Package core implements SpotServe's control plane: the inference server
// (request manager, instance manager, meta-context manager — Figure 3), the
// interruption arranger with stateful inference recovery (§4), and the
// orchestration that drives the reconfiguration pipeline of
// internal/reconfig (optimizer §3.2, device mapper §3.3, migration planner
// §3.4) end to end. The two comparison systems of §6.1, Reparallel and
// Reroute, run on the same serving shell (shell.go) as the server.
package core

import (
	"fmt"
	"math"
	"sort"

	"spotserve/internal/cloud"
	"spotserve/internal/config"
	"spotserve/internal/cost"
	"spotserve/internal/engine"
	"spotserve/internal/metrics"
	"spotserve/internal/model"
	"spotserve/internal/predict"
	"spotserve/internal/reconfig"
	"spotserve/internal/sim"
	"spotserve/internal/workload"
)

// Features toggles SpotServe's optimizations, enabling the Figure 9
// ablation study. All-true is the full system.
type Features struct {
	// Controller enables the adaptive configuration optimizer
	// (Algorithm 1); disabled, the server keeps its initial shape and
	// only adjusts the data-parallel degree to fit the fleet.
	Controller bool
	// DeviceMapper enables KM matching; disabled, GPUs are bound to
	// positions in arbitrary order (model context still maintained).
	DeviceMapper bool
	// Hierarchical enables two-step intra-/inter-instance matching.
	Hierarchical bool
	// MigrationPlanner enables the progressive, memory-optimized plan of
	// Algorithm 2; disabled, migration is blocking with the naive order
	// and the naive (2× resident) buffer memory model.
	MigrationPlanner bool
	// Arranger enables JIT interruption arrangement and cache-context
	// migration (stateful inference recovery, §4); disabled, pipelines
	// stop immediately on notice and interrupted requests recompute.
	Arranger bool
	// AllowOnDemand lets Algorithm 1 allocate on-demand instances when
	// spot capacity is insufficient (the +O traces).
	AllowOnDemand bool
	// AdaptivePool sizes the candidate pool from an online availability
	// predictor instead of the fixed reserve of §3.2 — the §8
	// future-work direction (instance availability prediction).
	AdaptivePool bool
}

// AllFeatures returns the full SpotServe system.
func AllFeatures() Features {
	return Features{
		Controller:       true,
		DeviceMapper:     true,
		Hierarchical:     true,
		MigrationPlanner: true,
		Arranger:         true,
	}
}

// Options configures a Server.
type Options struct {
	Spec       model.Spec
	CostParams cost.Params
	Limits     config.Limits
	Features   Features
	// SeqIn/SeqOut are the workload sequence lengths.
	SeqIn, SeqOut int
	// AlphaWindow is the look-back window for estimating the arrival
	// rate α_t ("we estimate α_t by observing the request arrivals
	// within a short past duration (e.g., 30 s)").
	AlphaWindow float64
	// CheckInterval is how often the workload monitor re-evaluates the
	// configuration.
	CheckInterval float64
	// MaxInstances caps the fleet (provider capacity).
	MaxInstances int
	// BaseRate seeds the α estimate before enough arrivals are observed.
	BaseRate float64
	// SLOLatency forwards to the optimizer (0 = latency minimization).
	SLOLatency float64
	// Autoscaler, when non-nil, overrides the fixed fleet target of
	// Algorithm 1: it is consulted with a cloud.FleetView on preemption
	// and ready events and at each workload check, and its answer replaces
	// the optimizer's WantInstances (clamped to [0, MaxInstances]).
	Autoscaler cloud.Autoscaler
	// DisableFastForward forces the engine into one-event-per-iteration
	// execution (the reference mode; results are byte-identical either
	// way, fast-forward is just cheaper).
	DisableFastForward bool
	// DisableReconfigCache forces the reconfiguration pipeline down its
	// cold recompute path (the reference mode; results are byte-identical
	// either way, the cache is just cheaper — mirroring fast-forward).
	DisableReconfigCache bool
}

// DefaultOptions fills the paper's defaults for a model.
func DefaultOptions(spec model.Spec) Options {
	return Options{
		Spec:          spec,
		CostParams:    cost.DefaultParams(),
		Limits:        config.DefaultLimits(),
		Features:      AllFeatures(),
		SeqIn:         cost.DefaultSeqIn,
		SeqOut:        cost.DefaultSeqOut,
		AlphaWindow:   30,
		CheckInterval: 30,
		MaxInstances:  12,
		BaseRate:      workload.DefaultRates()[spec.Name],
	}
}

// ConfigChange records one reconfiguration for the Figure 8 timeline.
type ConfigChange struct {
	At     float64
	Config config.Config
	Reason string
}

// Stats is the serving outcome of one run.
type Stats struct {
	Submitted, Completed int
	Latency              metrics.Summary
	Latencies            *metrics.Latencies
	CostUSD              float64
	// PerRequest holds (arrival time, end-to-end latency) samples.
	PerRequest metrics.Series
	ConfigLog  []ConfigChange
	// Migrations counts context migrations; Reloads counts full restarts
	// from storage; CacheGiveUps counts fault-tolerance cache drops.
	Migrations, Reloads, CacheGiveUps int
	// TokensRecovered counts committed tokens carried across migrations
	// by stateful recovery.
	TokensRecovered int
	// OnDemandAllocated counts on-demand instance allocations.
	OnDemandAllocated int
	// ReconfigCache reports the reconfiguration engine's memo
	// effectiveness. Deliberately excluded from result fingerprints:
	// cache hits never change results, only how they are computed.
	ReconfigCache reconfig.CacheStats
}

// Server is SpotServe's inference server: request manager, instance
// manager and meta-context manager over one model deployment (Figure 3).
type Server struct {
	shell
	arr *Arranger

	// initialShape remembers the boot configuration for the
	// controller-ablated mode.
	initialShape config.Config

	recovered map[int]*engine.Batch // new pipeline id → batch to resume

	arrivals []float64

	// meshCtx and usableCtx are the reusable deviceContexts snapshots of
	// the mesh candidates (Map's input) and of every usable GPU, grace
	// period included (Plan's sources).
	meshCtx, usableCtx []reconfig.DeviceContext

	// reconfiguration state
	pendingReconfig bool
	reconfigReason  string
	stopBudget      map[int]float64 // pipeline id → latest decode time
	migrating       bool
	epoch           int

	// pred forecasts preemption pressure for the adaptive pool.
	pred *predict.Predictor

	// noticeLog records preemption-notice times for the autoscaler's
	// look-back window.
	noticeLog []float64
	// latLog records (completion time, latency) for the autoscaler's
	// recent-p99 signal; like noticeLog it is only maintained when a
	// policy is configured to read it (wantSignals).
	latLog []metrics.Sample
	// wantSignals caches whether the configured policy implements
	// cloud.SignalConsumer — counters-only policies skip the signal
	// computation entirely.
	wantSignals bool
}

// NewServer wires a server to a simulator and cloud. Call Install as the
// cloud's listener before running.
func NewServer(s *sim.Simulator, cl *cloud.Cloud, opts Options) *Server {
	srv := &Server{
		recovered:  map[int]*engine.Batch{},
		stopBudget: map[int]float64{},
	}
	srv.setup(s, cl, opts, reconfig.Options{
		NaiveBuffer:  !opts.Features.MigrationPlanner,
		SLOLatency:   opts.SLOLatency,
		UseKM:        opts.Features.DeviceMapper,
		Hierarchical: opts.Features.Hierarchical,
		Progressive:  opts.Features.MigrationPlanner,
		MemOpt:       opts.Features.MigrationPlanner,
		UmaxBytes:    opts.CostParams.BufMaxBytes,
		MigrateCache: opts.Features.Arranger,
	}, (*serverHooks)(srv))
	srv.arr = &Arranger{Est: srv.est, Enabled: opts.Features.Arranger}
	_, srv.wantSignals = opts.Autoscaler.(cloud.SignalConsumer)
	if opts.Features.AdaptivePool {
		p, err := predict.New(predict.DefaultOptions())
		if err != nil {
			panic(err)
		}
		srv.pred = p
	}
	return srv
}

// LoadWorkload schedules request arrivals and the workload monitor. The
// monitor ticks through a drain window of 1800 s past the horizon, so a
// poor configuration chosen near the horizon still gets corrected.
func (s *Server) LoadWorkload(reqs []workload.Request, horizon float64) {
	s.load(reqs, horizon+1800, s.arrived, s.workloadCheck, s.bootstrap)
}

// arrived records a queued arrival for the α_t estimate and dispatches it.
func (s *Server) arrived(r *engine.RequestState) {
	s.arrivals = append(s.arrivals, r.Req.At)
	s.tryDispatch()
}

// backlogDrainTarget is how quickly the optimizer should aim to drain a
// standing queue, in seconds. Queued requests translate into extra
// required throughput.
const backlogDrainTarget = 120.0

// alphaT estimates the required serving rate: the observed arrival rate
// over the look-back window, floored at the configured base rate (bursty
// CV=6 arrivals make short windows wildly noisy), plus backlog pressure so
// that a standing queue forces a higher-throughput configuration.
func (s *Server) alphaT() float64 {
	now := s.sim.Now()
	w := s.opts.AlphaWindow
	if now < w {
		w = now
	}
	observed := 0.0
	if w > 0 {
		n := 0
		for i := len(s.arrivals) - 1; i >= 0; i-- {
			if s.arrivals[i] < now-w {
				break
			}
			n++
		}
		observed = float64(n) / w
	}
	if observed < s.opts.BaseRate {
		observed = s.opts.BaseRate
	}
	return observed + float64(len(s.queue))/backlogDrainTarget
}

// deviceContexts snapshots daemon contexts for the given GPUs into *buf,
// reusing its storage. A snapshot is valid until the next call with the
// same buffer; reconfig reads one only during the Map or Plan call it is
// passed to.
func (s *Server) deviceContexts(buf *[]reconfig.DeviceContext, gpus []*cloud.GPU) []reconfig.DeviceContext {
	out := (*buf)[:0]
	for _, g := range gpus {
		d := s.eng.Daemon(g)
		out = append(out, reconfig.DeviceContext{
			GPU:           g,
			ModelCtx:      d.ModelCtx,
			CachePipeline: d.CachePipeline,
			CacheRect:     d.CacheRect,
			CacheTokens:   d.CacheTokens,
		})
	}
	*buf = out
	return out
}

// bootstrap installs the initial deployment at t=0 with contexts already
// resident (the evaluation starts from an initialized system, §6.3).
func (s *Server) bootstrap() {
	if !s.cfg.IsZero() {
		return
	}
	n := s.usableGPUCount()
	prop := s.propose(n)
	// Grow the fleet toward the unbounded proposal (on-demand mixing),
	// but deploy what fits right now.
	s.manageFleet(prop)
	target := prop.Config
	if target.GPUs() > n {
		if s.opts.Features.Controller {
			target = s.optimize(s.alphaT(), n, n).Config
		} else {
			target = reconfig.FitToInstances(target, n)
		}
	}
	if target.IsZero() || target.GPUs() > n {
		return
	}
	s.initialShape = target
	s.installConfig(target, nil, "bootstrap")
	s.tryDispatch()
}

// optimize runs the configuration optimizer on the usable fleet's request.
// With the adaptive pool, expected near-term preemptions translate into
// extra standby instances.
func (s *Server) optimize(alpha float64, gpus, maxGPUs int) reconfig.Proposal {
	req := s.request(alpha, gpus, maxGPUs)
	if s.pred != nil {
		req.ReservePool = s.pred.RecommendedPool(s.sim.Now(), 2)
	}
	return s.rc.Propose(req)
}

// propose runs the configuration optimizer over the currently usable GPU
// count. Measuring the fleet in GPUs (not instances) keeps mixed fleets —
// where instance types carry different device counts — planned correctly;
// on homogeneous fleets the arithmetic is identical to the historical
// instance-denominated path.
func (s *Server) propose(gpus int) reconfig.Proposal {
	alpha := s.alphaT()
	gpi := s.opts.CostParams.GPUsPerInstance
	if !s.opts.Features.Controller && !s.initialShape.IsZero() {
		// No optimizer run, but the throughput monitor still reads φ(C)
		// through the engine — keep its fleet floors current.
		optz, req := s.rc.Optimizer(), s.request(alpha, gpus, gpus)
		optz.SpeedFloor, optz.MemFloor = req.SpeedFloor, req.MemFloor
		c := reconfig.FitToInstances(s.initialShape, gpus)
		return reconfig.Proposal{Config: c, WantInstances: gpus / gpi, WantGPUs: gpus}
	}
	if s.opts.Features.AllowOnDemand {
		return s.optimize(alpha, gpus, s.opts.MaxInstances*gpi)
	}
	return s.optimize(alpha, gpus, gpus)
}

// preemptionWindow is the look-back over which the autoscaler's
// RecentPreemptions signal counts notices.
const preemptionWindow = 120.0

// recentPreemptions counts preemption notices inside the look-back window,
// pruning expired entries.
func (s *Server) recentPreemptions() int {
	cutoff := s.sim.Now() - preemptionWindow
	i := 0
	for i < len(s.noticeLog) && s.noticeLog[i] < cutoff {
		i++
	}
	s.noticeLog = s.noticeLog[i:]
	return len(s.noticeLog)
}

// latencyWindow is the look-back over which the autoscaler's RecentP99
// signal summarizes completed requests.
const latencyWindow = 120.0

// recentP99 returns the p99 latency over completions inside the look-back
// window, pruning expired entries (nearest-rank, like metrics.Latencies).
func (s *Server) recentP99() float64 {
	cutoff := s.sim.Now() - latencyWindow
	i := 0
	for i < len(s.latLog) && s.latLog[i].At < cutoff {
		i++
	}
	s.latLog = s.latLog[i:]
	if len(s.latLog) == 0 {
		return 0
	}
	vals := make([]float64, len(s.latLog))
	for j, x := range s.latLog {
		vals[j] = x.Value
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(0.99 * float64(len(vals))))
	if rank < 1 {
		rank = 1
	}
	return vals[rank-1]
}

// fleetTarget resolves the fleet-size target for a proposal: the
// optimizer's own WantInstances under the fixed-target policy, or the
// configured autoscaler's answer (clamped to provider capacity).
func (s *Server) fleetTarget(prop reconfig.Proposal, spot, pSpot, od, pOD int) int {
	if s.opts.Autoscaler == nil {
		return prop.WantInstances
	}
	v := cloud.FleetView{
		Now:               s.sim.Now(),
		SpotRunning:       spot,
		SpotPending:       pSpot,
		OnDemandRunning:   od,
		OnDemandPending:   pOD,
		Dying:             len(s.dying),
		QueueDepth:        len(s.queue),
		Want:              prop.WantInstances,
		RecentPreemptions: s.recentPreemptions(),
	}
	if s.wantSignals {
		if !s.cfg.IsZero() {
			v.Phi = s.rc.Phi(s.cfg)
			if gpi := s.opts.CostParams.GPUsPerInstance; gpi > 0 {
				if n := (s.cfg.GPUs() + gpi - 1) / gpi; n > 0 {
					v.PhiPerInstance = v.Phi / float64(n)
				}
			}
		}
		v.Alpha = s.alphaT()
		v.RecentP99 = s.recentP99()
		v.SpendUSDPerHour = s.cloud.SpendUSDPerHour()
	}
	want := s.opts.Autoscaler.Target(v)
	if want < 0 {
		want = 0
	}
	if want > s.opts.MaxInstances {
		want = s.opts.MaxInstances
	}
	return want
}

// manageFleet allocates or releases instances toward the proposal
// (Algorithm 1 lines 6–10): allocate on-demand when allowed, free
// on-demand first, and keep the reserve pool. The comparison is
// GPU-denominated so mixed fleets grow to the devices the configuration
// actually needs; on homogeneous fleets the arithmetic reduces exactly to
// the historical instance counting. A configured autoscaling policy
// replaces the proposal's fixed target.
func (s *Server) manageFleet(prop reconfig.Proposal) {
	gpi := s.opts.CostParams.GPUsPerInstance
	haveGPUs := s.fleetGPUs()
	wantGPUs := prop.WantGPUs
	if s.opts.Autoscaler != nil {
		// Policies reason in instances (the FleetView vocabulary); their
		// answer is applied as a delta over the optimizer's own target,
		// converted at the primary type's GPU count. A policy that
		// returns Want unchanged (fixed-target) is therefore exactly the
		// no-policy baseline, on homogeneous and mixed fleets alike.
		spot, od := s.cloud.AliveCount()
		pSpot, pOD := s.cloud.PendingCount()
		extra := s.fleetTarget(prop, spot, pSpot, od, pOD) - prop.WantInstances
		wantGPUs += extra * gpi
		if wantGPUs < 0 {
			wantGPUs = 0
		}
		if lim := s.opts.MaxInstances * gpi; wantGPUs > lim {
			wantGPUs = lim
		}
	}
	switch {
	case wantGPUs > haveGPUs && s.opts.Features.AllowOnDemand:
		// Typed allocation covers the GPU deficit with non-primary-type
		// fallback for the tail (exactly ceil(deficit/gpi) primary
		// instances on homogeneous fleets).
		s.stats.OnDemandAllocated += len(s.cloud.AllocOnDemandGPUs(wantGPUs - haveGPUs))
	case wantGPUs < haveGPUs:
		// Free surplus on-demand instances (never spot: their
		// availability is the market's, and they are the cheap ones).
		for _, inst := range s.cloud.Alive() {
			if haveGPUs-len(inst.GPUs) < wantGPUs {
				break
			}
			if inst.Kind != cloud.OnDemand || s.dying[inst.ID] {
				continue
			}
			if s.hosts(inst) {
				continue
			}
			s.cloud.Release(inst)
			haveGPUs -= len(inst.GPUs)
		}
	}
}

// installConfig binds cfg over the current usable GPUs with the given
// stage-ready schedule (nil = ready now) and rebuilds pipelines. Contexts
// on the daemons are set to their new rectangles.
func (s *Server) installConfig(cfg config.Config, ready []float64, reason string) {
	gpus := s.usableGPUs()
	devs := s.deviceContexts(&s.meshCtx, gpus)
	mapping, err := s.rc.Map(devs, cfg, nil)
	if err != nil {
		// Not enough GPUs — should have been prevented by the caller.
		panic(fmt.Sprintf("core: installConfig: %v", err))
	}
	s.applyMapping(cfg, mapping, ready, reason)
}

// applyMapping installs an already-computed mapping.
func (s *Server) applyMapping(cfg config.Config, mapping reconfig.Mapping, ready []float64, reason string) {
	s.cfg = cfg
	s.pipes = make([]*engine.Pipeline, cfg.D)
	now := s.sim.Now()
	for d := range s.pipes {
		bind := map[config.Position]*cloud.GPU{}
		for p := 0; p < cfg.P; p++ {
			for m := 0; m < cfg.M; m++ {
				pos := config.Position{D: d, P: p, M: m}
				bind[pos] = mapping.Assign[pos]
			}
		}
		pipe := s.newPipeline(d, cfg, bind)
		for p, t := range ready {
			pipe.SetStageReady(p, t)
		}
		s.pipes[d] = pipe
	}
	// Daemons now hold their new model context.
	//detlint:allow maprange — each Assign entry names a distinct GPU, so the per-daemon ModelCtx writes are disjoint; no order can change the final state
	for pos, g := range mapping.Assign {
		d := s.eng.Daemon(g)
		d.ModelCtx = model.PositionRect(s.opts.Spec, cfg.P, cfg.M, pos.P, pos.M)
	}
	s.stats.ConfigLog = append(s.stats.ConfigLog, ConfigChange{At: now, Config: cfg, Reason: reason})
}

// tryDispatch feeds idle pipelines outside a reconfiguration: recovered
// batches first (they resume on their inheriting pipeline), then fresh
// batches from the queue.
func (s *Server) tryDispatch() {
	if s.pendingReconfig || s.migrating {
		return
	}
	s.dispatch(s.recovered)
}

// workloadCheck is the periodic monitor. Per §3.2 the optimizer "mainly
// works when the current serving capability is not compatible with α_t":
// reconfiguration triggers on overload (φ(C) below the observed rate) or on
// clear over-provisioning, never on burst noise.
func (s *Server) workloadCheck() {
	if s.pendingReconfig || s.migrating || s.cfg.IsZero() {
		return
	}
	alpha := s.alphaT()
	phiCur := s.rc.Phi(s.cfg)
	overload := phiCur < alpha*0.98
	overProvisioned := alpha > 0 && phiCur > alpha*2.5
	if !overload && !overProvisioned {
		return
	}
	prop := s.propose(s.usableGPUCount())
	s.manageFleet(prop)
	if prop.Config.IsZero() || prop.Config == s.cfg {
		return
	}
	if overProvisioned && prop.Config.GPUs() >= s.cfg.GPUs() {
		return // shrinking was the point
	}
	if prop.Config.GPUs() > s.usableGPUCount() {
		// Growth waits for instance acquisition (InstanceReady).
		return
	}
	s.beginReconfig(prop.Config, "workload", 0)
}

// beginReconfig starts a configuration update: pipelines run until their
// JIT budgets, then context migration executes. deadline > 0 carries the
// earliest preemption deadline driving the budget.
func (s *Server) beginReconfig(target config.Config, reason string, deadline float64) {
	s.epoch++
	s.pendingReconfig = true
	s.reconfigReason = reason
	s.stopBudget = map[int]float64{}

	now := s.sim.Now()
	budget := now
	if deadline > 0 && s.opts.Features.Arranger {
		// Estimate T_mig to size the JIT budget: plan against the target
		// now. Only the preemption path pays for the estimate — other
		// reconfiguration reasons never read it — and the mapping/plan it
		// computes seed the cache the real migration reuses after the
		// drain.
		tMig := s.estimateMigration(target)
		budget = s.arr.PreemptionBudget(deadline, tMig)
		if budget < now {
			budget = now
		}
	}
	anyBusy := false
	// Id order: interrupting a fast-forward run reschedules its boundary
	// event, and event scheduling order must be deterministic.
	for _, pipe := range s.pipes {
		if !pipe.Busy() {
			continue
		}
		anyBusy = true
		s.stopBudget[pipe.ID] = budget
		if !s.opts.Features.Arranger || budget <= now {
			pipe.RequestStop()
		} else {
			// The JIT arranger now needs to see every iteration boundary;
			// demote any in-flight fast-forward run to stepping.
			pipe.Interrupt()
		}
	}
	if !anyBusy {
		s.executeMigration(target)
	}
	// Failsafe: if pipelines have not stopped by the budget (an
	// iteration misestimate), force the boundary stop.
	if anyBusy && budget > now {
		epoch := s.epoch
		s.sim.At(budget, func() {
			if epoch != s.epoch || !s.pendingReconfig {
				return
			}
			s.stopAllPipelines()
		})
	}
}

// estimateMigration predicts the migration duration for a target config
// from the current contexts (used to size JIT budgets).
func (s *Server) estimateMigration(target config.Config) float64 {
	gpus := s.usableGPUs()
	if target.IsZero() || target.GPUs() > len(gpus) {
		return 0
	}
	devs := s.deviceContexts(&s.meshCtx, gpus)
	mapping, err := s.rc.Map(devs, target, nil)
	if err != nil {
		return 0
	}
	all := s.deviceContexts(&s.usableCtx, s.cloud.UsableGPUs())
	plan, err := s.rc.Plan(all, mapping, nil)
	if err != nil {
		return 0
	}
	return plan.Schedule(s.est, s.opts.Features.MigrationPlanner).Duration
}

// stopAllPipelines requests a boundary stop on every busy pipeline in
// deterministic order (stops may reschedule fast-forward boundary events).
func (s *Server) stopAllPipelines() {
	for _, pipe := range s.pipes {
		if pipe.Busy() {
			pipe.RequestStop()
		}
	}
}

// pipelinesIdle reports whether every pipeline stopped decoding.
func (s *Server) pipelinesIdle() bool {
	for _, pipe := range s.pipes {
		if pipe.Busy() {
			return false
		}
	}
	return true
}

// executeMigration performs the context migration to `target` (recomputed
// against the live fleet), resuming recovered batches afterwards.
func (s *Server) executeMigration(target config.Config) {
	s.pendingReconfig = false
	gpus := s.usableGPUs()
	gpuBudget := len(gpus)
	if target.IsZero() || target.GPUs() > gpuBudget {
		// The fleet shrank since the proposal; re-propose.
		prop := s.propose(gpuBudget)
		target = prop.Config
		if target.IsZero() || target.GPUs() > gpuBudget {
			// Nothing can serve; park everything in the queue.
			s.parkAllBatches()
			s.cfg = config.Zero
			s.pipes = nil
			return
		}
	}

	// 1. Collect interrupted batches and decide which keep their cache
	//    (§3.3 discard rule + §4.1 reroute-vs-migrate).
	kept, inherit := s.collectBatches(target)

	// 2. Device mapping (KM) over surviving GPUs.
	devs := s.deviceContexts(&s.meshCtx, gpus)
	mapping, err := s.rc.Map(devs, target, inherit)
	if err != nil {
		panic(fmt.Sprintf("core: executeMigration: %v", err))
	}

	// 3. Migration plan: sources include grace-period instances.
	all := s.deviceContexts(&s.usableCtx, s.cloud.UsableGPUs())
	plan, err := s.rc.Plan(all, mapping, inherit)
	if err != nil {
		panic(fmt.Sprintf("core: planMigration: %v", err))
	}
	tl := plan.Schedule(s.est, s.opts.Features.MigrationPlanner)
	if plan.StorageBytes > 0 {
		s.stats.Reloads++
		// Cold shards pay the engine init alongside the load.
		grow := s.opts.CostParams.EngineInitTime
		for i := range tl.StageReady {
			tl.StageReady[i] += grow
		}
		tl.Duration += grow
	} else {
		s.stats.Migrations++
	}

	// 4. Install the new configuration with progressive stage readiness.
	now := s.sim.Now()
	ready := make([]float64, target.P)
	for p := range ready {
		ready[p] = now + tl.StageReady[p]
	}
	s.migrating = true
	s.applyMapping(target, mapping, ready, s.reconfigReason)

	// 5. Recovered batches resume once their cache has arrived.
	s.recovered = kept
	epoch := s.epoch
	s.sim.At(now+tl.CacheDone, func() {
		if epoch != s.epoch {
			return
		}
		s.migrating = false
		s.tryDispatch()
	})
}

// collectBatches drains paused/idle batches from the old pipelines,
// deciding which batches keep their KV cache. It returns the batches keyed
// by their new pipeline index and the inheritance map.
func (s *Server) collectBatches(target config.Config) (map[int]*engine.Batch, map[int]int) {
	paused := map[int]*engine.Batch{}
	progress := map[int]int{}
	// Id order, so aborts — which mutate engine state — happen in a fixed
	// sequence.
	for _, pipe := range s.pipes {
		var b *engine.Batch
		if pipe.Busy() {
			b = pipe.Abort() // only sub-iteration work is lost
		} else if rb, ok := s.recovered[pipe.ID]; ok {
			b = rb
		}
		if b == nil || b.Size() == 0 {
			continue
		}
		paused[pipe.ID] = b
		progress[pipe.ID] = b.Progress()
	}
	s.recovered = map[int]*engine.Batch{}

	keepIDs := reconfig.KeepBatches(progress, target.D)
	keepSet := map[int]bool{}
	for _, id := range keepIDs {
		keepSet[id] = true
	}

	kept := map[int]*engine.Batch{}
	inherit := map[int]int{}
	newD := 0
	for _, oldD := range keepIDs {
		b := paused[oldD]
		// Reroute-vs-migrate: small progress is cheaper to recompute.
		cacheMig := s.est.TransferTime(cacheBytesOf(s.opts.Spec, b), true)
		if !s.arr.CacheWorthMigrating(s.cfg, max(b.Size(), 1), s.opts.SeqIn, b.MinCommitted(), cacheMig) {
			keepSet[oldD] = false
			continue
		}
		kept[newD] = b
		inherit[newD] = oldD
		s.stats.TokensRecovered += b.Progress()
		newD++
	}
	// Discarded batches restart from scratch at the queue front, in id
	// order.
	var requeue []*engine.RequestState
	for _, pipe := range s.pipes {
		if b, ok := paused[pipe.ID]; ok && !keepSet[pipe.ID] {
			s.stats.CacheGiveUps++
			requeue = restartInto(requeue, b)
		}
	}
	s.queue = append(requeue, s.queue...)
	return kept, inherit
}

// cacheBytesOf is the full KV footprint of a batch.
func cacheBytesOf(spec model.Spec, b *engine.Batch) float64 {
	return float64(b.TotalTokens()) * spec.KVBytesPerToken()
}

// parkAllBatches aborts everything and requeues requests (no capacity).
func (s *Server) parkAllBatches() {
	var requeue []*engine.RequestState
	for _, pipe := range s.pipes {
		var b *engine.Batch
		if pipe.Busy() {
			b = pipe.Abort()
		} else if rb, ok := s.recovered[pipe.ID]; ok {
			b = rb
		}
		if b == nil {
			continue
		}
		for _, r := range b.Requests {
			if !r.Done() {
				requeue = append(requeue, r)
			}
		}
	}
	s.recovered = map[int]*engine.Batch{}
	s.queue = append(requeue, s.queue...)
}

// --- cloud.Listener ----------------------------------------------------

// Install registers the server as the cloud's listener.
func (s *Server) Install() { s.cloud.SetListener((*cloudEvents)(s)) }

type cloudEvents Server

func (c *cloudEvents) InstanceReady(inst *cloud.Instance) {
	s := (*Server)(c)
	if s.pred != nil && s.sim.Now() > 0 {
		s.pred.ObserveAcquisition(s.sim.Now(), 1)
	}
	if s.stats.Latencies == nil {
		return // not serving yet
	}
	if s.cfg.IsZero() {
		if s.sim.Now() == 0 {
			// The very first fleet: contexts are pre-deployed.
			s.bootstrap()
			s.tryDispatch()
			return
		}
		// Capacity returning after a total outage: a real cold start —
		// the reconfiguration will load parameters from storage.
		prop := s.propose(s.usableGPUCount())
		if !prop.Config.IsZero() && prop.Config.GPUs() <= s.usableGPUCount() {
			s.beginReconfig(prop.Config, "recovery", 0)
		}
		return
	}
	// Acquisition path: join at readiness (§4.1) — reconfigure now.
	if s.pendingReconfig || s.migrating {
		return // will be folded into the in-flight reconfiguration
	}
	prop := s.propose(s.usableGPUCount())
	if prop.Config.IsZero() || prop.Config.GPUs() > s.usableGPUCount() {
		return
	}
	if prop.Config == s.cfg {
		return // pool instance; keep as candidate
	}
	s.beginReconfig(prop.Config, "acquisition", 0)
}

func (c *cloudEvents) PreemptionNotice(inst *cloud.Instance, deadline float64) {
	s := (*Server)(c)
	s.dying[inst.ID] = true
	if s.opts.Autoscaler != nil {
		// Only autoscaling policies read the notice log; without one the
		// append would accumulate for the whole run unread.
		s.noticeLog = append(s.noticeLog, s.sim.Now())
	}
	if s.pred != nil {
		s.pred.ObservePreemption(s.sim.Now(), 1)
	}
	if s.stats.Latencies == nil {
		return
	}
	if !s.hosts(inst) {
		// A pool instance died; nothing to migrate.
		return
	}
	prop := s.propose(s.usableGPUCount())
	s.manageFleet(prop)
	target := prop.Config
	if target.GPUs() > s.usableGPUCount() {
		target = reconfig.FitToInstances(target, s.usableGPUCount())
	}
	s.beginReconfig(target, "preemption", deadline)
}

func (c *cloudEvents) InstanceTerminated(inst *cloud.Instance) {
	s := (*Server)(c)
	s.terminated(inst)
	if s.stats.Latencies == nil {
		return
	}
	// If the instance was still in the mesh (migration did not happen in
	// time — overlapping interruptions, §4.2), the affected pipelines
	// crash: caches are lost and requests restart.
	if !s.hosts(inst) {
		return
	}
	var requeue []*engine.RequestState
	for _, pipe := range s.pipes {
		if !runsOn(pipe, inst) {
			continue
		}
		var b *engine.Batch
		if pipe.Busy() {
			b = pipe.Abort()
		} else if rb, ok := s.recovered[pipe.ID]; ok {
			delete(s.recovered, pipe.ID)
			b = rb
		}
		if b == nil {
			continue
		}
		s.stats.CacheGiveUps++
		requeue = restartInto(requeue, b)
	}
	s.queue = append(requeue, s.queue...)
	// Rebuild on the survivors.
	prop := s.propose(s.usableGPUCount())
	target := reconfig.FitToInstances(prop.Config, s.usableGPUCount())
	s.epoch++
	s.pendingReconfig = true
	s.reconfigReason = "crash"
	s.stopAllPipelines()
	if s.pipelinesIdle() {
		s.executeMigration(target)
		s.tryDispatch()
	}
}

// --- engine.Hooks -------------------------------------------------------

type serverHooks Server

// AllowFastForward opts into fast-forward: outside a pending
// reconfiguration IterationDone is a side-effect-free "continue", so the
// engine may batch iteration commits. beginReconfig interrupts in-flight
// runs when this promise expires.
func (h *serverHooks) AllowFastForward(p *engine.Pipeline) bool {
	return !(*Server)(h).pendingReconfig
}

func (h *serverHooks) IterationDone(p *engine.Pipeline) bool {
	s := (*Server)(h)
	if !s.pendingReconfig {
		return true
	}
	budget, ok := s.stopBudget[p.ID]
	if !ok || !s.opts.Features.Arranger {
		return false
	}
	b := p.Batch()
	return s.arr.MayContinue(s.sim.Now(), s.cfg, b.Size(), b.MaxSeqLen(), budget)
}

func (h *serverHooks) RequestDone(p *engine.Pipeline, r *engine.RequestState) {
	s := (*Server)(h)
	s.complete(r)
	if s.wantSignals {
		// Only signal-consuming policies read the latency window; for
		// anything else the append would accumulate for the whole run
		// unread.
		s.latLog = append(s.latLog, metrics.Sample{At: r.DoneAt, Value: r.DoneAt - r.Req.At})
	}
}

func (h *serverHooks) BatchDone(p *engine.Pipeline) {
	s := (*Server)(h)
	if s.pendingReconfig {
		if s.pipelinesIdle() {
			s.executeMigration(s.pendingTarget())
			s.tryDispatch()
		}
		return
	}
	s.tryDispatch()
}

func (h *serverHooks) BatchPaused(p *engine.Pipeline, b *engine.Batch) {
	s := (*Server)(h)
	// Hold the batch for recovery under its old pipeline id.
	if b != nil && b.Size() > 0 {
		s.recovered[p.ID] = b
	}
	if s.pendingReconfig && s.pipelinesIdle() {
		s.executeMigration(s.pendingTarget())
		s.tryDispatch()
	}
}

// pendingTarget recomputes the reconfiguration target at migration time
// (the fleet may have changed while pipelines drained).
func (s *Server) pendingTarget() config.Config {
	prop := s.propose(s.usableGPUCount())
	return reconfig.FitToInstances(prop.Config, s.usableGPUCount())
}
