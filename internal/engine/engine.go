// Package engine simulates SpotServe's distributed inference engine (§5):
// pipelines of GPUs bound to pipeline-stage-shard positions execute
// incremental decoding iteration by iteration on the virtual clock, and a
// context daemon per GPU tracks the model context (parameter shard) and
// cache context (KV cache) resident on the device.
//
// The engine is deliberately policy-free: it executes batches and commits
// progress at token granularity; all decisions — when to stop decoding,
// what to migrate, where requests resume — are made by the control plane in
// internal/core through the Hooks interface and the pipeline control
// methods, mirroring the paper's engine/server split.
package engine

import (
	"fmt"
	"math"
	"sort"

	"spotserve/internal/cloud"
	"spotserve/internal/config"
	"spotserve/internal/cost"
	"spotserve/internal/model"
	"spotserve/internal/sim"
	"spotserve/internal/workload"
)

// RequestState tracks one request's inference progress. Progress is only
// ever advanced at iteration boundaries — the token-level commit that makes
// stateful recovery possible (§4).
type RequestState struct {
	Req workload.Request
	// Committed is the number of output tokens decoded and committed.
	// The initial phase commits the first token (eq. 1).
	Committed int
	// Restarts counts how many times decoding was restarted from scratch
	// (cache lost); for reporting.
	Restarts int
	// DoneAt is the completion time (valid once Done).
	DoneAt float64
}

// Done reports whether all output tokens are committed.
func (r *RequestState) Done() bool { return r.Committed >= r.Req.SeqOut }

// Remaining returns output tokens still to decode.
func (r *RequestState) Remaining() int {
	n := r.Req.SeqOut - r.Committed
	if n < 0 {
		return 0
	}
	return n
}

// Batch is a set of requests decoded together by one pipeline. A batch may
// mix fresh requests with recovered ones that already hold progress.
type Batch struct {
	Requests []*RequestState
}

// Size returns the number of not-yet-done requests.
func (b *Batch) Size() int {
	n := 0
	for _, r := range b.Requests {
		if !r.Done() {
			n++
		}
	}
	return n
}

// MaxSeqLen returns the largest current sequence length in the batch, which
// bounds the KV read cost of the next iteration.
func (b *Batch) MaxSeqLen() int {
	m := 0
	for _, r := range b.Requests {
		if l := r.Req.SeqIn + r.Committed; l > m {
			m = l
		}
	}
	return m
}

// MinCommitted returns the smallest committed count among active requests.
func (b *Batch) MinCommitted() int {
	first := true
	m := 0
	for _, r := range b.Requests {
		if r.Done() {
			continue
		}
		if first || r.Committed < m {
			m = r.Committed
			first = false
		}
	}
	return m
}

// TotalTokens returns Σ (SeqIn + Committed) over all requests: the token
// count whose KV cache is resident for this batch.
func (b *Batch) TotalTokens() int {
	t := 0
	for _, r := range b.Requests {
		t += r.Req.SeqIn + r.Committed
	}
	return t
}

// Progress returns Σ Committed — the decoding progress that would be lost
// without stateful recovery.
func (b *Batch) Progress() int {
	t := 0
	for _, r := range b.Requests {
		t += r.Committed
	}
	return t
}

// Daemon is the context daemon of one GPU (§3.1): it outlives engine
// restarts and tracks what context is resident on the device.
type Daemon struct {
	GPU *cloud.GPU
	// ModelCtx is the resident parameter shard (empty when none).
	ModelCtx model.Rect
	// CachePipeline identifies whose KV cache is resident (-1 when none):
	// the pipeline index d of the batch the cache belongs to.
	CachePipeline int
	// CacheRect is the (layers × shard fraction) rectangle of the
	// resident cache.
	CacheRect model.Rect
	// CacheTokens is Σ tokens of the cached batch.
	CacheTokens int
}

// CacheBytes returns the resident KV-cache bytes.
func (d *Daemon) CacheBytes(spec model.Spec) float64 {
	if d.CachePipeline < 0 || d.CacheRect.Empty() {
		return 0
	}
	return float64(d.CacheTokens) * spec.KVBytesPerTokenLayer() *
		float64(d.CacheRect.Layers()) * d.CacheRect.FracWidth()
}

// DropCache clears the cache context.
func (d *Daemon) DropCache() {
	d.CachePipeline = -1
	d.CacheRect = model.Rect{}
	d.CacheTokens = 0
}

// Hooks lets the control plane observe execution. All callbacks run inside
// simulator events.
type Hooks interface {
	// IterationDone fires after each committed iteration, before the next
	// iteration is scheduled. Returning false pauses the pipeline with
	// its batch intact (JIT interruption arrangement).
	IterationDone(p *Pipeline) bool
	// RequestDone fires when a request commits its last token.
	RequestDone(p *Pipeline, r *RequestState)
	// BatchDone fires when every request of the running batch completed.
	BatchDone(p *Pipeline)
	// BatchPaused fires when IterationDone returned false and the batch
	// was handed back with committed progress.
	BatchPaused(p *Pipeline, b *Batch)
	// AllowFastForward is the fast-forward opt-in. When it returns true at
	// an iteration boundary, the engine may commit the run of iterations up
	// to the next semantic boundary (the earliest request completion) as
	// ONE simulator event instead of one event per iteration; IterationDone
	// is not called at the elided interior boundaries. Returning true is
	// therefore a promise that, until the run's final boundary,
	// IterationDone would have returned true with no observable side
	// effects. A control plane whose promise expires mid-run (e.g. a
	// reconfiguration starts and the JIT arranger now needs per-iteration
	// decisions) must call Pipeline.Interrupt — or RequestStop / Abort,
	// which imply it — to demote the run back to per-iteration stepping
	// from the next boundary on.
	//
	// Fast-forward is an execution-strategy change only: boundary times are
	// bit for bit those the per-iteration floating-point sums produce
	// (accumulated the same way, or read from their exact closed form),
	// and every externally observable read (RequestStop, Abort, Batch,
	// Iterations, Engine.Daemon/Daemons) first commits the boundaries that
	// have already passed on the virtual clock, so traces are
	// byte-identical with and without it.
	AllowFastForward(p *Pipeline) bool
}

// Engine owns daemons and pipelines for one serving deployment.
type Engine struct {
	Sim   *sim.Simulator
	Est   *cost.Estimator
	Hooks Hooks

	// NoFastForward forces one-event-per-iteration execution even when
	// Hooks.AllowFastForward opts in (the reference mode equivalence tests
	// compare against).
	NoFastForward bool

	daemons map[int64]*Daemon
	// ffPipes are the pipelines currently executing a fast-forward run, in
	// deterministic (run-start) order; daemon reads sync them first.
	ffPipes []*Pipeline
	// spanScratch holds per-pipeline-ID span workspaces so the buffers a
	// pipeline plans its fast-forward spans in survive reconfigurations
	// (every reconfiguration rebuilds the pipeline set with the same small
	// ID range). Ownership is handed over in scratchFor.
	spanScratch []*spanScratch
}

// spanScratch is the reusable workspace a pipeline plans fast-forward spans
// in: the segment index of the current plan and the boundary times of its
// loop-priced segments, plus the per-request remaining/length vectors used
// during planning.
type spanScratch struct {
	times  []float64
	segs   []ffSeg
	rem    []int
	lens   []int
	holder *Pipeline
}

// scratchFor returns the span workspace for pipeline id, transferring
// ownership to p. A still-running predecessor keeps its buffers (p gets
// private ones); an idle predecessor is detached onto private buffers and
// its plan invalidated, so even an out-of-contract restart stays correct.
func (e *Engine) scratchFor(id int, p *Pipeline) *spanScratch {
	for id >= len(e.spanScratch) {
		e.spanScratch = append(e.spanScratch, &spanScratch{})
	}
	sc := e.spanScratch[id]
	if old := sc.holder; old != nil && old != p {
		if old.busy {
			sc = &spanScratch{}
			e.spanScratch[id] = sc
		} else {
			old.sc = &spanScratch{holder: old}
			old.invalidateSpan()
		}
	}
	sc.holder = p
	return sc
}

// New builds an engine. Hooks must be installed before any pipeline runs.
func New(s *sim.Simulator, est *cost.Estimator, hooks Hooks) *Engine {
	return &Engine{Sim: s, Est: est, Hooks: hooks, daemons: make(map[int64]*Daemon)}
}

// syncAll commits the already-passed boundaries of every in-flight
// fast-forward run, bringing request progress and daemon contexts up to the
// current virtual time before an external read.
func (e *Engine) syncAll() {
	for _, p := range e.ffPipes {
		p.sync()
	}
}

// Daemon returns (creating on first use) the context daemon of gpu.
func (e *Engine) Daemon(gpu *cloud.GPU) *Daemon {
	e.syncAll()
	return e.daemon(gpu)
}

// daemon is Daemon without the fast-forward sync — NewPipeline resolves its
// positions' daemons through it once, so commits never look them up.
func (e *Engine) daemon(gpu *cloud.GPU) *Daemon {
	d, ok := e.daemons[gpu.ID]
	if !ok {
		d = &Daemon{GPU: gpu, CachePipeline: -1}
		e.daemons[gpu.ID] = d
	}
	return d
}

// Daemons returns all daemons in GPU-ID order.
func (e *Engine) Daemons() []*Daemon {
	e.syncAll()
	out := make([]*Daemon, 0, len(e.daemons))
	for _, d := range e.daemons {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].GPU.ID < out[j].GPU.ID })
	return out
}

// DropDaemon forgets the daemon of a terminated GPU.
func (e *Engine) DropDaemon(gpuID int64) { delete(e.daemons, gpuID) }

// Pipeline is one inference pipeline: P×M GPUs serving batches under a
// parallel configuration.
type Pipeline struct {
	eng *Engine
	// ID is the pipeline index d within the current configuration.
	ID int
	// Cfg is the configuration the pipeline serves under.
	Cfg config.Config
	// GPUs maps each (p, m) position (with D=ID) to its device.
	GPUs map[config.Position]*cloud.GPU

	// StageReadyAt gates execution per stage: stage p may not compute
	// before StageReadyAt[p] (progressive migration overlap, §3.4).
	StageReadyAt []float64

	batch     *Batch
	busy      bool
	iterEv    sim.Handle
	iterEnd   float64
	stopASAP  bool
	iterCount int64

	// slowdown scales iteration durations for heterogeneous fleets: a
	// pipeline runs at the speed of its slowest member GPU, so the control
	// plane sets slowdown = 1/minSpeed. One (the default) leaves homogeneous
	// timings bit-identical to the untyped baseline.
	slowdown float64

	// Fast-forward span state. A span is the whole remaining life of the
	// batch, planned once: sc.segs partitions its future iteration
	// boundaries into segments (the runs between consecutive request
	// completions), each priced in closed form or with its boundary times
	// in sc.times. ffCur is the current segment,
	// ffDone the global index of the first uncommitted boundary, ffActive
	// marks a segment event in flight, and ffPlanned/ffBatch guard reuse:
	// a plan is only trusted after its current segment's live signature and
	// start time validate exactly (beginFastForward), so any unplanned
	// state change simply forces a cheap replan, never a wrong commit.
	sc        *spanScratch
	ffCur     int
	ffDone    int
	ffActive  bool
	ffPlanned bool
	ffBatch   *Batch

	// completeFn / ffCompleteFn are the pipeline's event callbacks, bound
	// once at construction so scheduling an iteration allocates nothing.
	completeFn   func()
	ffCompleteFn func()

	// cacheRefs holds, per position, the daemon and cache rectangle a
	// commit refreshes — the per-iteration daemon refresh then walks a
	// slice instead of looking daemons up and recomputing rects.
	cacheRefs []cacheRef
}

// ffSeg is one segment of a planned fast-forward span: the run of
// iterations ending at the next request completion. end is one past the
// segment's last global boundary index (its first is end-n); bsz/n/la/ld
// are the live-batch signature the segment was planned from (batch size,
// iterations, max active length, max done length) and start its planned
// start time — re-validated against the live batch before the segment is
// armed. stop is the time of its final boundary.
//
// A closed-form segment holds the prefix table and binade spacing its
// boundary times follow from (see cost.Spacing); any other segment has
// units.Sum == nil and its n boundary times in sc.times from toff.
type ffSeg struct {
	end   int
	bsz   int
	n     int
	la    int
	ld    int
	start float64
	stop  float64
	units cost.UnitPrefix
	u     float64
	toff  int
}

// cacheRef pairs the daemon of a pipeline GPU, resolved once in
// NewPipeline, with its precomputed cache rectangle. A daemon dropped by
// DropDaemon while the pipeline lives stays dropped: the pipeline keeps
// writing to its own pointer and never re-creates it in the engine.
type cacheRef struct {
	d    *Daemon
	rect model.Rect
}

// NewPipeline constructs a pipeline over the given position→GPU binding.
// The binding must cover every (p, m) position of the configuration.
func (e *Engine) NewPipeline(id int, cfg config.Config, gpus map[config.Position]*cloud.GPU) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for p := 0; p < cfg.P; p++ {
		for m := 0; m < cfg.M; m++ {
			pos := config.Position{D: id, P: p, M: m}
			if gpus[pos] == nil {
				return nil, fmt.Errorf("engine: pipeline %d missing GPU for %v", id, pos)
			}
		}
	}
	p := &Pipeline{
		eng:          e,
		ID:           id,
		Cfg:          cfg,
		GPUs:         gpus,
		StageReadyAt: make([]float64, cfg.P),
		slowdown:     1,
		cacheRefs:    make([]cacheRef, 0, cfg.P*cfg.M),
	}
	for sp := 0; sp < cfg.P; sp++ {
		for m := 0; m < cfg.M; m++ {
			pos := config.Position{D: id, P: sp, M: m}
			p.cacheRefs = append(p.cacheRefs, cacheRef{
				d:    e.daemon(gpus[pos]),
				rect: model.PositionRect(e.Est.Spec, cfg.P, cfg.M, sp, m),
			})
		}
	}
	p.completeFn = p.completeIteration
	p.ffCompleteFn = p.ffComplete
	p.sc = e.scratchFor(id, p)
	return p, nil
}

// Busy reports whether a batch is executing.
func (p *Pipeline) Busy() bool { return p.busy }

// Batch returns the running (or last paused) batch, with any already-passed
// fast-forward boundaries committed so its progress is current.
func (p *Pipeline) Batch() *Batch {
	p.sync()
	return p.batch
}

// Iterations returns the number of committed iterations this pipeline ran.
func (p *Pipeline) Iterations() int64 {
	p.sync()
	return p.iterCount
}

// SetStageReady marks stage p usable from time t.
func (p *Pipeline) SetStageReady(stage int, t float64) {
	p.StageReadyAt[stage] = t
}

// SetSlowdown scales this pipeline's iteration durations by f — the
// heterogeneous-fleet hook: the control plane passes 1/minSpeed over the
// pipeline's GPUs so a mixed mesh decodes at its slowest device's pace.
// f ≤ 0 or f == 1 keeps the baseline timings untouched. Must be set before
// the pipeline starts a batch.
func (p *Pipeline) SetSlowdown(f float64) {
	if !(f > 0) {
		f = 1
	}
	p.slowdown = f
}

// scaled applies the pipeline's slowdown to one iteration duration (d·1 is
// d exactly). The conversion rounds the product on its own, so it is never
// fused into the sum it feeds: the span tables price the same rounded δ.
func (p *Pipeline) scaled(d float64) float64 { return float64(d * p.slowdown) }

// gateDelay returns how long the next iteration must additionally wait for
// trailing stages still migrating: stage s contributes its readiness minus
// the pipeline time already spent reaching it.
func (p *Pipeline) gateDelay(iterTime float64) float64 {
	now := p.eng.Sim.Now()
	delay := 0.0
	perStage := iterTime / float64(p.Cfg.P)
	for s, ready := range p.StageReadyAt {
		// The wavefront reaches stage s after s×perStage.
		d := ready - now - float64(s)*perStage
		if d > delay {
			delay = d
		}
	}
	return delay
}

// Start begins (or resumes) executing a batch. Requests that already hold
// committed progress continue from their committed token — stateful
// inference recovery. Starting a busy pipeline panics: the control plane
// must pause or abort first.
func (p *Pipeline) Start(b *Batch) {
	if p.busy {
		panic(fmt.Sprintf("engine: pipeline %d started while busy", p.ID))
	}
	if b == nil || b.Size() == 0 {
		return
	}
	p.batch = b
	p.busy = true
	p.stopASAP = false
	p.scheduleNext(true)
}

// scheduleNext schedules the completion of the next iteration. The first
// iteration after Start may include the initial phase for fresh requests.
// Steady-state iterations fast-forward when the control plane allows it:
// all iterations up to the next semantic boundary (the earliest request
// completion) are precomputed and committed by a single simulator event.
func (p *Pipeline) scheduleNext(first bool) {
	b := p.batch
	bsz := b.Size()
	if bsz == 0 {
		p.finish()
		return
	}
	if !first && p.canFastForward() {
		p.beginFastForward()
		return
	}
	// An iteration outside the planned span desynchronizes its boundary
	// times; drop the plan rather than rely on validation alone.
	p.invalidateSpan()
	dur := 0.0
	if first {
		// Fresh requests (Committed == 0) pay the initial phase; the
		// phase also commits their first output token. Recovered
		// requests just re-enter decoding.
		fresh := 0
		for _, r := range b.Requests {
			if !r.Done() && r.Committed == 0 {
				fresh++
			}
		}
		if fresh > 0 {
			dur += p.eng.Est.InitPhase(p.Cfg.P, p.Cfg.M, fresh, maxSeqIn(b))
		} else {
			dur += p.eng.Est.DecodeIter(p.Cfg.P, p.Cfg.M, bsz, b.MaxSeqLen())
		}
	} else {
		dur += p.eng.Est.DecodeIter(p.Cfg.P, p.Cfg.M, bsz, b.MaxSeqLen())
	}
	dur = p.scaled(dur)
	dur += p.gateDelay(dur)
	p.iterEnd = p.eng.Sim.Now() + dur
	p.iterEv = p.eng.Sim.After(dur, p.completeFn)
}

// canFastForward reports whether the next run of iterations may be
// committed in one event: the engine allows it, the control plane opts in,
// the pipeline has not been asked to stop, and every stage gate lies in the
// past (so per-iteration gate delays would all be zero).
func (p *Pipeline) canFastForward() bool {
	if p.eng.NoFastForward || p.stopASAP {
		return false
	}
	if !p.eng.Hooks.AllowFastForward(p) {
		return false
	}
	now := p.eng.Sim.Now()
	for _, ready := range p.StageReadyAt {
		if ready > now {
			return false
		}
	}
	return true
}

// beginFastForward arms the next fast-forward segment: the run of
// iterations up to the next request completion, executed as ONE simulator
// event at the segment's final boundary.
//
// Segments come from a span plan covering the batch's whole remaining life
// (buildSpan). The plan is reused across segments as long as it stays
// valid: the current segment's planned signature (batch size, iteration
// count, sequence-length extrema) and start time must match the live batch
// exactly, otherwise the span is replanned from the live state. Validation
// is float-exact — this event fires at the stored boundary time, so a
// matching start plus a matching signature implies the planned boundary
// times are bit-identical to what per-iteration stepping would produce.
func (p *Pipeline) beginFastForward() {
	b := p.batch
	// Live signature in one scan: active count, iterations to the next
	// completion, and the sequence-length extrema that drive iteration
	// durations (active requests grow one token per iteration; completed
	// ones stay fixed).
	bsz, n, la, ld := 0, 0, 0, 0
	firstN := true
	for _, r := range b.Requests {
		l := r.Req.SeqIn + r.Committed
		if r.Done() {
			if l > ld {
				ld = l
			}
			continue
		}
		bsz++
		if rem := r.Remaining(); firstN || rem < n {
			n = rem
			firstN = false
		}
		if l > la {
			la = l
		}
	}
	now := p.eng.Sim.Now()
	if !p.ffPlanned || p.ffBatch != b || p.ffCur >= len(p.sc.segs) {
		p.buildSpan()
	} else if s := &p.sc.segs[p.ffCur]; s.bsz != bsz || s.n != n || s.la != la || s.ld != ld || s.start != now {
		p.buildSpan()
	}
	p.ffActive = true
	p.eng.ffPipes = append(p.eng.ffPipes, p)
	p.iterEnd = p.sc.segs[p.ffCur].stop
	p.iterEv = p.eng.Sim.At(p.iterEnd, p.ffCompleteFn)
}

// buildSpan plans the batch's entire remaining life from the live state:
// every future iteration boundary, partitioned into segments at request
// completions. Boundary times are those of per-iteration scheduling
// (t_k = t_{k-1} + DecodeIter at the batch's length after k commits), bit
// for bit. A segment is priced in closed form from the shared prefix
// tables (closedForm) when that is exact; otherwise its times accumulate
// with exactly the per-iteration floating-point operations, over one bulk
// DecodeRange read — the identical memo entries DecodeIter would return one
// by one.
func (p *Pipeline) buildSpan() {
	b := p.batch
	rem := p.sc.rem[:0]
	lens := p.sc.lens[:0]
	ld := 0
	for _, r := range b.Requests {
		l := r.Req.SeqIn + r.Committed
		if r.Done() {
			if l > ld {
				ld = l
			}
			continue
		}
		rem = append(rem, r.Remaining())
		lens = append(lens, l)
	}
	times := p.sc.times[:0]
	segs := p.sc.segs[:0]
	cur := p.eng.Sim.Now()
	end := 0
	for {
		bsz, n, la := 0, 0, 0
		firstN := true
		for i, rm := range rem {
			if rm <= 0 {
				continue
			}
			bsz++
			if firstN || rm < n {
				n = rm
				firstN = false
			}
			if lens[i] > la {
				la = lens[i]
			}
		}
		if bsz == 0 {
			break
		}
		seg := ffSeg{bsz: bsz, n: n, la: la, ld: ld, start: cur, toff: len(times)}
		lo := la
		if ld > lo {
			lo = ld
		}
		hi := la + n - 1
		if ld > hi {
			hi = ld
		}
		if !p.closedForm(&seg, lo, hi) {
			iters := p.eng.Est.DecodeRange(p.Cfg.P, p.Cfg.M, bsz, lo, hi)
			for k := 0; k < n; k++ {
				curLen := la + k
				if ld > curLen {
					curLen = ld
				}
				cur += p.scaled(iters[curLen-lo])
				times = append(times, cur)
			}
			seg.stop = cur
		}
		cur = seg.stop
		end += n
		seg.end = end
		segs = append(segs, seg)
		for i := range rem {
			if rem[i] <= 0 {
				continue
			}
			rem[i] -= n
			lens[i] += n
			if rem[i] <= 0 && lens[i] > ld {
				ld = lens[i]
			}
		}
	}
	p.sc.rem, p.sc.lens = rem, lens
	p.sc.times, p.sc.segs = times, segs
	p.ffCur = 0
	p.ffDone = 0
	p.ffBatch = b
	p.ffPlanned = true
}

// closedForm prices segment s, whose iterations run at lengths lo..hi, in
// closed form: t_j = start + u·K_j with K_j from the shared prefix table of
// its binade (cost.SpanUnits). That is exact when start is a normal float,
// no length holds a tie, and the final boundary stays in start's binade —
// start/u + K_n < 2^53. It reports false (leaving the segment to the loop)
// otherwise, and sets s.stop, s.units and s.u on success.
func (p *Pipeline) closedForm(s *ffSeg, lo, hi int) bool {
	u, ok := cost.Spacing(s.start)
	if !ok {
		return false
	}
	// start/u is an integer in [2^52, 2^53), exactly.
	budget := 1<<53 - 1 - int64(s.start/u)
	units, ok := p.eng.Est.SpanUnits(p.Cfg.P, p.Cfg.M, s.bsz, p.slowdown, u, lo, hi, budget)
	if !ok {
		return false
	}
	k, ok := unitsAfter(units, s.la, s.ld, s.n, budget)
	if !ok {
		return false
	}
	s.units, s.u = units, u
	s.stop = spanTime(s.start, u, k)
	return true
}

// unitsAfter returns K_j, the number of spacings the first j iterations of
// a segment advance the clock by, from the prefix table t: with max active
// length la and max done length ld, the first min(ld−la, j) iterations run
// at the plateau length ld, the rest at la+k. ok is false when K_j exceeds
// budget.
func unitsAfter(t cost.UnitPrefix, la, ld, j int, budget int64) (int64, bool) {
	var k int64
	lo := la
	if m := ld - la; m > 0 {
		if m > j {
			m = j
		}
		r := t.At(ld+1) - t.At(ld)
		if r > 0 && int64(m) > budget/r {
			return 0, false
		}
		k = int64(m) * r
		lo = ld
	}
	if la+j > lo {
		tail := t.At(la+j) - t.At(lo)
		if tail > budget-k {
			return 0, false
		}
		k += tail
	}
	return k, true
}

// spanTime returns t0 + u·k. Both terms are multiples of u and the sum
// stays in t0's binade, so it is exact; the conversion keeps the product
// from being fused into the sum all the same.
func spanTime(t0, u float64, k int64) float64 {
	return t0 + float64(u*float64(k))
}

// boundary returns the time of segment s's j-th boundary, 1 ≤ j ≤ s.n.
func (p *Pipeline) boundary(s *ffSeg, j int) float64 {
	if s.units.Sum == nil {
		return p.sc.times[s.toff+j-1]
	}
	k, _ := unitsAfter(s.units, s.la, s.ld, j, math.MaxInt64)
	return spanTime(s.start, s.u, k)
}

// invalidateSpan drops the span plan (the buffers stay for reuse).
func (p *Pipeline) invalidateSpan() {
	p.ffPlanned = false
	p.ffBatch = nil
}

// sync commits the boundaries of the in-flight fast-forward segment that
// the virtual clock has already passed, so external readers observe exactly
// the state per-iteration stepping would have produced by now. The
// segment's final boundary is never committed here — its event owns the
// request completions and hook calls.
func (p *Pipeline) sync() {
	if !p.ffActive {
		return
	}
	k := p.passed(&p.sc.segs[p.ffCur], p.ffDone, p.eng.Sim.Now())
	if k == p.ffDone {
		return
	}
	p.commitThrough(k)
}

// passed returns the global index of the first boundary of segment s, from
// index k on, that lies after now. It stops at s's final boundary, which
// stays with the segment's event.
func (p *Pipeline) passed(s *ffSeg, k int, now float64) int {
	first, last := s.end-s.n, s.end-1
	if s.units.Sum == nil {
		for k < last && p.sc.times[s.toff+k-first] <= now {
			k++
		}
		return k
	}
	// Boundary j has passed iff K_j ≤ (now − start)/u, which is exact:
	// start ≤ now ≤ stop lie in one binade. K_j grows with j, so the first
	// unpassed boundary is found by bisection.
	q := math.Floor((now - s.start) / s.u)
	for hi := last; k < hi; {
		mid := int(uint(k+hi) >> 1)
		if kj, _ := unitsAfter(s.units, s.la, s.ld, mid-first+1, math.MaxInt64); float64(kj) > q {
			hi = mid
		} else {
			k = mid + 1
		}
	}
	return k
}

// commitThrough applies boundaries ffDone..k-1: one committed token per
// active request each, then one daemon refresh (equal to the state after
// the last per-iteration refresh). Interior boundaries complete no request,
// so no hooks fire.
func (p *Pipeline) commitThrough(k int) {
	iters := k - p.ffDone
	if iters <= 0 {
		return
	}
	p.iterCount += int64(iters)
	for _, r := range p.batch.Requests {
		if !r.Done() {
			r.Committed += iters
		}
	}
	p.ffDone = k
	p.refreshCacheDaemons()
}

// endFastForward drops the run bookkeeping (the scheduled event is the
// caller's to cancel or consume).
func (p *Pipeline) endFastForward() {
	if !p.ffActive {
		return
	}
	p.ffActive = false
	pipes := p.eng.ffPipes
	for i, q := range pipes {
		if q == p {
			p.eng.ffPipes = append(pipes[:i], pipes[i+1:]...)
			break
		}
	}
}

// ffComplete fires at the segment's final boundary: interior boundaries
// commit silently, then the final boundary goes through the standard
// completion path (request completions, daemon refresh, hooks, next
// schedule). Advancing ffCur/ffDone first lets the re-schedule inside
// completeIteration validate and arm the span's next segment directly.
func (p *Pipeline) ffComplete() {
	end := p.sc.segs[p.ffCur].end
	p.commitThrough(end - 1)
	p.endFastForward()
	p.ffDone = end
	p.ffCur++
	p.completeIteration()
}

// Interrupt demotes an in-flight fast-forward run to per-iteration
// stepping: boundaries already passed are committed, and the next boundary
// is rescheduled as an ordinary iteration event so IterationDone fires
// there. Control planes call this when their AllowFastForward promise
// expires (a reconfiguration starts). No-op unless fast-forwarding.
func (p *Pipeline) Interrupt() {
	if !p.ffActive {
		return
	}
	p.sync()
	next := p.ffDone
	s := &p.sc.segs[p.ffCur]
	if next >= s.end-1 {
		// Only the segment's final boundary remains and its event is
		// already scheduled at the correct time; completeIteration will
		// consult the hooks there.
		return
	}
	p.iterEv.Cancel()
	t := p.boundary(s, next-(s.end-s.n)+1)
	p.endFastForward()
	p.invalidateSpan()
	p.iterEnd = t
	p.iterEv = p.eng.Sim.At(t, p.completeFn)
}

func maxSeqIn(b *Batch) int {
	m := 0
	for _, r := range b.Requests {
		if !r.Done() && r.Req.SeqIn > m {
			m = r.Req.SeqIn
		}
	}
	return m
}

// completeIteration commits one token per active request and consults the
// control plane about continuing.
func (p *Pipeline) completeIteration() {
	b := p.batch
	p.iterCount++
	for _, r := range b.Requests {
		if r.Done() {
			continue
		}
		r.Committed++
		if r.Done() {
			r.DoneAt = p.eng.Sim.Now()
			p.eng.Hooks.RequestDone(p, r)
		}
	}
	p.refreshCacheDaemons()
	if b.Size() == 0 {
		p.finish()
		return
	}
	cont := p.eng.Hooks.IterationDone(p)
	if !cont || p.stopASAP {
		p.pause()
		return
	}
	p.scheduleNext(false)
}

// refreshCacheDaemons records the batch's KV cache on this pipeline's
// context daemons after a commit, walking the precomputed position refs.
func (p *Pipeline) refreshCacheDaemons() {
	tokens := p.batch.TotalTokens()
	for i := range p.cacheRefs {
		ref := &p.cacheRefs[i]
		ref.d.CachePipeline = p.ID
		ref.d.CacheRect = ref.rect
		ref.d.CacheTokens = tokens
	}
}

func (p *Pipeline) finish() {
	p.busy = false
	p.batch = nil
	p.invalidateSpan()
	// The completed batch's cache is dead weight; daemons drop it.
	for i := range p.cacheRefs {
		p.cacheRefs[i].d.DropCache()
	}
	p.eng.Hooks.BatchDone(p)
}

func (p *Pipeline) pause() {
	p.busy = false
	b := p.batch
	p.batch = nil
	p.invalidateSpan()
	p.eng.Hooks.BatchPaused(p, b)
}

// RequestStop asks the pipeline to pause at the next iteration boundary
// (token-level commit). An in-flight fast-forward run is demoted to
// per-iteration stepping so the stop lands on that very boundary. No-op
// when idle.
func (p *Pipeline) RequestStop() {
	p.stopASAP = true
	p.Interrupt()
}

// Abort cancels the in-flight iteration immediately. Progress since the
// last commit is lost (that is the point of committing at token level: at
// most one iteration of work can ever be lost); boundaries a fast-forward
// run has already passed count as committed first. The batch, with
// committed progress, is returned; the pipeline becomes idle.
func (p *Pipeline) Abort() *Batch {
	p.sync()
	p.endFastForward()
	p.invalidateSpan()
	p.iterEv.Cancel()
	p.busy = false
	b := p.batch
	p.batch = nil
	return b
}
