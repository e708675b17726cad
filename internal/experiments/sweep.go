package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spotserve/internal/metrics"
)

// Sweep configures the scenario sweep pool. The zero value runs every
// scenario once, at its own seed, on all available cores, with no cache, no
// retries and no cancellation.
type Sweep struct {
	// Parallel bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	Parallel int
	// Seeds are the replication seeds: every cell runs once per seed and
	// the per-cell results are folded into mean/min/max/stderr bands.
	// Empty means each scenario keeps its own seed and runs once.
	Seeds []int64
	// Cache, when non-nil, is consulted before each scenario runs and
	// updated after: a hit skips the simulation entirely and replays the
	// stored Result. Only scenarios whose identity is fully captured by
	// CacheKey participate; everything else always runs. Because every
	// simulation is deterministic in its key, cache-on and cache-off
	// sweeps are byte-identical — the serving daemon's equivalence tests
	// pin this. Implementations must be safe for concurrent use.
	Cache ResultCache
	// OnResult, when non-nil, is invoked as each job succeeds (from worker
	// goroutines, serialized by the pool's mutex, just before Run's onCell
	// for the same job) with the job's flat index, its Result, and whether
	// it was served from Cache. Failed jobs never reach it. Completion
	// order is nondeterministic; the indexed results are not.
	OnResult func(i int, r Result, fromCache bool)
	// Context, when non-nil, cancels the sweep cooperatively: jobs not yet
	// started (and retries not yet attempted) short-circuit to
	// CellResult{Err: ctx.Err()} once it is done. Jobs already simulating
	// run to completion — the kernel itself is never interrupted, so every
	// completed cell stays byte-identical to an uncancelled run.
	Context context.Context
	// Retry is the per-job retry policy; the zero value runs each job
	// exactly once.
	Retry RetryPolicy
	// Inject, when non-nil, is called at the start of every attempt with
	// the flat job index (cell×seeds+replica) and the 1-based attempt
	// number — the fault-injection seam internal/faults plugs into.
	// Returning an error fails the attempt; a panic inside it is captured
	// exactly like a simulation panic. It must be deterministic in (job,
	// attempt) so chaos runs are reproducible. Injection happens before the
	// simulation runs, so a fault can never corrupt a result — only replace
	// it with an error.
	Inject func(job, attempt int) error
}

// CellResult is one job's fault-isolated outcome: the Result when any
// attempt succeeded, the final error otherwise, and how many attempts ran
// (0 only when the job was cancelled before it ever started). The pool
// degrades failures to per-job errors — one panicking cell of a thousand
// costs one cell, never the sweep.
type CellResult struct {
	Result   Result
	Err      error
	Attempts int
}

// RetryPolicy bounds per-cell retries with deterministic capped exponential
// backoff. No jitter, by design: retry timing must never introduce
// nondeterminism, and the simulations it guards are seeded and
// reproducible, so synchronized retries cost nothing.
type RetryPolicy struct {
	// MaxAttempts is the attempt budget per cell; <= 1 means no retries.
	MaxAttempts int
	// Backoff is the delay before the second attempt; each further attempt
	// doubles it, capped at MaxBackoff. Zero means retry immediately.
	Backoff time.Duration
	// MaxBackoff caps the doubling (<= 0 means DefaultMaxBackoff).
	MaxBackoff time.Duration
	// Sleep overrides how the pool waits out a backoff (default: a timer
	// that also wakes on Context cancellation). Tests substitute a
	// recorder so retry schedules are asserted, not slept.
	Sleep func(d time.Duration)
}

// DefaultMaxBackoff caps exponential retry backoff when the policy leaves
// MaxBackoff zero.
const DefaultMaxBackoff = 30 * time.Second

// attempts resolves the effective attempt budget.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Delay returns the deterministic backoff slept before the given attempt
// (attempt >= 2): Backoff doubled per extra attempt, capped at MaxBackoff.
func (p RetryPolicy) Delay(attempt int) time.Duration {
	if p.Backoff <= 0 || attempt <= 1 {
		return 0
	}
	ceil := p.MaxBackoff
	if ceil <= 0 {
		ceil = DefaultMaxBackoff
	}
	d := p.Backoff
	for i := 2; i < attempt; i++ {
		d *= 2
		if d >= ceil {
			return ceil
		}
	}
	if d > ceil {
		return ceil
	}
	return d
}

// ResultCache stores completed Results keyed by CacheKey — the hook behind
// the serving daemon's fingerprint-equivalent cell cache. Get and Put may
// be called concurrently from sweep workers.
type ResultCache interface {
	Get(key string) (Result, bool)
	Put(key string, r Result)
}

// CacheKey returns a stable identity string for the scenario — the same
// scenario fields the Fingerprint digests — and whether the scenario is
// cacheable at all. A scenario is cacheable only when every behavior-
// carrying closure is named by a registry axis (TraceFn by AvailModel,
// NewAutoscaler by Policy, MarketFn by Market, CloudParams by Fleet) and
// the trace/rate inputs are named values: two scenarios with equal keys
// must simulate byte-identically, so anonymous functions and unnamed
// traces opt out rather than risk serving a stale look-alike.
func (sc Scenario) CacheKey() (string, bool) {
	if sc.RateFn != nil {
		return "", false
	}
	if sc.TraceFn != nil && sc.AvailModel == "" {
		return "", false
	}
	if sc.TraceFn == nil && sc.Trace.Name == "" && sc.System != OnDemandOnly {
		return "", false
	}
	if sc.NewAutoscaler != nil && sc.Policy == "" {
		return "", false
	}
	if sc.MarketFn != nil && sc.Market == "" {
		return "", false
	}
	if sc.CloudParams != nil && sc.Fleet == "" {
		return "", false
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sys=%s spec=%s trace=%s odn=%d rate=%g cv=%g mix=%v drain=%g fleetsample=%v seed=%d\n",
		sc.System, sc.Spec.Name, sc.Trace.Name, sc.OnDemandN, sc.Rate, sc.CV,
		sc.AllowOnDemand, sc.Drain, sc.SampleFleet, sc.Seed)
	if sc.Features != nil {
		fmt.Fprintf(&b, "features=%+v\n", *sc.Features)
	}
	fmt.Fprintf(&b, "avail=%s fleet=%s policy=%s market=%s\n",
		sc.AvailModel, sc.Fleet, sc.Policy, sc.Market)
	return b.String(), true
}

// SingleSeed is the sweep used by the single-seed figure entry points:
// serial-equivalent replication at exactly one seed, parallel workers.
func SingleSeed(seed int64) Sweep { return Sweep{Seeds: []int64{seed}} }

// SeedRange returns n consecutive seeds starting at base, the expansion
// behind the -seeds N command-line flag.
func SeedRange(base int64, n int) []int64 {
	if n < 1 {
		n = 1
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// workers resolves the effective pool size for n jobs.
func (sw Sweep) workers(n int) int {
	w := sw.Parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run is the sweep pool. It runs every cell once per sweep seed — cell-major,
// flat job index i = cell×len(Seeds)+replica; with no Seeds each cell runs
// once at its own seed — on a bounded worker pool that dispatches jobs in
// index order. Every job goes through Context, Inject, Cache and Retry, and
// a panic anywhere in it is captured into its CellResult.Err, so one failing
// job never costs another. Each scenario simulates in its own kernel with
// its own RNGs, so every result is byte-identical to a serial run at any
// worker count.
//
// As each job finishes, Run calls OnResult (successes only) and then onCell
// (every job, with its final CellResult), serialized by one mutex. It
// retains nothing itself: a Result outlives its callbacks only if they keep
// it, so the pool's footprint is the in-flight jobs, whatever the job count.
func (sw Sweep) Run(cells []Scenario, onCell func(i int, cr CellResult, fromCache bool)) {
	perCell := max(len(sw.Seeds), 1)
	n := len(cells) * perCell
	ctx := sw.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := sw.workers(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				sc := cells[i/perCell]
				if len(sw.Seeds) > 0 {
					sc.Seed = sw.Seeds[i%perCell]
				}
				cr, fromCache := sw.runJob(ctx, i, sc)
				mu.Lock()
				if cr.Err == nil && sw.OnResult != nil {
					sw.OnResult(i, cr.Result, fromCache)
				}
				if onCell != nil {
					onCell(i, cr, fromCache)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// runJob runs one job under the retry policy. A done context short-circuits
// before any attempt and supersedes an earlier attempt's error.
func (sw Sweep) runJob(ctx context.Context, i int, sc Scenario) (cr CellResult, fromCache bool) {
	budget := sw.Retry.attempts()
	for attempt := 1; attempt <= budget; attempt++ {
		if err := ctx.Err(); err != nil {
			cr.Err = err
			return cr, false
		}
		cr.Attempts = attempt
		var err error
		if cr.Result, fromCache, err = sw.attemptOne(i, attempt, sc); err == nil {
			cr.Err = nil
			return cr, fromCache
		}
		cr.Err = err
		if attempt < budget {
			sw.backoff(ctx, sw.Retry.Delay(attempt+1))
		}
	}
	return cr, false
}

// attemptOne runs one attempt of one job: fault injection first, then the
// (cache-aware) simulation, with any panic from either captured as the
// attempt's error. Injection precedes the run, so a fault replaces a
// result; it can never alter one.
func (sw Sweep) attemptOne(i, attempt int, sc Scenario) (r Result, fromCache bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cell %d attempt %d panicked: %v", i, attempt, p)
		}
	}()
	if sw.Inject != nil {
		if ferr := sw.Inject(i, attempt); ferr != nil {
			return Result{}, false, ferr
		}
	}
	r, fromCache = sw.runCached(sc)
	return r, fromCache, nil
}

// runCached simulates one scenario through the optional result cache and
// reports whether the result was replayed from it.
func (sw Sweep) runCached(sc Scenario) (Result, bool) {
	if sw.Cache == nil {
		return Run(sc), false
	}
	key, ok := sc.CacheKey()
	if !ok {
		return Run(sc), false
	}
	if hit, found := sw.Cache.Get(key); found {
		return hit, true
	}
	r := Run(sc)
	sw.Cache.Put(key, r)
	return r, false
}

// backoff waits out a retry delay, waking early on cancellation. A custom
// RetryPolicy.Sleep (tests) is invoked as-is.
func (sw Sweep) backoff(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	if sw.Retry.Sleep != nil {
		sw.Retry.Sleep(d)
		return
	}
	t := time.NewTimer(d) //detlint:allow wallclock — retry backoff paces the host-side worker pool between attempts; simulated results never observe it (TestIsolatedMatchesRunAll pins identity under retries)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// RunCells runs the cells through Run and returns the replicas grouped by
// cell: out[i][j] is cells[i] simulated at Seeds[j], or out[i][0] at the
// cell's own seed when the sweep has no Seeds. It keeps the abort contract
// the figure sweeps rely on: once the pool drains, the lowest-index failed
// job's error is re-raised as a panic on the caller's goroutine.
func (sw Sweep) RunCells(cells []Scenario) [][]Result {
	perCell := max(len(sw.Seeds), 1)
	flat := make([]Result, len(cells)*perCell)
	failed := len(flat)
	var failure error
	sw.Run(cells, func(i int, cr CellResult, _ bool) {
		flat[i] = cr.Result
		if cr.Err != nil && i < failed {
			failed, failure = i, cr.Err
		}
	})
	if failure != nil {
		panic(failure)
	}
	out := make([][]Result, len(cells))
	for i := range cells {
		out[i] = flat[i*perCell : (i+1)*perCell]
	}
	return out
}

// Replication folds one cell's per-seed replicas into mergeable aggregates:
// mean latency, tail percentiles and monetary cost, each with min/max and
// stderr bands across seeds.
type Replication struct {
	Seeds               []int64
	Avg, P95, P99, Cost metrics.Agg
	// First is the replica at the first seed, preserved so single-seed
	// sweeps stay bit-compatible with the historical serial entry points.
	First metrics.Summary
}

// NewReplication aggregates a cell's replicas (as returned by RunCells).
func NewReplication(rs []Result) Replication {
	var rep Replication
	for i, r := range rs {
		if i == 0 {
			rep.First = r.Stats.Latency
		}
		rep.Seeds = append(rep.Seeds, r.Scenario.Seed)
		rep.Avg.Add(r.Stats.Latency.Avg)
		rep.P95.Add(r.Stats.Latency.P95)
		rep.P99.Add(r.Stats.Latency.P99)
		rep.Cost.Add(r.Stats.CostUSD)
	}
	return rep
}

// Replicated reports whether the cell ran at more than one seed, i.e.
// whether the bands carry information beyond the point estimate.
func (r Replication) Replicated() bool { return r.Avg.N > 1 }

// Fingerprint returns a stable hex digest of everything observable in the
// result: scenario identity, latency distribution, cost, counters, sampled
// series and the configuration log. Two runs are byte-identical iff their
// fingerprints match, which is how the determinism tests compare the
// parallel sweep against the serial path.
//
// The digest material streams into SHA-256 through one reused buffer;
// floats are written as strconv's 'x' form, the same bytes as fmt's %x.
func (r Result) Fingerprint() string {
	w := fpWriter{h: sha256.New(), buf: make([]byte, 0, fpBufSize)}
	sc := r.Scenario
	w.buf = fmt.Appendf(w.buf, "sys=%s spec=%s trace=%s odn=%d rate=%g cv=%g mix=%v drain=%g seed=%d\n",
		sc.System, sc.Spec.Name, sc.Trace.Name, sc.OnDemandN, sc.Rate, sc.CV, //detlint:allow fpdigest — Rate/CV are scenario INPUTS, never computed, so shortest-%g cannot drift; the bytes are pinned by the committed goldens
		sc.AllowOnDemand, sc.Drain, sc.Seed) //detlint:allow fpdigest — Drain is a scenario input constant; %g bytes are golden-pinned
	if sc.Features != nil {
		w.buf = fmt.Appendf(w.buf, "features=%+v\n", *sc.Features)
	}
	// Scenario-library axes are fingerprinted only when set, keeping the
	// historical digests of the fixed paper scenarios byte-identical.
	if sc.AvailModel != "" || sc.Fleet != "" || sc.Policy != "" || sc.Market != "" {
		w.buf = fmt.Appendf(w.buf, "avail=%s fleet=%s policy=%s market=%s\n",
			sc.AvailModel, sc.Fleet, sc.Policy, sc.Market)
	}
	st := r.Stats
	w.buf = fmt.Appendf(w.buf, "sub=%d done=%d cost=%x lat=%+v mig=%d rel=%d give=%d rec=%d od=%d\n",
		st.Submitted, st.Completed, st.CostUSD, st.Latency,
		st.Migrations, st.Reloads, st.CacheGiveUps, st.TokensRecovered, st.OnDemandAllocated)
	if st.Latencies != nil {
		for _, v := range st.Latencies.Values() {
			w.buf = append(strconv.AppendFloat(w.buf, v, 'x', -1, 64), ' ')
			w.spill()
		}
		w.buf = append(w.buf, '\n')
	}
	w.samples("pr", st.PerRequest.Samples)
	for _, c := range st.ConfigLog {
		w.buf = fmt.Appendf(w.buf, "cfg %x %v %s\n", c.At, c.Config, c.Reason)
		w.spill()
	}
	w.samples("spot", r.SpotCount.Samples)
	w.samples("od", r.OnDemandCount.Samples)
	w.buf = fmt.Appendf(w.buf, "final=%v\n", r.FinalConfig)
	w.h.Write(w.buf)
	return hex.EncodeToString(w.h.Sum(w.buf[:0]))
}

// fpBufSize is Fingerprint's buffer: it is handed to the hash whenever it
// holds more than fpBufSize-fpLineMax bytes, so the sampled lines between
// spills never grow it.
const (
	fpBufSize = 4096
	fpLineMax = 256
)

// fpWriter streams Fingerprint's digest material into a hash.
type fpWriter struct {
	h   hash.Hash
	buf []byte
}

// spill hands the buffer to the hash once it nears its capacity.
func (w *fpWriter) spill() {
	if len(w.buf) > fpBufSize-fpLineMax {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

// samples writes one "<tag> <at> <value>" line per sample, floats in %x form.
func (w *fpWriter) samples(tag string, ss []metrics.Sample) {
	for _, s := range ss {
		w.buf = append(append(w.buf, tag...), ' ')
		w.buf = append(strconv.AppendFloat(w.buf, s.At, 'x', -1, 64), ' ')
		w.buf = append(strconv.AppendFloat(w.buf, s.Value, 'x', -1, 64), '\n')
		w.spill()
	}
}
