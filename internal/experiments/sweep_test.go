package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"spotserve/internal/core"
	"spotserve/internal/model"
	"spotserve/internal/trace"
	"spotserve/internal/workload"
)

// sweepScenarios builds a deliberately diverse scenario list: every system,
// several models and traces, on-demand mixing, a fluctuating workload, an
// ablated feature set, and fleet sampling — so the determinism comparison
// covers every code path the figures exercise.
func sweepScenarios(seed int64) []Scenario {
	var scs []Scenario
	for _, sys := range Systems() {
		scs = append(scs, DefaultScenario(sys, model.OPT6B7, trace.AS(), seed))
	}
	mix := DefaultScenario(SpotServe, model.GPT20B, trace.BS(), seed)
	mix.AllowOnDemand = true
	mix.SampleFleet = true
	scs = append(scs, mix)

	fluct := DefaultScenario(Reparallel, model.GPT20B, trace.APrimeS(), seed)
	fluct.AllowOnDemand = true
	fluct.RateFn = workload.StepRate(workload.MAFSteps(fluct.Rate))
	scs = append(scs, fluct)

	feat := core.AllFeatures()
	feat.MigrationPlanner = false
	abl := DefaultScenario(SpotServe, model.LLaMA30B, trace.BS(), seed)
	abl.Features = &feat
	scs = append(scs, abl)

	od := DefaultScenario(OnDemandOnly, model.OPT6B7, trace.Trace{
		Name: "OD", Horizon: 600, Events: []trace.Event{{At: 0, Count: 0}},
	}, seed)
	od.OnDemandN = 4
	scs = append(scs, od)
	return scs
}

// runFlat runs each scenario once at its own seed through RunCells and
// returns the results in input order.
func runFlat(scs []Scenario, workers int) []Result {
	var out []Result
	for _, reps := range (Sweep{Parallel: workers}).RunCells(scs) {
		out = append(out, reps...)
	}
	return out
}

// TestParallelMatchesSerial locks in the harness's core guarantee: the
// parallel sweep produces byte-identical results to the serial path at the
// same seeds, for every worker count.
func TestParallelMatchesSerial(t *testing.T) {
	scs := sweepScenarios(7)
	serial := runFlat(scs, 1)
	for _, workers := range []int{2, 4, 8} {
		par := runFlat(scs, workers)
		for i := range serial {
			if sf, pf := serial[i].Fingerprint(), par[i].Fingerprint(); sf != pf {
				t.Errorf("workers=%d scenario %d (%s/%s/%s): parallel fingerprint %s != serial %s",
					workers, i, scs[i].System, scs[i].Spec.Name, scs[i].Trace.Name, pf, sf)
			}
			// Structural equality too (RateFn is a func value, which
			// reflect.DeepEqual only matches when nil — drop it).
			a, b := serial[i], par[i]
			a.Scenario.RateFn, b.Scenario.RateFn = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Errorf("workers=%d scenario %d: results differ structurally", workers, i)
			}
		}
	}
}

// TestSerialRerunsAgree asserts two serial runs of the same Scenario are
// identical — the sim kernel's stable FIFO tie-break guarantee.
func TestSerialRerunsAgree(t *testing.T) {
	for _, sc := range sweepScenarios(11)[:4] {
		a, b := Run(sc), Run(sc)
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("%s/%s/%s: two serial runs of the same scenario disagree",
				sc.System, sc.Spec.Name, sc.Trace.Name)
		}
	}
}

// TestRunCellsReplication checks the seed expansion: every cell runs once
// per sweep seed, replicas land grouped and ordered, and the folded
// aggregates match the per-replica stats.
func TestRunCellsReplication(t *testing.T) {
	seeds := SeedRange(3, 4)
	sw := Sweep{Parallel: 4, Seeds: seeds}
	cells := []Scenario{
		DefaultScenario(SpotServe, model.OPT6B7, trace.AS(), 0),
		DefaultScenario(Reroute, model.OPT6B7, trace.BS(), 0),
	}
	reps := sw.RunCells(cells)
	if len(reps) != len(cells) {
		t.Fatalf("cells out = %d, want %d", len(reps), len(cells))
	}
	for i, rs := range reps {
		if len(rs) != len(seeds) {
			t.Fatalf("cell %d: %d replicas, want %d", i, len(rs), len(seeds))
		}
		for j, r := range rs {
			if r.Scenario.Seed != seeds[j] {
				t.Errorf("cell %d replica %d: seed %d, want %d", i, j, r.Scenario.Seed, seeds[j])
			}
			if r.Scenario.System != cells[i].System {
				t.Errorf("cell %d replica %d: system %s, want %s", i, j, r.Scenario.System, cells[i].System)
			}
		}
		rep := NewReplication(rs)
		if rep.Avg.N != len(seeds) || !rep.Replicated() {
			t.Fatalf("cell %d: replication N = %d, want %d", i, rep.Avg.N, len(seeds))
		}
		if rep.First != rs[0].Stats.Latency {
			t.Errorf("cell %d: First summary is not the first replica's", i)
		}
		if rep.Avg.Min() > rep.Avg.Mean() || rep.Avg.Mean() > rep.Avg.Max() {
			t.Errorf("cell %d: band out of order: min %v mean %v max %v",
				i, rep.Avg.Min(), rep.Avg.Mean(), rep.Avg.Max())
		}
		// Different seeds should actually vary the workload: with 4
		// seeds, at least one latency statistic must spread.
		if rep.Avg.Min() == rep.Avg.Max() && rep.Cost.Min() == rep.Cost.Max() {
			t.Errorf("cell %d: 4 seeds produced zero spread — replication is not replicating", i)
		}
	}
}

// TestRunCellsWithoutSeedsKeepsOwn verifies that an empty seed list leaves
// each scenario's own seed untouched (the RunAll-compatible mode).
func TestRunCellsWithoutSeedsKeepsOwn(t *testing.T) {
	a := DefaultScenario(SpotServe, model.OPT6B7, trace.AS(), 21)
	b := DefaultScenario(SpotServe, model.OPT6B7, trace.AS(), 22)
	reps := Sweep{Parallel: 2}.RunCells([]Scenario{a, b})
	if len(reps) != 2 || len(reps[0]) != 1 || len(reps[1]) != 1 {
		t.Fatalf("shape = %v, want 2 cells × 1 replica", [2]int{len(reps[0]), len(reps[1])})
	}
	if reps[0][0].Scenario.Seed != 21 || reps[1][0].Scenario.Seed != 22 {
		t.Errorf("seeds = %d,%d, want 21,22", reps[0][0].Scenario.Seed, reps[1][0].Scenario.Seed)
	}
}

// TestFigureSweepsMatchSerialEntryPoints pins the compatibility contract:
// FigureN(seed) and FigureNSweep(SingleSeed(seed)) under any worker count
// agree with each other.
func TestFigureSweepsMatchSerialEntryPoints(t *testing.T) {
	serial := Figure9Sweep(Sweep{Parallel: 1, Seeds: []int64{5}})
	par := Figure9Sweep(Sweep{Parallel: 8, Seeds: []int64{5}})
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("Figure9 parallel sweep differs from serial sweep at the same seed")
	}
	entry := Figure9(5)
	if !reflect.DeepEqual(serial, entry) {
		t.Fatal("Figure9(seed) differs from Figure9Sweep(SingleSeed(seed))")
	}
}

// TestRunCellsPanicPropagates asserts the abort contract: a failed job
// (malformed scenario) surfaces as a panic on the caller's goroutine instead
// of crashing the process, after the pool has drained, carrying the
// lowest-index failure even when several workers fail concurrently.
func TestRunCellsPanicPropagates(t *testing.T) {
	scs := []Scenario{
		DefaultScenario(SpotServe, model.OPT6B7, trace.AS(), 1),
		{System: System("bogus"), Spec: model.OPT6B7, Trace: trace.AS(), Rate: 1, Seed: 1},
		{System: System("bogus2"), Spec: model.OPT6B7, Trace: trace.AS(), Rate: 1, Seed: 1},
		DefaultScenario(Reroute, model.OPT6B7, trace.AS(), 1),
	}
	healthy := 0 // OnResult is serialized by the pool
	sw := Sweep{Parallel: 4, OnResult: func(int, Result, bool) { healthy++ }}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic from unknown system to propagate")
		}
		if msg := fmt.Sprint(p); !strings.Contains(msg, `cell 1 `) || !strings.Contains(msg, `"bogus"`) {
			t.Fatalf("panic %q, want the lowest-index failure (cell 1, bogus)", msg)
		}
		if healthy != 2 {
			t.Fatalf("%d healthy jobs delivered before the panic, want 2 (the pool drains first)", healthy)
		}
	}()
	sw.RunCells(scs)
}

func TestSeedRange(t *testing.T) {
	got := SeedRange(10, 3)
	want := []int64{10, 11, 12}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SeedRange(10,3) = %v, want %v", got, want)
	}
	if one := SeedRange(4, 0); len(one) != 1 || one[0] != 4 {
		t.Errorf("SeedRange(4,0) = %v, want [4]", one)
	}
}

func TestRunCellsEmpty(t *testing.T) {
	if out := (Sweep{Parallel: 8}).RunCells(nil); len(out) != 0 {
		t.Fatalf("RunCells(nil) = %d results", len(out))
	}
	(Sweep{Seeds: SeedRange(1, 3)}).Run(nil, func(int, CellResult, bool) {
		t.Fatal("Run(nil) delivered a job")
	})
}

// mapCache is a minimal ResultCache for the hook tests.
type mapCache struct {
	mu   sync.Mutex
	m    map[string]Result
	hits int
}

func newMapCache() *mapCache { return &mapCache{m: map[string]Result{}} }

func (c *mapCache) Get(key string) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	if ok {
		c.hits++
	}
	return r, ok
}

func (c *mapCache) Put(key string, r Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = r
}

// TestCacheKeyRules pins which scenarios may enter the result cache: every
// behavior-carrying closure must be named by a registry axis, and equal
// identities produce equal keys while any identity field changes the key.
func TestCacheKeyRules(t *testing.T) {
	base := DefaultScenario(SpotServe, model.OPT6B7, trace.AS(), 3)
	key1, ok := base.CacheKey()
	if !ok || key1 == "" {
		t.Fatal("named-trace scenario should be cacheable")
	}
	if key2, _ := base.CacheKey(); key2 != key1 {
		t.Fatal("CacheKey not stable")
	}
	seeded := base
	seeded.Seed = 4
	if k, _ := seeded.CacheKey(); k == key1 {
		t.Fatal("seed change must change the key")
	}

	anonTrace := base
	anonTrace.TraceFn = func(seed int64) trace.Trace { return trace.AS() }
	if _, ok := anonTrace.CacheKey(); ok {
		t.Fatal("anonymous TraceFn without AvailModel must not be cacheable")
	}
	anonTrace.AvailModel = "diurnal"
	if _, ok := anonTrace.CacheKey(); !ok {
		t.Fatal("named availability model should restore cacheability")
	}

	ratefn := base
	ratefn.RateFn = workload.StepRate(workload.MAFSteps(ratefn.Rate))
	if _, ok := ratefn.CacheKey(); ok {
		t.Fatal("RateFn scenarios must not be cacheable")
	}

	unnamed := base
	unnamed.Trace = trace.Trace{}
	if _, ok := unnamed.CacheKey(); ok {
		t.Fatal("unnamed trace must not be cacheable")
	}
}

// TestSweepCacheEquivalence is the harness-level half of the daemon's
// determinism bar: a cached sweep replays byte-identical results, and the
// second pass is served entirely from the cache.
func TestSweepCacheEquivalence(t *testing.T) {
	cells := []Scenario{
		DefaultScenario(SpotServe, model.OPT6B7, trace.AS(), 0),
		DefaultScenario(Reroute, model.OPT6B7, trace.BS(), 0),
	}
	sw := Sweep{Parallel: 4, Seeds: SeedRange(1, 2)}
	plain := sw.RunCells(cells)

	cache := newMapCache()
	cached := sw
	cached.Cache = cache
	first := cached.RunCells(cells)
	if cache.hits != 0 {
		t.Fatalf("cold cache hit %d times", cache.hits)
	}
	second := cached.RunCells(cells)
	if want := len(cells) * len(sw.Seeds); cache.hits != want {
		t.Fatalf("warm pass hit %d, want %d (fully cached)", cache.hits, want)
	}
	for i := range plain {
		for j := range plain[i] {
			pf := plain[i][j].Fingerprint()
			if f := first[i][j].Fingerprint(); f != pf {
				t.Errorf("cell %d seed %d: cache-on (cold) fingerprint differs", i, j)
			}
			if f := second[i][j].Fingerprint(); f != pf {
				t.Errorf("cell %d seed %d: cache-on (warm) fingerprint differs", i, j)
			}
		}
	}
}

// TestOnResultCoversEveryJob asserts the callback fires exactly once per
// flattened job with the right index, under serial and parallel pools, and
// reports cache provenance.
func TestOnResultCoversEveryJob(t *testing.T) {
	cells := []Scenario{
		DefaultScenario(SpotServe, model.OPT6B7, trace.AS(), 0),
		DefaultScenario(Reroute, model.OPT6B7, trace.BS(), 0),
	}
	for _, workers := range []int{1, 4} {
		cache := newMapCache()
		for pass := 0; pass < 2; pass++ {
			seen := map[int]bool{}
			var cachedCount int
			sw := Sweep{Parallel: workers, Seeds: SeedRange(1, 3), Cache: cache}
			sw.OnResult = func(i int, r Result, fromCache bool) {
				if seen[i] {
					t.Errorf("workers=%d pass=%d: index %d delivered twice", workers, pass, i)
				}
				seen[i] = true
				if fromCache {
					cachedCount++
				}
				if want := sw.Seeds[i%len(sw.Seeds)]; r.Scenario.Seed != want {
					t.Errorf("index %d carries seed %d, want %d", i, r.Scenario.Seed, want)
				}
			}
			out := sw.RunCells(cells)
			if len(seen) != len(cells)*len(sw.Seeds) {
				t.Fatalf("workers=%d pass=%d: callback fired %d times, want %d",
					workers, pass, len(seen), len(cells)*len(sw.Seeds))
			}
			wantCached := 0
			if pass == 1 {
				wantCached = len(cells) * len(sw.Seeds)
			}
			if cachedCount != wantCached {
				t.Fatalf("workers=%d pass=%d: %d cached deliveries, want %d",
					workers, pass, cachedCount, wantCached)
			}
			_ = out
		}
	}
}
