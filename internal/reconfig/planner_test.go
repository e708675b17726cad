package reconfig

import (
	"math"
	"testing"

	"spotserve/internal/cloud"
	"spotserve/internal/config"
	"spotserve/internal/cost"
	"spotserve/internal/model"
)

func planFixture(t *testing.T, spec model.Spec, old, target config.Config, nInst int) ([]DeviceContext, Mapping, *cost.Estimator) {
	t.Helper()
	gpus := mkGPUs(nInst, 4)
	devs := devicesFor(spec, gpus, old)
	if target.GPUs() > len(devs) {
		t.Fatalf("fixture: target needs %d GPUs, have %d", target.GPUs(), len(devs))
	}
	m, err := MapDevices(spec, devs, target, MapperOptions{UseKM: true})
	if err != nil {
		t.Fatal(err)
	}
	return devs, m, cost.NewEstimator(cost.DefaultParams(), spec)
}

func defaultPlanOpts() PlanOptions {
	return PlanOptions{
		Progressive:  true,
		MemOpt:       true,
		UmaxBytes:    cost.DefaultParams().BufMaxBytes,
		MigrateCache: true,
	}
}

func TestPlanNoopWhenConfigUnchanged(t *testing.T) {
	spec := model.GPT20B
	cfg := config.Config{D: 1, P: 3, M: 4, B: 1}
	devs, m, est := planFixture(t, spec, cfg, cfg, 3)
	plan, err := PlanMigration(spec, est, devs, m, defaultPlanOpts())
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalBytes > 1 {
		t.Fatalf("identical config migrated %v bytes", plan.TotalBytes)
	}
	tl := plan.Schedule(est, true)
	if tl.Duration > 1e-9 {
		t.Fatalf("no-op migration took %v", tl.Duration)
	}
}

func TestPlanCoversMissingContext(t *testing.T) {
	spec := model.GPT20B
	old := config.Config{D: 1, P: 2, M: 8, B: 1}
	target := config.Config{D: 1, P: 3, M: 4, B: 1}
	devs, m, est := planFixture(t, spec, old, target, 4)
	plan, err := PlanMigration(spec, est, devs, m, defaultPlanOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Moved + reused = total needed by the mesh.
	if math.Abs((plan.TotalBytes+m.ReusedModelBytes)-m.TotalModelBytes) > 2 {
		t.Fatalf("moved %v + reused %v != needed %v",
			plan.TotalBytes, m.ReusedModelBytes, m.TotalModelBytes)
	}
	// Live replicas exist for every layer: nothing from storage.
	if plan.StorageBytes != 0 {
		t.Fatalf("storage bytes = %v with live sources available", plan.StorageBytes)
	}
	if len(plan.LayerOrder) == 0 {
		t.Fatal("no layers ordered")
	}
}

func TestPlanStorageFallbackWhenNoReplica(t *testing.T) {
	// Cold start: no device holds anything, so everything loads from
	// storage (the §4.2 total-context-loss path).
	spec := model.GPT20B
	target := config.Config{D: 1, P: 3, M: 4, B: 1}
	gpus := mkGPUs(3, 4)
	devs := make([]DeviceContext, len(gpus))
	for i, g := range gpus {
		devs[i] = DeviceContext{GPU: g, CachePipeline: -1}
	}
	m, err := MapDevices(spec, devs, target, MapperOptions{UseKM: true})
	if err != nil {
		t.Fatal(err)
	}
	est := cost.NewEstimator(cost.DefaultParams(), spec)
	plan, err := PlanMigration(spec, est, devs, m, defaultPlanOpts())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.StorageBytes-spec.ParamBytes) > 2 {
		t.Fatalf("storage bytes = %v, want full model %v", plan.StorageBytes, spec.ParamBytes)
	}
	tl := plan.Schedule(est, true)
	// Cold load must be in the minutes regime — the cost the paper's
	// context reuse avoids (~15 s/GPU at 0.4 GB/s for ~6.2 GB shards).
	if tl.Duration < 10 {
		t.Fatalf("cold load took only %v s", tl.Duration)
	}
}

func TestProgressiveStagesReadyEarlier(t *testing.T) {
	spec := model.GPT20B
	old := config.Config{D: 1, P: 2, M: 8, B: 1}
	target := config.Config{D: 1, P: 3, M: 4, B: 1}
	devs, m, est := planFixture(t, spec, old, target, 4)
	plan, err := PlanMigration(spec, est, devs, m, defaultPlanOpts())
	if err != nil {
		t.Fatal(err)
	}
	prog := plan.Schedule(est, true)
	blk := plan.Schedule(est, false)
	if math.Abs(prog.Duration-blk.Duration) > 1e-9 {
		t.Fatalf("total duration should match: %v vs %v", prog.Duration, blk.Duration)
	}
	// Progressive: at least one stage ready strictly before the end.
	early := false
	for p, r := range prog.StageReady {
		if r < prog.Duration-1e-9 {
			early = true
		}
		if blk.StageReady[p] != blk.Duration {
			t.Fatal("blocking schedule staggered stages")
		}
	}
	if !early {
		t.Fatal("progressive schedule has no early stage")
	}
}

func TestMemOptRespectsUmax(t *testing.T) {
	spec := model.GPT20B
	old := config.Config{D: 1, P: 2, M: 8, B: 1}
	target := config.Config{D: 1, P: 3, M: 4, B: 1}
	devs, m, est := planFixture(t, spec, old, target, 4)

	umax := 0.6 * model.GB
	opts := defaultPlanOpts()
	opts.UmaxBytes = umax
	planOpt, err := PlanMigration(spec, est, devs, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.MemOpt = false
	planNaive, err := PlanMigration(spec, est, devs, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	peak := func(p *Plan) float64 {
		mx := 0.0
		for _, v := range p.PeakBufferBytes {
			if v > mx {
				mx = v
			}
		}
		return mx
	}
	if peak(planOpt) > peak(planNaive)+1 {
		t.Fatalf("memopt peak %v above naive %v", peak(planOpt), peak(planNaive))
	}
	// Both orders must cover the same layers.
	if len(planOpt.LayerOrder) != len(planNaive.LayerOrder) {
		t.Fatalf("order lengths differ: %d vs %d",
			len(planOpt.LayerOrder), len(planNaive.LayerOrder))
	}
	seen := map[int]bool{}
	for _, l := range planOpt.LayerOrder {
		if seen[l] {
			t.Fatalf("layer %d ordered twice", l)
		}
		seen[l] = true
	}
}

func TestMemOptHalvesPeakOnBackwardShift(t *testing.T) {
	// Preempting the instance with the model's front shards forces stage
	// boundaries backward; Algorithm 2's ordering must then beat the
	// naive ascending order on peak buffer (it interleaves releases).
	spec := model.GPT20B
	est := cost.NewEstimator(cost.DefaultParams(), spec)
	old := config.Config{D: 1, P: 2, M: 8, B: 1}
	target := config.Config{D: 1, P: 3, M: 4, B: 1}
	gpus := mkGPUs(4, 4)
	devs := devicesFor(spec, gpus, old)[4:]
	mapping, err := MapDevices(spec, devs, target, MapperOptions{UseKM: true})
	if err != nil {
		t.Fatal(err)
	}
	peak := func(memopt bool) float64 {
		plan, err := PlanMigration(spec, est, devs, mapping, PlanOptions{
			Progressive: true, MemOpt: memopt, UmaxBytes: 1e9,
		})
		if err != nil {
			t.Fatal(err)
		}
		mx := 0.0
		for _, v := range plan.PeakBufferBytes {
			if v > mx {
				mx = v
			}
		}
		return mx
	}
	naive, opt := peak(false), peak(true)
	if opt >= naive*0.75 {
		t.Fatalf("memopt peak %v not clearly below naive %v", opt, naive)
	}
}

func TestCacheTransfersPrioritizedAndSized(t *testing.T) {
	spec := model.GPT20B
	old := config.Config{D: 1, P: 2, M: 8, B: 1}
	target := config.Config{D: 1, P: 3, M: 4, B: 1}
	gpus := mkGPUs(4, 4)
	devs := devicesFor(spec, gpus, old)
	// The old pipeline 0 carried a batch with 1200 cached tokens.
	for i := 0; i < old.GPUs(); i++ {
		devs[i].CachePipeline = 0
		devs[i].CacheRect = devs[i].ModelCtx
		devs[i].CacheTokens = 1200
	}
	m, err := MapDevices(spec, devs, target, MapperOptions{UseKM: true, Inherit: map[int]int{0: 0}})
	if err != nil {
		t.Fatal(err)
	}
	est := cost.NewEstimator(cost.DefaultParams(), spec)
	opts0 := defaultPlanOpts()
	opts0.Inherit = map[int]int{0: 0}
	plan, err := PlanMigration(spec, est, devs, m, opts0)
	if err != nil {
		t.Fatal(err)
	}
	var cacheBytes float64
	for _, tr := range plan.Cache {
		if !m.assigned(tr.To.ID) {
			t.Fatalf("cache transfer to gpu %d, which the mapping leaves out of the mesh", tr.To.ID)
		}
		cacheBytes += tr.Bytes
	}
	// Full cache = tokens × KV/token across all layers; moved + reused = full.
	full := 1200 * spec.KVBytesPerToken()
	if cacheBytes+m.ReusedCacheBytes < full*0.99 || cacheBytes+m.ReusedCacheBytes > full*1.01 {
		t.Fatalf("cache moved %v + reused %v != full %v", cacheBytes, m.ReusedCacheBytes, full)
	}
	// Cache must complete no later than the whole migration.
	tl := plan.Schedule(est, true)
	if tl.CacheDone > tl.Duration+1e-9 {
		t.Fatal("cache finished after migration end")
	}
	// Disabling cache migration removes the transfers.
	opts := opts0
	opts.MigrateCache = false
	plan2, err := PlanMigration(spec, est, devs, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan2.Cache) != 0 {
		t.Fatal("cache transfers present with MigrateCache=false")
	}
}

func TestMigrationFarCheaperThanReload(t *testing.T) {
	// The end-to-end premise (§3): context migration during reconfig is
	// much cheaper than the Reparallelization baseline's full restart.
	spec := model.GPT20B
	old := config.Config{D: 1, P: 2, M: 8, B: 1}
	target := config.Config{D: 1, P: 3, M: 4, B: 1}
	devs, m, est := planFixture(t, spec, old, target, 4)
	plan, err := PlanMigration(spec, est, devs, m, defaultPlanOpts())
	if err != nil {
		t.Fatal(err)
	}
	tl := plan.Schedule(est, true)
	reload := est.ReloadTime(target.P, target.M)
	if tl.Duration >= reload/2 {
		t.Fatalf("migration %v s not clearly cheaper than reload %v s", tl.Duration, reload)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	spec := model.LLaMA30B
	old := config.Config{D: 1, P: 2, M: 8, B: 1}
	target := config.Config{D: 1, P: 4, M: 4, B: 1}
	devs, m, est := planFixture(t, spec, old, target, 4)
	p1, err := PlanMigration(spec, est, devs, m, defaultPlanOpts())
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := PlanMigration(spec, est, devs, m, defaultPlanOpts())
	t1, t2 := p1.Schedule(est, true), p2.Schedule(est, true)
	if t1.Duration != t2.Duration || t1.CacheDone != t2.CacheDone {
		t.Fatal("schedule not deterministic")
	}
	for i := range t1.StageReady {
		if t1.StageReady[i] != t2.StageReady[i] {
			t.Fatal("stage readiness not deterministic")
		}
	}
}

// TestFindSourceRequiresMissingOverlap pins the fully-preempted-source
// edge: a live device holding only the sub-rectangle the receiver already
// has cannot serve as a migration source. Before the fix the planner named
// an arbitrary overlapping device as From — simulating a fast peer copy of
// bytes that peer never held; the transfer must instead fall through to a
// cold storage fetch.
func TestFindSourceRequiresMissingOverlap(t *testing.T) {
	spec := model.OPT6B7
	target := config.Config{D: 1, P: 1, M: 2, B: 1}
	gpus := mkGPUs(2, 4)
	quarter := model.Rect{LayerLo: 0, LayerHi: spec.Layers, FracLo: 0, FracHi: 0.25}
	devs := []DeviceContext{
		// Receiver for position (0,0,0) wants [0, 0.5) but holds [0, 0.25).
		{GPU: gpus[0], ModelCtx: quarter, CachePipeline: -1},
		// A replica of exactly what the receiver already has: useless as a
		// source for the missing [0.25, 0.5) — all real holders of that
		// sub-rectangle were preempted.
		{GPU: gpus[1], ModelCtx: quarter, CachePipeline: -1},
		// Holder of position (0,0,1)'s full [0.5, 1) shard (no transfer).
		{GPU: gpus[2], ModelCtx: model.Rect{LayerLo: 0, LayerHi: spec.Layers, FracLo: 0.5, FracHi: 1}, CachePipeline: -1},
	}
	mapping := Mapping{
		Target: target,
		Assign: map[config.Position]*cloud.GPU{
			{D: 0, P: 0, M: 0}: gpus[0],
			{D: 0, P: 0, M: 1}: gpus[2],
		},
	}
	est := cost.NewEstimator(cost.DefaultParams(), spec)
	plan, err := PlanMigration(spec, est, devs, mapping, defaultPlanOpts())
	if err != nil {
		t.Fatal(err)
	}
	if plan.StorageBytes <= 0 {
		t.Fatal("missing context with no live holder must load from storage")
	}
	for _, trs := range plan.ByLayer {
		for _, tr := range trs {
			if tr.To != gpus[0] {
				continue
			}
			if tr.From != nil {
				t.Fatalf("transfer to receiver sourced from gpu %d, which holds only the receiver's own sub-rect", tr.From.ID)
			}
		}
	}

	// Control: once any live device holds part of the missing interval, it
	// must be chosen over storage.
	devs[1].ModelCtx = model.Rect{LayerLo: 0, LayerHi: spec.Layers, FracLo: 0.25, FracHi: 0.5}
	plan2, err := PlanMigration(spec, est, devs, mapping, defaultPlanOpts())
	if err != nil {
		t.Fatal(err)
	}
	if plan2.StorageBytes != 0 {
		t.Fatalf("storage fetch of %v bytes despite a live holder of the missing sub-rect", plan2.StorageBytes)
	}
	for _, trs := range plan2.ByLayer {
		for _, tr := range trs {
			if tr.To == gpus[0] && tr.From != gpus[1] {
				t.Fatalf("transfer to receiver sourced from %v, want the missing-rect holder", tr.From)
			}
		}
	}
}
