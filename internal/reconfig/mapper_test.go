package reconfig

import (
	"math"
	"testing"

	"spotserve/internal/cloud"
	"spotserve/internal/config"
	"spotserve/internal/km"
	"spotserve/internal/model"
)

// mkGPUs fabricates nInst instances with gpusPer GPUs each.
func mkGPUs(nInst, gpusPer int) []*cloud.GPU {
	var out []*cloud.GPU
	id := int64(0)
	for i := 0; i < nInst; i++ {
		inst := &cloud.Instance{ID: int64(i), Kind: cloud.Spot, State: cloud.Running}
		for s := 0; s < gpusPer; s++ {
			g := &cloud.GPU{ID: id, Slot: s, Inst: inst}
			inst.GPUs = append(inst.GPUs, g)
			out = append(out, g)
			id++
		}
	}
	return out
}

// devicesFor binds each GPU (in order) to a position of cfg and fills the
// matching model context; extra GPUs hold nothing.
func devicesFor(spec model.Spec, gpus []*cloud.GPU, cfg config.Config) []DeviceContext {
	positions := cfg.Positions()
	out := make([]DeviceContext, len(gpus))
	for i, g := range gpus {
		dc := DeviceContext{GPU: g, CachePipeline: -1}
		if i < len(positions) {
			pos := positions[i]
			dc.ModelCtx = model.PositionRect(spec, cfg.P, cfg.M, pos.P, pos.M)
		}
		out[i] = dc
	}
	return out
}

// withCaches gives every device holding a position of old that pipeline's
// KV cache over its model shard (token counts differ per device).
func withCaches(devs []DeviceContext, old config.Config) []DeviceContext {
	for i, pos := range old.Positions() {
		devs[i].CachePipeline = pos.D
		devs[i].CacheRect = devs[i].ModelCtx
		devs[i].CacheTokens = 64*(pos.D+1) + i
	}
	return devs
}

// mapFleet is one fabricated device-mapping problem.
type mapFleet struct {
	name    string
	spec    model.Spec
	devs    []DeviceContext
	target  config.Config
	inherit map[int]int
	// flat marks a fleet whose instance shapes make the hierarchical match
	// fail, so MapDevices takes the flat fallback.
	flat bool
}

// mapFleets fabricates fleets covering every branch of edgeWeights.
func mapFleets() []mapFleet {
	// D≥2 reshaping both P and M on 12×4 GPUs, as BenchmarkDeviceMapping.
	reshape := mapFleet{name: "reshape", spec: model.GPT20B,
		devs:   devicesFor(model.GPT20B, mkGPUs(12, 4), config.Config{D: 3, P: 2, M: 8, B: 1}),
		target: config.Config{D: 4, P: 3, M: 4, B: 1}}

	// Half the GPUs are spares with empty contexts; one instance is
	// faster, so the speed bonus is on.
	spareGPUs := mkGPUs(4, 4)
	spareGPUs[12].Inst.Type.Speed = 1.5
	spares := mapFleet{name: "spares", spec: model.LLaMA30B,
		devs:   devicesFor(model.LLaMA30B, spareGPUs, config.Config{D: 1, P: 2, M: 4, B: 1}),
		target: config.Config{D: 2, P: 3, M: 2, B: 1}}

	// KV caches: new pipeline 0 inherits old 2, new 1 inherits old 0 (the
	// lowest index a cache guard can admit) and new 2 inherits nothing.
	// One device holds an empty cache, one a released cache (no pipeline,
	// stale rectangle and tokens) and one a cache over part of its shard.
	kvOld := config.Config{D: 3, P: 2, M: 4, B: 1}
	kvDevs := withCaches(devicesFor(model.GPT20B, mkGPUs(6, 4), kvOld), kvOld)
	kvDevs[5].CacheTokens = 0
	kvDevs[6].CachePipeline = -1
	kvDevs[9].CacheRect.LayerHi = kvDevs[9].CacheRect.LayerLo + 3
	kv := mapFleet{name: "kv-inherit", spec: model.GPT20B, devs: kvDevs,
		target:  config.Config{D: 3, P: 3, M: 2, B: 1},
		inherit: map[int]int{0: 2, 1: 0}}

	// Instances of 4, 3 and 3 GPUs: two blocks of 4 positions cannot both
	// land on whole instances, so MapDevices falls back to the flat match.
	g := mkGPUs(3, 4)
	g = append(g[:7:7], g[8:11]...)
	flatOld := config.Config{D: 1, P: 2, M: 4, B: 1}
	flat := mapFleet{name: "flat-fallback", spec: model.OPT6B7,
		devs:    withCaches(devicesFor(model.OPT6B7, g, flatOld), flatOld),
		target:  config.Config{D: 2, P: 2, M: 2, B: 1},
		inherit: map[int]int{1: 0}, flat: true}
	return []mapFleet{reshape, spares, kv, flat}
}

// TestReuseTableMatchesEdgeWeights pins the reuse table to its
// definition: every device×position weight the matchings read must equal
// edgeWeights' modelBytes + cacheBytes bit for bit, so the matrices KM
// solves — and with them every assignment and km.Cache lookup — are those
// of pricing each cell afresh.
func TestReuseTableMatchesEdgeWeights(t *testing.T) {
	for _, f := range mapFleets() {
		t.Run(f.name, func(t *testing.T) {
			positions := f.target.Positions()
			var buf []model.Rect
			var tbl reuseTable
			tbl.build(f.spec, f.devs, positions, f.target, stageShardRects(f.spec, f.target, &buf), f.inherit)
			cached := 0
			for i, u := range f.devs {
				for j, pos := range positions {
					want := model.PositionRect(f.spec, f.target.P, f.target.M, pos.P, pos.M)
					mb, cb := edgeWeights(f.spec, u, want, pos, f.inherit)
					if got := tbl.weight(i, j); math.Float64bits(got) != math.Float64bits(mb+cb) {
						t.Fatalf("device %d at %v: table %v, edgeWeights %v + %v", i, pos, got, mb, cb)
					}
					if cb > 0 {
						cached++
					}
				}
			}
			if f.inherit != nil && cached == 0 {
				t.Fatal("fixture prices no cache reuse")
			}
			ws := &mapWS{}
			var sv km.Solver
			_, err := hierarchicalMatch(sv.Solve, f.devs, len(positions), &tbl, nil, ws)
			if f.flat != (err != nil) {
				t.Fatalf("hierarchical match error = %v, fixture expects the flat fallback: %v", err, f.flat)
			}
		})
	}
}

func TestMapSameConfigIsPerfectReuse(t *testing.T) {
	spec := model.GPT20B
	cfg := config.Config{D: 1, P: 2, M: 4, B: 1}
	gpus := mkGPUs(2, 4)
	devs := devicesFor(spec, gpus, cfg)
	m, err := MapDevices(spec, devs, cfg, MapperOptions{UseKM: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.ReusedModelBytes < spec.ParamBytes-1 {
		t.Fatalf("reuse = %v, want full model %v", m.ReusedModelBytes, spec.ParamBytes)
	}
	// Identity mapping: every GPU keeps its own shard.
	for i, pos := range cfg.Positions() {
		if m.Assign[pos] != gpus[i] {
			t.Fatalf("position %v → gpu %d, want %d", pos, m.Assign[pos].ID, gpus[i].ID)
		}
	}
	if len(m.Spare) != 0 {
		t.Fatalf("spare = %d", len(m.Spare))
	}
}

func TestMapBeatsIdentityOnReconfig(t *testing.T) {
	// Figure 4a: (D=1,P=2,M=8) → (D=1,P=3,M=4) on 16 → 12 GPUs. KM must
	// reuse strictly more context than arbitrary identity assignment.
	spec := model.GPT20B
	old := config.Config{D: 1, P: 2, M: 8, B: 1}
	target := config.Config{D: 1, P: 3, M: 4, B: 1}
	gpus := mkGPUs(4, 4)
	devs := devicesFor(spec, gpus, old)
	devs = devs[:12] // four GPUs were preempted

	kmMap, err := MapDevices(spec, devs, target, MapperOptions{UseKM: true})
	if err != nil {
		t.Fatal(err)
	}
	idMap, err := MapDevices(spec, devs, target, MapperOptions{UseKM: false})
	if err != nil {
		t.Fatal(err)
	}
	if kmMap.ReusedModelBytes <= idMap.ReusedModelBytes {
		t.Fatalf("KM reuse %v not above identity %v", kmMap.ReusedModelBytes, idMap.ReusedModelBytes)
	}
	if kmMap.TotalModelBytes < spec.ParamBytes-1 {
		t.Fatalf("total bytes %v below model size", kmMap.TotalModelBytes)
	}
	if kmMap.ReusedModelBytes > kmMap.TotalModelBytes+1 {
		t.Fatal("reuse exceeds total")
	}
}

func TestMapInsufficientGPUs(t *testing.T) {
	spec := model.GPT20B
	target := config.Config{D: 1, P: 3, M: 4, B: 1}
	gpus := mkGPUs(2, 4) // 8 < 12
	devs := devicesFor(spec, gpus, config.Config{D: 1, P: 2, M: 4, B: 1})
	if _, err := MapDevices(spec, devs, target, MapperOptions{UseKM: true}); err == nil {
		t.Fatal("mapping with too few GPUs accepted")
	}
}

func TestMapSparePool(t *testing.T) {
	spec := model.OPT6B7
	target := config.Config{D: 1, P: 1, M: 4, B: 1}
	gpus := mkGPUs(2, 4) // 8 GPUs, need 4
	devs := devicesFor(spec, gpus, target)
	m, err := MapDevices(spec, devs, target, MapperOptions{UseKM: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Spare) != 4 {
		t.Fatalf("spare = %d, want 4", len(m.Spare))
	}
}

func TestMapCacheInheritancePreference(t *testing.T) {
	// Two GPUs hold identical model context; one also holds the cache of
	// old pipeline 0. The position of new pipeline 0 (which inherits old
	// pipeline 0) must receive the cache-bearing GPU — the paper's
	// u1→v0 example in Figure 4b.
	spec := model.OPT6B7
	target := config.Config{D: 2, P: 1, M: 2, B: 1}
	gpus := mkGPUs(1, 4)
	shard0 := model.PositionRect(spec, 1, 2, 0, 0)
	devs := []DeviceContext{
		{GPU: gpus[0], ModelCtx: shard0, CachePipeline: -1},
		{GPU: gpus[1], ModelCtx: shard0, CachePipeline: 0,
			CacheRect: shard0, CacheTokens: 600},
		{GPU: gpus[2], ModelCtx: model.PositionRect(spec, 1, 2, 0, 1), CachePipeline: -1},
		{GPU: gpus[3], ModelCtx: model.PositionRect(spec, 1, 2, 0, 1), CachePipeline: -1},
	}
	m, err := MapDevices(spec, devs, target, MapperOptions{
		UseKM:   true,
		Inherit: map[int]int{0: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	pos := config.Position{D: 0, P: 0, M: 0}
	if m.Assign[pos] != gpus[1] {
		t.Fatalf("cache-bearing GPU not mapped to inheriting pipeline: got gpu %d", m.Assign[pos].ID)
	}
	if m.ReusedCacheBytes <= 0 {
		t.Fatal("no cache reuse recorded")
	}
}

func TestHierarchicalMatchingKeepsShardsTogether(t *testing.T) {
	// With M=4 and 4-GPU instances, hierarchical matching must place all
	// four shards of one stage on one instance (intra-instance
	// all-reduce), even from cold (empty) contexts.
	spec := model.GPT20B
	target := config.Config{D: 1, P: 3, M: 4, B: 1}
	gpus := mkGPUs(3, 4)
	devs := make([]DeviceContext, len(gpus))
	for i, g := range gpus {
		devs[i] = DeviceContext{GPU: g, CachePipeline: -1}
	}
	m, err := MapDevices(spec, devs, target, MapperOptions{UseKM: true, Hierarchical: true})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		inst := m.Assign[config.Position{D: 0, P: p, M: 0}].Inst.ID
		for mm := 1; mm < 4; mm++ {
			if m.Assign[config.Position{D: 0, P: p, M: mm}].Inst.ID != inst {
				t.Fatalf("stage %d shards span instances", p)
			}
		}
	}
}

func TestHierarchicalReuseNotWorseThanIdentity(t *testing.T) {
	spec := model.GPT20B
	old := config.Config{D: 2, P: 2, M: 2, B: 1}
	target := config.Config{D: 2, P: 3, M: 1, B: 1} // Figure 4b shapes
	gpus := mkGPUs(2, 4)
	devs := devicesFor(spec, gpus, old)
	devs = devs[:6]
	h, err := MapDevices(spec, devs, target, MapperOptions{
		UseKM: true, Hierarchical: true, Inherit: map[int]int{0: 0, 1: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := MapDevices(spec, devs, target, MapperOptions{UseKM: false})
	if err != nil {
		t.Fatal(err)
	}
	if h.ReusedModelBytes+h.ReusedCacheBytes < id.ReusedModelBytes+id.ReusedCacheBytes {
		t.Fatalf("hierarchical reuse %v below identity %v",
			h.ReusedModelBytes+h.ReusedCacheBytes, id.ReusedModelBytes+id.ReusedCacheBytes)
	}
}

func TestFlatVsHierarchicalBothComplete(t *testing.T) {
	spec := model.LLaMA30B
	old := config.Config{D: 1, P: 2, M: 8, B: 1}
	target := config.Config{D: 1, P: 4, M: 4, B: 1}
	gpus := mkGPUs(4, 4)
	devs := devicesFor(spec, gpus, old)
	for _, hier := range []bool{false, true} {
		m, err := MapDevices(spec, devs, target, MapperOptions{UseKM: true, Hierarchical: hier})
		if err != nil {
			t.Fatalf("hier=%v: %v", hier, err)
		}
		if len(m.Assign) != target.GPUs() {
			t.Fatalf("hier=%v: assigned %d positions", hier, len(m.Assign))
		}
		seen := map[int64]bool{}
		for _, g := range m.Assign {
			if seen[g.ID] {
				t.Fatalf("hier=%v: GPU %d assigned twice", hier, g.ID)
			}
			seen[g.ID] = true
		}
	}
}

func TestMapRejectsZeroConfig(t *testing.T) {
	if _, err := MapDevices(model.OPT6B7, nil, config.Zero, MapperOptions{UseKM: true}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestKeepBatches(t *testing.T) {
	prog := map[int]int{0: 50, 1: 120, 2: 10}
	got := KeepBatches(prog, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("KeepBatches = %v, want [0 1] (most progressed)", got)
	}
	if got := KeepBatches(prog, 5); len(got) != 3 {
		t.Fatalf("cap above len: %v", got)
	}
	if got := KeepBatches(nil, 2); len(got) != 0 {
		t.Fatalf("empty progress: %v", got)
	}
	// Ties break deterministically by pipeline index.
	tie := map[int]int{3: 7, 1: 7, 2: 7}
	got = KeepBatches(tie, 2)
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("tie break = %v", got)
	}
}
