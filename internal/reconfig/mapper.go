package reconfig

import (
	"fmt"
	"sort"
	"sync"

	"spotserve/internal/cloud"
	"spotserve/internal/config"
	"spotserve/internal/km"
	"spotserve/internal/model"
)

// solverPool recycles KM solver workspaces across mappings: one
// reconfiguration runs up to #instances × #blocks sub-matchings plus the
// top-level matching, all through one pooled solver.
var solverPool = sync.Pool{New: func() any { return km.NewSolver() }}

// mapWS pools MapDevices' transient scratch — the sorted device copy, the
// per-(stage, shard) rectangles, the reuse table, the used set and the
// matching workspaces (cost matrices, instance grouping, per-pair
// assignments). Everything retained by the returned Mapping (Assign, flat,
// Spare) stays freshly allocated: mappings are memoized and shared, so only
// strictly call-local storage is pooled.
type mapWS struct {
	devs  []DeviceContext
	rects []model.Rect
	used  []bool
	bonus []float64
	left  []int
	reuse reuseTable
	// hierarchical/flat matching scratch.
	mat       scratchMatrix
	sub       scratchMatrix
	instIdx   map[int64]int
	instCnt   []int
	instArena []int
	instGPUs  [][]int
	paStart   []int
	paArena   []int
}

var mapWSPool = sync.Pool{New: func() any { return &mapWS{} }}

// DeviceContext is the mapper's view of one GPU's context daemon: what
// model and cache context the device currently holds.
type DeviceContext struct {
	GPU *cloud.GPU
	// ModelCtx is the resident parameter shard (possibly empty).
	ModelCtx model.Rect
	// CachePipeline is the old pipeline index whose KV cache is resident
	// (-1 when none).
	CachePipeline int
	// CacheRect / CacheTokens describe the resident cache.
	CacheRect   model.Rect
	CacheTokens int
}

// MapperOptions tunes the device mapper.
type MapperOptions struct {
	// UseKM enables optimal Kuhn–Munkres matching; when false, devices
	// are assigned to positions in arbitrary (ID) order — the ablation
	// baseline of Figure 9.
	UseKM bool
	// Hierarchical enables the two-step intra-/inter-instance matching
	// for multi-GPU instances (§3.3 "two-step matching").
	Hierarchical bool
	// Inherit maps new pipeline index → old pipeline index whose
	// interrupted requests (and KV cache) the new pipeline adopts.
	// Pipelines absent from the map inherit nothing.
	Inherit map[int]int
	// KM, when non-nil, memoizes sub-matchings across reconfigurations
	// (the determinism-safe KM warm start — see km.Cache). Nil solves
	// cold through a pooled solver.
	KM *km.Cache
}

// Mapping is the device mapper's output.
type Mapping struct {
	Target config.Config
	// Assign binds every topology position of Target to a GPU.
	Assign map[config.Position]*cloud.GPU
	// Spare lists usable GPUs left out of the mesh (the candidate pool).
	Spare []*cloud.GPU
	// ReusedModelBytes / ReusedCacheBytes quantify context reuse achieved
	// by the matching (the KM objective value, split by kind).
	ReusedModelBytes float64
	ReusedCacheBytes float64
	// TotalModelBytes is the parameter bytes the full target mesh needs;
	// TotalModelBytes − ReusedModelBytes must be migrated or reloaded.
	TotalModelBytes float64
	// flat is Assign in Target.Positions() order (nil for mappings built
	// by hand); the planner's hot loops read it instead of the map.
	flat []*cloud.GPU
}

// gpuAt returns the GPU assigned to positions[i] (= pos), preferring the
// flat view when present.
func (m *Mapping) gpuAt(i int, pos config.Position) *cloud.GPU {
	if m.flat != nil {
		return m.flat[i]
	}
	return m.Assign[pos]
}

// assigned reports whether GPU id is placed somewhere in the target mesh.
// The mesh is small (Target.GPUs() positions), so a linear scan beats
// building a set per query.
func (m *Mapping) assigned(id int64) bool {
	if m.flat != nil {
		for _, g := range m.flat {
			if g != nil && g.ID == id {
				return true
			}
		}
		return false
	}
	//detlint:allow maprange — existential scan with pure reads: answers whether any position holds GPU id, identical under every visit order
	for _, g := range m.Assign {
		if g != nil && g.ID == id {
			return true
		}
	}
	return false
}

// edgeWeights computes the reusable model and cache bytes when placing
// device u at position v of the target configuration, whose context
// rectangle is want (precomputed once per matching).
func edgeWeights(spec model.Spec, u DeviceContext, want model.Rect, v config.Position, inherit map[int]int) (modelBytes, cacheBytes float64) {
	modelBytes = u.ModelCtx.OverlapParamBytes(spec, want)
	if u.CachePipeline >= 0 && u.CacheTokens > 0 {
		if oldD, ok := inherit[v.D]; ok && oldD == u.CachePipeline {
			inter := u.CacheRect.Intersect(want)
			if !inter.Empty() {
				cacheBytes = float64(u.CacheTokens) * spec.KVBytesPerTokenLayer() *
					float64(inter.Layers()) * inter.FracWidth()
			}
		}
	}
	return modelBytes, cacheBytes
}

// stageShardRects returns the target's context rectangles indexed by
// (stage, shard) k = p·M + m, backed by *buf; they serve every pipeline.
func stageShardRects(spec model.Spec, target config.Config, buf *[]model.Rect) []model.Rect {
	pm := target.P * target.M
	if cap(*buf) < pm {
		*buf = make([]model.Rect, pm)
	}
	rects := (*buf)[:pm]
	for p := 0; p < target.P; p++ {
		for m := 0; m < target.M; m++ {
			rects[p*target.M+m] = model.PositionRect(spec, target.P, target.M, p, m)
		}
	}
	return rects
}

// reuseTable holds the matching weights of one MapDevices call. A
// position's rectangle depends only on its (stage, shard), and its pipeline
// enters edgeWeights only through the cache-inheritance guard, so each
// device's model and cache overlaps are priced once per (stage, shard) of
// the target — not once per position in every pipeline — and rectangles
// that do not intersect are skipped. weight assembles a position's value
// from index slices with edgeWeights' float operations, so every matrix
// the matchings hand to KM is bit-identical to pricing each cell afresh.
type reuseTable struct {
	pm int // P·M: the row stride of model and cache
	// model[i*pm+k] / cache[i*pm+k] are edgeWeights' modelBytes /
	// cacheBytes (the latter with its guard passed) for device i at
	// (stage, shard) k = p·M + m.
	model []float64
	cache []float64
	// cell[j] is position j's (stage, shard) k; inherits[j] is the old
	// pipeline its new pipeline inherits (-1 for none).
	cell     []int
	inherits []int
	// held[i] is the old pipeline of device i's resident KV cache (-1 for
	// none).
	held []int
}

// build prices devs against the target's (stage, shard) rectangles (from
// stageShardRects).
func (t *reuseTable) build(spec model.Spec, devs []DeviceContext, positions []config.Position, target config.Config, rects []model.Rect, inherit map[int]int) {
	pm := len(rects)
	t.pm = pm
	t.cell = intsFor(&t.cell, len(positions))
	t.inherits = intsFor(&t.inherits, len(positions))
	for j, pos := range positions {
		t.cell[j] = pos.P*target.M + pos.M
		t.inherits[j] = -1
		if oldD, ok := inherit[pos.D]; ok {
			t.inherits[j] = oldD
		}
	}
	t.held = intsFor(&t.held, len(devs))
	t.model = floatsFor(&t.model, len(devs)*pm)
	t.cache = floatsFor(&t.cache, len(devs)*pm)
	layerBytes := spec.LayerParamBytes()
	kvBytes := spec.KVBytesPerTokenLayer()
	for i := range devs {
		u := &devs[i]
		row := i * pm
		for k := range rects {
			if r := u.ModelCtx.Intersect(rects[k]); !r.Empty() {
				t.model[row+k] = float64(r.Layers()) * r.FracWidth() * layerBytes
			}
		}
		t.held[i] = -1
		if u.CachePipeline >= 0 && u.CacheTokens > 0 {
			t.held[i] = u.CachePipeline
			for k := range rects {
				if r := u.CacheRect.Intersect(rects[k]); !r.Empty() {
					t.cache[row+k] = float64(u.CacheTokens) * kvBytes *
						float64(r.Layers()) * r.FracWidth()
				}
			}
		}
	}
}

// weight returns edgeWeights' modelBytes + cacheBytes for device i at
// position j.
func (t *reuseTable) weight(i, j int) float64 {
	k := i*t.pm + t.cell[j]
	cb := 0.0
	if h := t.held[i]; h >= 0 && h == t.inherits[j] {
		cb = t.cache[k]
	}
	return t.model[k] + cb
}

// MapDevices maps available GPUs onto the pipeline-stage-shard positions of
// the target configuration, maximizing reusable context bytes. It returns
// an error when fewer GPUs are available than the target needs.
func MapDevices(spec model.Spec, devices []DeviceContext, target config.Config, opt MapperOptions) (Mapping, error) {
	if err := target.Validate(); err != nil {
		return Mapping{}, err
	}
	need := target.GPUs()
	if len(devices) < need {
		return Mapping{}, fmt.Errorf("reconfig: mapping needs %d GPUs, have %d", need, len(devices))
	}
	ws := mapWSPool.Get().(*mapWS)
	defer mapWSPool.Put(ws)

	// Deterministic input order.
	devs := append(ws.devs[:0], devices...)
	ws.devs = devs
	sort.Slice(devs, func(i, j int) bool { return devs[i].GPU.ID < devs[j].GPU.ID })
	positions := target.Positions()

	m := Mapping{
		Target: target,
		Assign: make(map[config.Position]*cloud.GPU, need),
	}
	rects := stageShardRects(spec, target, &ws.rects)
	for _, pos := range positions {
		m.TotalModelBytes += rects[pos.P*target.M+pos.M].ParamBytes(spec)
	}

	// solve routes through the caller's KM memo when provided, else a
	// pooled cold solver. Both produce identical assignments (the memo
	// only replays exact recurrences).
	var solve func(km.Matrix) (km.Assignment, error)
	if opt.KM != nil {
		solve = opt.KM.Solve
	} else {
		sv := solverPool.Get().(*km.Solver)
		defer solverPool.Put(sv)
		solve = sv.Solve
	}

	bonus := speedBonus(devs, ws)

	var left []int // indices into devs chosen for the mesh, aligned to positions
	var err error
	if !opt.UseKM {
		left = identityAssign(len(positions), ws)
	} else {
		tbl := &ws.reuse
		tbl.build(spec, devs, positions, target, rects, opt.Inherit)
		if opt.Hierarchical {
			left, err = hierarchicalMatch(solve, devs, len(positions), tbl, bonus, ws)
		}
		if !opt.Hierarchical || err != nil {
			// Irregular instance shapes (partially preempted instances,
			// uneven blocks) break the block structure; fall back to the
			// globally optimal flat matching.
			left, err = flatMatch(solve, devs, positions, tbl, bonus, ws)
		}
	}
	if err != nil {
		return Mapping{}, err
	}

	if cap(ws.used) < len(devs) {
		ws.used = make([]bool, len(devs))
	}
	used := ws.used[:len(devs)]
	for i := range used {
		used[i] = false
	}
	m.flat = make([]*cloud.GPU, len(positions))
	for pi, di := range left {
		pos := positions[pi]
		m.Assign[pos] = devs[di].GPU
		m.flat[pi] = devs[di].GPU
		used[di] = true
		mb, cb := edgeWeights(spec, devs[di], rects[pos.P*target.M+pos.M], pos, opt.Inherit)
		m.ReusedModelBytes += mb
		m.ReusedCacheBytes += cb
	}
	for di := range devs {
		if !used[di] {
			m.Spare = append(m.Spare, devs[di].GPU)
		}
	}
	return m, nil
}

// identityAssign maps position i to device i (pooled scratch; the caller
// consumes the result before MapDevices returns).
func identityAssign(n int, ws *mapWS) []int {
	out := intsFor(&ws.left, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// speedBonusBytes converts one unit of GPU speed multiplier into matching
// weight. It is small against real context reuse (a fraction of one layer's
// parameter bytes) so reuse always dominates, but breaks reuse ties toward
// the fast devices.
const speedBonusBytes = 16e6

// speedBonus returns a per-device weight bonus that steers the matching
// toward faster GPUs when the fleet mixes instance types: among devices
// with equal reusable context, KM then builds the mesh on the fastest
// devices and leaves the slow ones as spares. It returns nil for
// speed-homogeneous fleets, so their cost matrices — and the golden
// fingerprints — are bit-identical to the untyped baseline.
func speedBonus(devs []DeviceContext, ws *mapWS) []float64 {
	hetero := false
	for _, d := range devs {
		if d.GPU.Inst.GPUSpeed() != devs[0].GPU.Inst.GPUSpeed() {
			hetero = true
			break
		}
	}
	if !hetero {
		return nil
	}
	out := floatsFor(&ws.bonus, len(devs))
	for i, d := range devs {
		out[i] = d.GPU.Inst.GPUSpeed() * speedBonusBytes
	}
	return out
}

// flatMatch runs one global KM over all devices × positions. The cost
// matrix and result live in pooled scratch (the KM memo hashes matrix
// content without retaining it, and the caller consumes the result before
// MapDevices returns).
func flatMatch(solve func(km.Matrix) (km.Assignment, error), devs []DeviceContext, positions []config.Position, tbl *reuseTable, bonus []float64, ws *mapWS) ([]int, error) {
	w := ws.mat.sized(len(devs), len(positions))
	for i, row := range w {
		for j := range row {
			v := tbl.weight(i, j)
			if bonus != nil {
				v += bonus[i]
			}
			row[j] = v
		}
	}
	a, err := solve(w)
	if err != nil {
		return nil, err
	}
	out := intsFor(&ws.left, len(positions))
	for j, i := range a.Right {
		if i < 0 {
			return nil, fmt.Errorf("reconfig: position %v unmatched", positions[j])
		}
		out[j] = i
	}
	return out, nil
}

// hierarchicalMatch exploits the instance hierarchy: step 1 matches
// instances to blocks of GPUsPerInstance consecutive positions with KM over
// block-level weights (themselves optimal 4×4 matchings); step 2 solves the
// per-pair GPU-level assignment. Consecutive positions share a stage
// whenever M ≥ GPUs/instance, so tensor-parallel all-reduce groups land on
// the fast intra-instance interconnect.
func hierarchicalMatch(solve func(km.Matrix) (km.Assignment, error), devs []DeviceContext, np int, tbl *reuseTable, bonus []float64, ws *mapWS) ([]int, error) {
	// Group devices by instance (dense indices in first-touch order, which
	// preserves device order): a counting pass sizes per-instance groups,
	// then an arena holds them without per-instance allocations.
	if ws.instIdx == nil {
		ws.instIdx = map[int64]int{}
	} else {
		clear(ws.instIdx)
	}
	instIdx := ws.instIdx
	cnt := ws.instCnt[:0]
	for i := range devs {
		id := devs[i].GPU.Inst.ID
		if gi, ok := instIdx[id]; ok {
			cnt[gi]++
		} else {
			instIdx[id] = len(cnt)
			cnt = append(cnt, 1)
		}
	}
	ws.instCnt = cnt
	ni := len(cnt)
	per := 0
	for _, n := range cnt {
		if n > per {
			per = n
		}
	}
	if per == 0 {
		return nil, fmt.Errorf("reconfig: no devices")
	}
	arena := intsFor(&ws.instArena, len(devs))[:0]
	if cap(ws.instGPUs) < ni {
		ws.instGPUs = make([][]int, ni)
	}
	groups := ws.instGPUs[:ni]
	off := 0
	for gi, n := range cnt {
		groups[gi] = arena[off : off : off+n]
		off += n
	}
	for i := range devs {
		gi := instIdx[devs[i].GPU.Inst.ID]
		groups[gi] = append(groups[gi], i)
	}

	// Position blocks are the `per`-sized consecutive ranges
	// [bi*per, min((bi+1)*per, len)) — pure arithmetic, nothing to store.
	nb := (np + per - 1) / per
	blockLo := func(bi int) int { return bi * per }
	blockHi := func(bi int) int {
		if e := (bi + 1) * per; e < np {
			return e
		}
		return np
	}

	// Block-level weight = optimal within-pair matching value. Pairs where
	// the instance has fewer GPUs than the block needs are infeasible.
	// Feasible per-pair assignments append into one arena; paStart
	// remembers each pair's offset (-1 = infeasible).
	if cap(ws.paStart) < ni*nb {
		ws.paStart = make([]int, ni*nb)
	}
	paStart := ws.paStart[:ni*nb]
	for i := range paStart {
		paStart[i] = -1
	}
	paArena := ws.paArena[:0]
	w := ws.mat.sized(ni, nb)
	for ii := 0; ii < ni; ii++ {
		gset := groups[ii]
		for bi := 0; bi < nb; bi++ {
			lo, hi := blockLo(bi), blockHi(bi)
			bn := hi - lo
			if len(gset) < bn {
				w[ii][bi] = 0
				continue
			}
			m := ws.sub.sized(len(gset), bn)
			for a, di := range gset {
				row := m[a]
				for b := range row {
					v := tbl.weight(di, lo+b)
					if bonus != nil {
						v += bonus[di]
					}
					row[b] = v
				}
			}
			sa, err := solve(m)
			if err != nil {
				return nil, err
			}
			w[ii][bi] = sa.Weight
			paStart[ii*nb+bi] = len(paArena)
			for b := 0; b < bn; b++ {
				paArena = append(paArena, gset[sa.Right[b]])
			}
		}
	}
	ws.paArena = paArena
	top, err := solve(w)
	if err != nil {
		return nil, err
	}
	out := intsFor(&ws.left, np)
	for bi := 0; bi < nb; bi++ {
		ii := top.Right[bi]
		if ii < 0 || paStart[ii*nb+bi] < 0 {
			return nil, fmt.Errorf("reconfig: block %d has no feasible instance", bi)
		}
		lo, hi := blockLo(bi), blockHi(bi)
		pa := paArena[paStart[ii*nb+bi]:]
		for b := 0; b < hi-lo; b++ {
			out[lo+b] = pa[b]
		}
	}
	return out, nil
}

// scratchMatrix hands out km.Matrix views over one growing backing array,
// so the many small sub-matchings of a hierarchical match do not allocate a
// fresh matrix each. Every cell of a sized view is overwritten by the
// caller before use.
type scratchMatrix struct {
	rows  []([]float64)
	cells []float64
}

// sized returns an r×c matrix view, growing the backing storage as needed.
func (s *scratchMatrix) sized(r, c int) km.Matrix {
	if cap(s.cells) < r*c {
		s.cells = make([]float64, r*c)
	}
	if cap(s.rows) < r {
		s.rows = make([][]float64, r)
	}
	s.rows = s.rows[:r]
	cells := s.cells[:r*c]
	for i := 0; i < r; i++ {
		s.rows[i] = cells[i*c : (i+1)*c : (i+1)*c]
	}
	return km.Matrix(s.rows)
}

// KeepBatches implements the cache-discard rule of §3.3: when the new
// configuration serves fewer concurrent requests than the old one
// (D_{t+1}×B_{t+1} < D_t×B_t), keep the batches with the most decoding
// progress and discard the rest (they will be recomputed). Batches are
// identified by their old pipeline index; progress is the summed committed
// tokens. It returns old pipeline indices to keep, most-progressed first,
// capped at newD.
func KeepBatches(progressByOldPipeline map[int]int, newD int) []int {
	type kv struct{ d, prog int }
	var all []kv
	for d, p := range progressByOldPipeline {
		all = append(all, kv{d, p})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].prog != all[j].prog {
			return all[i].prog > all[j].prog
		}
		return all[i].d < all[j].d
	})
	if len(all) > newD {
		all = all[:newD]
	}
	out := make([]int, 0, len(all))
	for _, x := range all {
		out = append(out, x.d)
	}
	sort.Ints(out)
	return out
}
