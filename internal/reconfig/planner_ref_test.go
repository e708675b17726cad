package reconfig

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"spotserve/internal/cloud"
	"spotserve/internal/config"
	"spotserve/internal/cost"
	"spotserve/internal/model"
)

// This file keeps the per-layer parameter planner as a test-only
// reference: one source-index list, one missingAt/findSource evaluation and
// one memory delta per (position, layer), and every deferred layer scored
// on every MemOpt pick. TestSegmentPlanMatchesPerLayer compares the
// segment-level planner against it bit for bit.

// refSourceIndex lists, per layer, the devices holding context of that
// layer with their shard-fraction intervals, in devices order.
type refSourceIndex struct {
	devices []DeviceContext
	holders [][]srcEntry // per layer
}

func newRefSourceIndex(spec model.Spec, devices []DeviceContext) *refSourceIndex {
	counts := make([]int, spec.Layers)
	total := 0
	for _, dc := range devices {
		r := dc.ModelCtx
		if r.Empty() {
			continue
		}
		hi := r.LayerHi
		if hi > spec.Layers {
			hi = spec.Layers
		}
		for l := r.LayerLo; l < hi; l++ {
			counts[l]++
			total++
		}
	}
	arena := make([]srcEntry, 0, total)
	holders := make([][]srcEntry, spec.Layers)
	off := 0
	for l, n := range counts {
		if n > 0 {
			holders[l] = arena[off : off : off+n]
			off += n
		}
	}
	for di, dc := range devices {
		r := dc.ModelCtx
		if r.Empty() {
			continue
		}
		hi := r.LayerHi
		if hi > spec.Layers {
			hi = spec.Layers
		}
		for l := r.LayerLo; l < hi; l++ {
			holders[l] = append(holders[l], srcEntry{dev: di, fracLo: r.FracLo, fracHi: r.FracHi})
		}
	}
	return &refSourceIndex{devices: devices, holders: holders}
}

// findSource is the per-layer source selection: a holder of the missing
// part of the wanted interval, preferring the receiver's instance, ties to
// the earliest device in input order; nil means a storage fetch.
func (idx *refSourceIndex) findSource(layer int, to *cloud.GPU, wantLo, wantHi, heldLo, heldHi float64) *cloud.GPU {
	var fallback *cloud.GPU
	for _, e := range idx.holders[layer] {
		dc := &idx.devices[e.dev]
		if dc.GPU.ID == to.ID {
			continue
		}
		if !overlapsMissing(e.fracLo, e.fracHi, wantLo, wantHi, heldLo, heldHi) {
			continue
		}
		if dc.GPU.Inst.ID == to.Inst.ID {
			return dc.GPU
		}
		if fallback == nil {
			fallback = dc.GPU
		}
	}
	return fallback
}

// refBuildParamPlan evaluates every (position, layer) pair on its own.
func refBuildParamPlan(spec model.Spec, devices []DeviceContext, mapping Mapping, opt PlanOptions) (*paramPlan, error) {
	target := mapping.Target
	devOf := make(map[int64]int, len(devices))
	for i, d := range devices {
		devOf[d.GPU.ID] = i
	}

	pp := &paramPlan{
		byLayer:      make([][]Transfer, spec.Layers),
		stageOfLayer: make([]int, spec.Layers),
		peakBuffer:   make(map[int64]float64),
	}
	for l := 0; l < spec.Layers; l++ {
		pp.stageOfLayer[l] = model.StageOf(spec.Layers, target.P, l)
	}

	idx := newRefSourceIndex(spec, devices)
	layerParam := spec.LayerParamBytes()
	positions := target.Positions()

	counts := make([]int, spec.Layers)
	total := 0
	for pi, pos := range positions {
		gpu := mapping.gpuAt(pi, pos)
		if gpu == nil {
			return nil, fmt.Errorf("reconfig: plan missing GPU for %v", pos)
		}
		var held model.Rect
		if di, ok := devOf[gpu.ID]; ok {
			held = devices[di].ModelCtx
		}
		want := model.PositionRect(spec, target.P, target.M, pos.P, pos.M)
		wantBytes := want.FracWidth() * layerParam
		for layer := want.LayerLo; layer < want.LayerHi; layer++ {
			if missing, _, _ := missingAt(held, want, layer, wantBytes, layerParam); missing > 1 {
				counts[layer]++
				total++
			}
		}
	}
	arena := make([]Transfer, total)
	off := 0
	for l, n := range counts {
		if n > 0 {
			pp.byLayer[l] = arena[off : off : off+n]
			off += n
		}
	}

	for pi, pos := range positions {
		gpu := mapping.gpuAt(pi, pos)
		var held model.Rect
		if di, ok := devOf[gpu.ID]; ok {
			held = devices[di].ModelCtx
		}
		want := model.PositionRect(spec, target.P, target.M, pos.P, pos.M)
		wantBytes := want.FracWidth() * layerParam
		for layer := want.LayerLo; layer < want.LayerHi; layer++ {
			missing, heldLo, heldHi := missingAt(held, want, layer, wantBytes, layerParam)
			if missing <= 1 {
				continue
			}
			src := idx.findSource(layer, gpu, want.FracLo, want.FracHi, heldLo, heldHi)
			tr := Transfer{
				To:    gpu,
				From:  src,
				Bytes: missing,
				Inter: src == nil || src.Inst.ID != gpu.Inst.ID,
			}
			if src == nil {
				pp.storageBytes += missing
			}
			pp.byLayer[layer] = append(pp.byLayer[layer], tr)
			pp.totalBytes += missing
		}
	}

	pp.layerOrder = refOrderLayers(spec, pp, devices, devOf, mapping, positions, opt)
	return pp, nil
}

// refOrderLayers is Algorithm 2 with per-layer holders and deltas, scoring
// every deferred layer on every pick.
func refOrderLayers(spec model.Spec, pp *paramPlan, devices []DeviceContext, devOf map[int64]int, mapping Mapping, positions []config.Position, opt PlanOptions) []int {
	var layers []int
	for l, trs := range pp.byLayer {
		if len(trs) > 0 {
			layers = append(layers, l)
		}
	}
	if len(layers) == 0 {
		return nil
	}

	layerParam := spec.LayerParamBytes()

	newRect := make([]model.Rect, len(devices))
	for pi, pos := range positions {
		if di, ok := devOf[mapping.gpuAt(pi, pos).ID]; ok {
			newRect[di] = model.PositionRect(spec, mapping.Target.P, mapping.Target.M, pos.P, pos.M)
		}
	}

	byID := make([]int, len(devices))
	for i := range byID {
		byID[i] = i
	}
	sort.Slice(byID, func(a, b int) bool { return devices[byID[a]].GPU.ID < devices[byID[b]].GPU.ID })

	hcounts := make([]int, spec.Layers)
	htotal := 0
	for _, di := range byID {
		r := devices[di].ModelCtx
		if r.Empty() {
			continue
		}
		hi := r.LayerHi
		if hi > spec.Layers {
			hi = spec.Layers
		}
		for l := r.LayerLo; l < hi; l++ {
			hcounts[l]++
			htotal++
		}
	}
	harena := make([]int, 0, htotal)
	holders := make([][]int, spec.Layers)
	hoff := 0
	for l, n := range hcounts {
		if n > 0 {
			holders[l] = harena[hoff : hoff : hoff+n]
			hoff += n
		}
	}
	for _, di := range byID {
		r := devices[di].ModelCtx
		if r.Empty() {
			continue
		}
		hi := r.LayerHi
		if hi > spec.Layers {
			hi = spec.Layers
		}
		for l := r.LayerLo; l < hi; l++ {
			holders[l] = append(holders[l], di)
		}
	}

	instIdx := map[int64]int{}
	var instIDs []int64
	var instCap []float64
	idxOf := func(inst *cloud.Instance) int {
		if i, ok := instIdx[inst.ID]; ok {
			return i
		}
		i := len(instIDs)
		instIdx[inst.ID] = i
		instIDs = append(instIDs, inst.ID)
		instCap = append(instCap, opt.UmaxBytes*inst.MemScale())
		return i
	}

	var dArena []instDelta
	dOff := []int{0}
	layerPos := make([]int, spec.Layers)
	var scratch []float64
	var touched []int
	for li, l := range layers {
		layerPos[l] = li
		touched = touched[:0]
		touch := func(idx int) {
			for len(scratch) <= idx {
				scratch = append(scratch, 0)
			}
			for _, t := range touched {
				if t == idx {
					return
				}
			}
			touched = append(touched, idx)
		}
		for _, tr := range pp.byLayer[l] {
			idx := idxOf(tr.To.Inst)
			touch(idx)
			scratch[idx] += tr.Bytes
		}
		for _, di := range holders[l] {
			dc := &devices[di]
			old := dc.ModelCtx
			oldW := old.FracHi - old.FracLo
			if oldW <= 0 {
				continue
			}
			keep := 0.0
			nr := newRect[di]
			if l >= nr.LayerLo && l < nr.LayerHi {
				lo, hi := maxf(old.FracLo, nr.FracLo), minf(old.FracHi, nr.FracHi)
				if hi > lo {
					keep = (hi - lo) * layerParam
				}
			}
			release := oldW*layerParam - keep
			if release > 0 {
				idx := idxOf(dc.GPU.Inst)
				touch(idx)
				scratch[idx] -= release
			}
		}
		for _, idx := range touched {
			dArena = append(dArena, instDelta{idx: idx, by: scratch[idx]})
			scratch[idx] = 0
		}
		dOff = append(dOff, len(dArena))
	}
	deltasOf := func(l int) []instDelta {
		li := layerPos[l]
		return dArena[dOff[li]:dOff[li+1]]
	}

	usage := make([]float64, len(instIDs))
	peaks := make([]float64, len(instIDs))
	heteroCap := false
	for _, c := range instCap {
		if c != opt.UmaxBytes {
			heteroCap = true
			break
		}
	}
	curScore := 0.0
	if heteroCap {
		curScore = math.Inf(-1)
		for i := range usage {
			if v := usage[i] - instCap[i]; v > curScore {
				curScore = v
			}
		}
	}
	rescore := func() {
		if heteroCap {
			worst := math.Inf(-1)
			for i, u := range usage {
				if v := u - instCap[i]; v > worst {
					worst = v
				}
			}
			curScore = worst
			return
		}
		peak := 0.0
		for _, u := range usage {
			if u > peak {
				peak = u
			}
		}
		curScore = peak
	}
	apply := func(l int) {
		for _, d := range deltasOf(l) {
			usage[d.idx] += d.by
			if usage[d.idx] > peaks[d.idx] {
				peaks[d.idx] = usage[d.idx]
			}
		}
		rescore()
	}
	scoreLimit := opt.UmaxBytes
	if heteroCap {
		scoreLimit = 0
	}
	scoreAfter := func(l int) float64 {
		worst := curScore
		if heteroCap {
			for _, d := range deltasOf(l) {
				if v := usage[d.idx] + d.by - instCap[d.idx]; v > worst {
					worst = v
				}
			}
			return worst
		}
		for _, d := range deltasOf(l) {
			if u := usage[d.idx] + d.by; u > worst {
				worst = u
			}
		}
		return worst
	}
	flushPeaks := func() {
		for i, p := range peaks {
			if p > 0 {
				pp.peakBuffer[instIDs[i]] = p
			}
		}
	}

	if !opt.MemOpt {
		for _, l := range layers {
			apply(l)
		}
		flushPeaks()
		return append(make([]int, 0, len(layers)), layers...)
	}

	order := make([]int, 0, len(layers))
	var deferred []int
	for _, l := range layers {
		if scoreAfter(l) <= scoreLimit {
			apply(l)
			order = append(order, l)
		} else {
			deferred = append(deferred, l)
		}
	}
	for len(deferred) > 0 {
		bestI := -1
		bestV := 0.0
		for i, l := range deferred {
			v := scoreAfter(l)
			if bestI < 0 || v < bestV {
				bestI, bestV = i, v
			}
		}
		bestL := deferred[bestI]
		apply(bestL)
		order = append(order, bestL)
		deferred = append(deferred[:bestI], deferred[bestI+1:]...)
	}
	flushPeaks()
	return order
}

// planCase is one parameter-planning problem for the segment oracle.
type planCase struct {
	name   string
	spec   model.Spec
	devs   []DeviceContext
	target config.Config
	umax   float64
}

// segmentPlanCases fabricates the oracle's fixtures: reshapes that move
// stage boundaries both ways, a preempted front instance under a 1 GB
// U_max (so MemOpt defers), a cold start, spares with empty contexts, the
// device-mapper fleets, mixed memory multipliers, and a seeded sweep of
// random fleets with preempted instances.
func segmentPlanCases() []planCase {
	umax := cost.DefaultParams().BufMaxBytes
	var cases []planCase
	for _, f := range mapFleets() {
		cases = append(cases, planCase{name: f.name, spec: f.spec, devs: f.devs, target: f.target, umax: umax})
	}
	cases = append(cases,
		planCase{name: "fewer-stages", spec: model.LLaMA30B,
			devs:   devicesFor(model.LLaMA30B, mkGPUs(8, 4), config.Config{D: 2, P: 4, M: 4, B: 1}),
			target: config.Config{D: 3, P: 3, M: 2, B: 1}, umax: umax},
		planCase{name: "more-stages-odd-shards", spec: model.GPT20B,
			devs:   devicesFor(model.GPT20B, mkGPUs(6, 4), config.Config{D: 2, P: 2, M: 6, B: 1}),
			target: config.Config{D: 1, P: 5, M: 3, B: 1}, umax: 0.3 * model.GB},
		// BenchmarkPlannerMemOptPeakBuffer's fixture: the instance with the
		// model's front shards is preempted.
		planCase{name: "preempted-front", spec: model.GPT20B,
			devs:   devicesFor(model.GPT20B, mkGPUs(4, 4), config.Config{D: 1, P: 2, M: 8, B: 1})[4:],
			target: config.Config{D: 1, P: 3, M: 4, B: 1}, umax: model.GB},
	)

	// Cold start: nothing is resident, everything loads from storage.
	cold := mkGPUs(3, 4)
	coldDevs := make([]DeviceContext, len(cold))
	for i, g := range cold {
		coldDevs[i] = DeviceContext{GPU: g, CachePipeline: -1}
	}
	cases = append(cases, planCase{name: "cold-start", spec: model.GPT20B, devs: coldDevs,
		target: config.Config{D: 1, P: 3, M: 4, B: 1}, umax: umax})

	// Mixed memory multipliers: per-instance caps differ, so orderLayers
	// scores by the worst cap excess.
	hetero := devicesFor(model.GPT20B, mkGPUs(4, 4), config.Config{D: 1, P: 2, M: 8, B: 1})[4:]
	hetero[0].GPU.Inst.Type.MemScale = 0.5
	hetero[8].GPU.Inst.Type.MemScale = 1.5
	cases = append(cases, planCase{name: "mixed-memscale", spec: model.GPT20B, devs: hetero,
		target: config.Config{D: 1, P: 3, M: 4, B: 1}, umax: model.GB})

	// Random fleets: a random old configuration on 4-GPU instances, some
	// instances preempted, a random target on what is left.
	rng := rand.New(rand.NewSource(1))
	specs := model.All()
	degrees := []int{1, 2, 3, 4, 6, 8}
	pick := func() int { return degrees[rng.Intn(len(degrees))] }
	for len(cases) < 60 {
		spec := specs[rng.Intn(len(specs))]
		nInst := 2 + rng.Intn(7)
		gpus := mkGPUs(nInst, 4)
		old := config.Config{D: 1 + rng.Intn(3), P: pick(), M: pick(), B: 1}
		if old.GPUs() > len(gpus) {
			continue
		}
		devs := devicesFor(spec, gpus, old)
		kept := devs[:0:0]
		for inst := 0; inst < nInst; inst++ {
			if rng.Intn(4) == 0 {
				continue // preempted
			}
			if rng.Intn(3) == 0 {
				devs[inst*4].GPU.Inst.Type.MemScale = []float64{0.5, 2}[rng.Intn(2)]
			}
			kept = append(kept, devs[inst*4:inst*4+4]...)
		}
		target := config.Config{D: 1 + rng.Intn(2), P: pick(), M: pick(), B: 1}
		if target.GPUs() > len(kept) || target.M > 4 {
			continue
		}
		cases = append(cases, planCase{name: fmt.Sprintf("random-%d", len(cases)), spec: spec,
			devs: kept, target: target, umax: []float64{0.2, 1, 4}[rng.Intn(3)] * model.GB})
	}
	return cases
}

// TestSegmentPlanMatchesPerLayer pins the segment-level planner to the
// per-layer reference: for every fixture, with MemOpt on and off, the plan
// totals, layer order, stage map, peak buffers and every transfer of every
// layer must match bit for bit.
func TestSegmentPlanMatchesPerLayer(t *testing.T) {
	deferred, heteroDeferred := 0, 0
	for _, c := range segmentPlanCases() {
		m, err := MapDevices(c.spec, c.devs, c.target, MapperOptions{UseKM: true, Hierarchical: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		est := cost.NewEstimator(cost.DefaultParams(), c.spec)
		for _, memOpt := range []bool{true, false} {
			opt := PlanOptions{Progressive: true, MemOpt: memOpt, UmaxBytes: c.umax}
			got, err := PlanMigration(c.spec, est, c.devs, m, opt)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			ref, err := refBuildParamPlan(c.spec, c.devs, m, opt)
			if err != nil {
				t.Fatalf("%s: reference: %v", c.name, err)
			}
			if err := samePlan(got, assemblePlan(c.spec, ref, c.devs, m, opt)); err != nil {
				t.Fatalf("%s memopt=%v: %v", c.name, memOpt, err)
			}
			if memOpt && !slices.IsSorted(got.LayerOrder) {
				deferred++
				if c.name == "mixed-memscale" {
					heteroDeferred++
				}
			}
		}
	}
	if deferred < 5 || heteroDeferred == 0 {
		t.Fatalf("MemOpt deferred layers in %d plans (mixed-memscale: %d); the fixtures no longer exercise the deferred loop",
			deferred, heteroDeferred)
	}
}

// samePlan reports the first difference between two plans' parameter
// parts, comparing floats by their bits and GPUs by identity.
func samePlan(got, want *Plan) error {
	bits := math.Float64bits
	switch {
	case bits(got.TotalBytes) != bits(want.TotalBytes):
		return fmt.Errorf("TotalBytes %v, reference %v", got.TotalBytes, want.TotalBytes)
	case bits(got.StorageBytes) != bits(want.StorageBytes):
		return fmt.Errorf("StorageBytes %v, reference %v", got.StorageBytes, want.StorageBytes)
	case !slices.Equal(got.LayerOrder, want.LayerOrder):
		return fmt.Errorf("LayerOrder %v, reference %v", got.LayerOrder, want.LayerOrder)
	case !slices.Equal(got.StageOfLayer, want.StageOfLayer):
		return fmt.Errorf("StageOfLayer %v, reference %v", got.StageOfLayer, want.StageOfLayer)
	case len(got.PeakBufferBytes) != len(want.PeakBufferBytes):
		return fmt.Errorf("PeakBufferBytes %v, reference %v", got.PeakBufferBytes, want.PeakBufferBytes)
	case len(got.ByLayer) != len(want.ByLayer):
		return fmt.Errorf("%d layers, reference %d", len(got.ByLayer), len(want.ByLayer))
	}
	for id, p := range want.PeakBufferBytes {
		if g, ok := got.PeakBufferBytes[id]; !ok || bits(g) != bits(p) {
			return fmt.Errorf("instance %d peak buffer %v, reference %v", id, g, p)
		}
	}
	for l, trs := range want.ByLayer {
		if len(got.ByLayer[l]) != len(trs) {
			return fmt.Errorf("layer %d: %d transfers, reference %d", l, len(got.ByLayer[l]), len(trs))
		}
		for i, w := range trs {
			g := got.ByLayer[l][i]
			if g.To != w.To || g.From != w.From || bits(g.Bytes) != bits(w.Bytes) || g.Inter != w.Inter {
				return fmt.Errorf("layer %d transfer %d: %+v, reference %+v", l, i, g, w)
			}
		}
	}
	return nil
}
