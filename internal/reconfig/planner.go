package reconfig

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"spotserve/internal/cloud"
	"spotserve/internal/config"
	"spotserve/internal/cost"
	"spotserve/internal/model"
)

// Transfer is one context-migration instruction: move Bytes of layer
// context (or KV cache when Layer < 0) to GPU To. From is nil when no live
// replica exists and the context must be fetched from cloud storage — the
// §4.2 fault-tolerance fallback.
type Transfer struct {
	// Layer is the transformer layer index, or CacheLayer for KV cache.
	Layer int
	To    *cloud.GPU
	From  *cloud.GPU
	Bytes float64
	// Inter marks a transfer crossing the instance network.
	Inter bool
}

// CacheLayer marks cache-context transfers in a Plan.
const CacheLayer = -1

// PlanOptions tunes the migration planner.
type PlanOptions struct {
	// Progressive enables the progressive migration schedule: front
	// pipeline stages start serving while later stages still migrate.
	Progressive bool
	// MemOpt enables the memory-optimized layer ordering of Algorithm 2.
	MemOpt bool
	// UmaxBytes is the per-instance migration-buffer cap U_max.
	UmaxBytes float64
	// MigrateCache prioritizes KV-cache context so interrupted requests
	// resume without recomputation (stateful recovery, §4).
	MigrateCache bool
	// Inherit maps new pipeline index → old pipeline index whose KV
	// cache must follow the batch (same map given to the mapper).
	Inherit map[int]int
}

// Plan is a complete context-migration plan for one configuration update.
type Plan struct {
	Target config.Config
	// Cache lists the prioritized cache-context transfers (§3.4: cache
	// first, for interruption fault tolerance).
	Cache []Transfer
	// LayerOrder is the layer migration order O from Algorithm 2.
	LayerOrder []int
	// ByLayer groups parameter transfers per layer, indexed by layer
	// (empty for layers with nothing to move).
	ByLayer [][]Transfer
	// StageOfLayer maps each layer to its pipeline stage in Target,
	// indexed by layer.
	StageOfLayer []int
	// TotalBytes / StorageBytes summarize data movement.
	TotalBytes   float64
	StorageBytes float64
	// PeakBufferBytes is the highest in-flight buffer usage per instance
	// under the chosen order.
	PeakBufferBytes map[int64]float64
}

// paramPlan is the parameter-transfer portion of a migration plan: every
// quantity that depends only on the devices' *model* contexts and the
// mapping — not on KV-cache state. It is what the Engine memoizes, because
// it stays valid while pipelines keep decoding through the JIT window.
type paramPlan struct {
	byLayer      [][]Transfer
	layerOrder   []int
	stageOfLayer []int
	totalBytes   float64
	storageBytes float64
	peakBuffer   map[int64]float64
}

// planWS pools every transient structure a plan build needs — the device
// index, the per-layer counting passes, the source index and the whole of
// Algorithm 2's ordering scratch. Only strictly call-local storage lives
// here: everything the memoized paramPlan (or the returned Plan) retains
// is allocated fresh, since plans are shared across cache hits.
type planWS struct {
	devOf     map[int64]int
	counts    []int
	src       sourceIndex
	srcCounts []int
	srcArena  []srcEntry
	// orderLayers scratch.
	newRect  []model.Rect
	byID     []int
	hcounts  []int
	harena   []int
	holders  [][]int
	instIdx  map[int64]int
	instIDs  []int64
	instCap  []float64
	dArena   []instDelta
	dOff     []int
	layerPos []int
	scratch  []float64
	touched  []int
	usage    []float64
	peaks    []float64
	layers   []int
	deferred []int
}

var planWSPool = sync.Pool{New: func() any { return &planWS{} }}

// devMap returns the cleared reusable GPU-ID→device-index map.
func (w *planWS) devMap(n int) map[int64]int {
	if w.devOf == nil {
		w.devOf = make(map[int64]int, n)
	} else {
		clear(w.devOf)
	}
	return w.devOf
}

// intsFor returns a zeroed int slice of length n backed by *buf.
func intsFor(buf *[]int, n int) []int {
	s := *buf
	if cap(s) < n {
		s = make([]int, n)
	} else {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
	}
	*buf = s
	return s
}

// floatsFor returns a zeroed float64 slice of length n backed by *buf.
func floatsFor(buf *[]float64, n int) []float64 {
	s := *buf
	if cap(s) < n {
		s = make([]float64, n)
	} else {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
	}
	*buf = s
	return s
}

// PlanMigration builds the migration plan that realizes `mapping` starting
// from the devices' current contexts. devices must include every GPU in the
// mapping (sources may be any device in the list, including ones about to
// be preempted — they remain usable during the grace period).
func PlanMigration(spec model.Spec, est *cost.Estimator, devices []DeviceContext, mapping Mapping, opt PlanOptions) (*Plan, error) {
	if err := mapping.Target.Validate(); err != nil {
		return nil, err
	}
	pp, err := buildParamPlan(spec, devices, mapping, opt)
	if err != nil {
		return nil, err
	}
	return assemblePlan(spec, pp, devices, mapping, opt), nil
}

// srcEntry is one device's holding of a single layer in the source index.
type srcEntry struct {
	dev            int // index into the devices slice
	fracLo, fracHi float64
}

// instDelta is one instance's net memory change when a layer migrates:
// incoming transfer bytes minus releasable old context.
type instDelta struct {
	idx int
	by  float64
}

// sourceIndex is the persistent rect→device structure behind source
// selection: for every transformer layer, the devices holding context of
// that layer with their shard-fraction intervals, in devices order. One
// index is built per parameter plan (O(total held layers)) and replaces
// the previous per-transfer scan over every device. Its storage is pooled
// workspace: a count pass sizes one arena and the per-layer lists are
// views into it, so building the index allocates nothing in steady state.
type sourceIndex struct {
	devices []DeviceContext
	holders [][]srcEntry // per layer
}

func newSourceIndex(spec model.Spec, devices []DeviceContext, ws *planWS) *sourceIndex {
	counts := intsFor(&ws.srcCounts, spec.Layers)
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
	if cap(ws.srcArena) < total {
		ws.srcArena = make([]srcEntry, 0, total)
	}
	arena := ws.srcArena[:0]
	if cap(ws.src.holders) < spec.Layers {
		ws.src.holders = make([][]srcEntry, spec.Layers)
	}
	holders := ws.src.holders[:spec.Layers]
	off := 0
	for l, n := range counts {
		if n > 0 {
			holders[l] = arena[off : off : off+n]
			off += n
		} else {
			holders[l] = nil
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
	ws.src.devices = devices
	ws.src.holders = holders
	return &ws.src
}

// findSource locates a live device holding model context overlapping the
// *missing* part of the receiver's wanted interval [wantLo, wantHi) at
// layer — the part outside the receiver's already-held [heldLo, heldHi)
// (pass heldLo >= heldHi when nothing is held). A device holding only what
// the receiver already has cannot supply the missing bytes; when every
// holder of the missing sub-rectangle has been preempted the transfer
// falls through to a cold storage fetch (nil source) instead of naming an
// arbitrary live device as the source. Devices on the receiver's own
// instance are preferred; ties go to the earliest device in input order.
func (idx *sourceIndex) findSource(layer int, to *cloud.GPU, wantLo, wantHi, heldLo, heldHi float64) *cloud.GPU {
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

// missingAt returns the parameter bytes position `want` is missing at
// `layer` given the receiver's held rect, plus the held frac interval at
// that layer (zero-width when nothing is held). heldBytes reproduces
// held.OverlapParamBytes(spec, want.LayerRect(layer)) with the same float
// operations, so `missing` is bit-identical to the historical computation.
func missingAt(held, want model.Rect, layer int, wantBytes, layerParam float64) (missing, heldLo, heldHi float64) {
	heldBytes := 0.0
	if layer >= held.LayerLo && layer < held.LayerHi {
		lo, hi := maxf(held.FracLo, want.FracLo), minf(held.FracHi, want.FracHi)
		if hi > lo {
			heldBytes = (hi - lo) * layerParam
			heldLo, heldHi = lo, hi
		}
	}
	return wantBytes - heldBytes, heldLo, heldHi
}

// overlapsMissing reports whether [lo, hi) intersects the wanted interval
// minus the held interval, i.e. [wantLo, wantHi) \ [heldLo, heldHi).
func overlapsMissing(lo, hi, wantLo, wantHi, heldLo, heldHi float64) bool {
	if heldHi <= heldLo {
		// Nothing held: any overlap with the wanted interval counts.
		return hi > wantLo && lo < wantHi
	}
	// Left remainder [wantLo, min(heldLo, wantHi)).
	if r := minf(heldLo, wantHi); r > wantLo && hi > wantLo && lo < r {
		return true
	}
	// Right remainder [max(heldHi, wantLo), wantHi).
	if l := maxf(heldHi, wantLo); wantHi > l && hi > l && lo < wantHi {
		return true
	}
	return false
}

// buildParamPlan computes the parameter transfers, their source selection
// and Algorithm 2's layer order. It reads only the devices' model contexts.
func buildParamPlan(spec model.Spec, devices []DeviceContext, mapping Mapping, opt PlanOptions) (*paramPlan, error) {
	ws := planWSPool.Get().(*planWS)
	defer planWSPool.Put(ws)
	target := mapping.Target
	devOf := ws.devMap(len(devices))
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

	idx := newSourceIndex(spec, devices, ws)
	layerParam := spec.LayerParamBytes()

	// Deterministic position order.
	positions := target.Positions()

	// Counting pass: transfers per layer, so the fill pass appends into
	// exactly-sized arena slices instead of growing per-layer slices
	// through the map.
	counts := intsFor(&ws.counts, spec.Layers)
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
		wantBytes := want.FracWidth() * layerParam // one layer's slice of the rect
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

	// Fill pass: per (position, layer) compute missing bytes and select a
	// live source through the layer index.
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
			if missing <= 1 { // sub-byte float residue
				continue
			}
			src := idx.findSource(layer, gpu, want.FracLo, want.FracHi, heldLo, heldHi)
			tr := Transfer{
				Layer: layer,
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

	pp.layerOrder = orderLayers(spec, pp, devices, devOf, mapping, positions, opt, ws)
	return pp, nil
}

// assemblePlan combines a (possibly memoized) parameter plan with freshly
// computed cache-context transfers. The Plan shares the parameter plan's
// structures; callers treat plans as read-only.
func assemblePlan(spec model.Spec, pp *paramPlan, devices []DeviceContext, mapping Mapping, opt PlanOptions) *Plan {
	plan := &Plan{
		Target:          mapping.Target,
		LayerOrder:      pp.layerOrder,
		ByLayer:         pp.byLayer,
		StageOfLayer:    pp.stageOfLayer,
		TotalBytes:      pp.totalBytes,
		StorageBytes:    pp.storageBytes,
		PeakBufferBytes: pp.peakBuffer,
	}
	if !opt.MigrateCache || len(opt.Inherit) == 0 {
		return plan
	}
	// Cache transfers (prioritized): every position of an inheriting
	// pipeline needs the cache slice of its (layers × frac) rectangle.
	target := mapping.Target
	ws := planWSPool.Get().(*planWS)
	defer planWSPool.Put(ws)
	devOf := ws.devMap(len(devices))
	for i, d := range devices {
		devOf[d.GPU.ID] = i
	}
	for pi, pos := range target.Positions() {
		gpu := mapping.gpuAt(pi, pos)
		oldD, ok := opt.Inherit[pos.D]
		if !ok {
			continue
		}
		want := model.PositionRect(spec, target.P, target.M, pos.P, pos.M)
		tokens, src := cacheSource(devices, oldD, want)
		if tokens == 0 {
			continue
		}
		needBytes := float64(tokens) * spec.KVBytesPerTokenLayer() *
			float64(want.Layers()) * want.FracWidth()
		// Subtract cache the receiver already holds for this batch.
		if di, ok := devOf[gpu.ID]; ok {
			dc := devices[di]
			if dc.CachePipeline == oldD {
				inter := dc.CacheRect.Intersect(want)
				if !inter.Empty() {
					needBytes -= float64(dc.CacheTokens) * spec.KVBytesPerTokenLayer() *
						float64(inter.Layers()) * inter.FracWidth()
				}
			}
		}
		if needBytes <= 1 {
			continue
		}
		tr := Transfer{
			Layer: CacheLayer,
			To:    gpu,
			From:  src,
			Bytes: needBytes,
			Inter: src == nil || src.Inst.ID != gpu.Inst.ID,
		}
		plan.Cache = append(plan.Cache, tr)
		plan.TotalBytes += needBytes
	}
	return plan
}

// cacheSource finds a device holding cache of old pipeline d overlapping
// rect, returning its token count and GPU.
func cacheSource(devices []DeviceContext, oldD int, want model.Rect) (int, *cloud.GPU) {
	for _, dc := range devices {
		if dc.CachePipeline != oldD || dc.CacheTokens == 0 {
			continue
		}
		if !dc.CacheRect.Intersect(want).Empty() {
			return dc.CacheTokens, dc.GPU
		}
	}
	return 0, nil
}

// orderLayers implements Algorithm 2's MemOptMigPlanner. The memory model
// follows §3.4: migrating a layer's context makes every receiver's memory
// grow by the incoming bytes, while every holder of that layer's old
// context can release the part it does not keep once the layer's transfers
// complete ("the sender's memory can be released while the receivers'
// memory consumption will increase"). The net growth over the starting
// footprint is the migration buffer; layers whose migration would push any
// instance's buffer beyond U_max are deferred and then emitted in min-max
// order (line 19). The naive order (MemOpt=false) is plain layer order
// with unbounded buffer.
func orderLayers(spec model.Spec, pp *paramPlan, devices []DeviceContext, devOf map[int64]int, mapping Mapping, positions []config.Position, opt PlanOptions, ws *planWS) []int {
	layers := ws.layers[:0]
	for l, trs := range pp.byLayer {
		if len(trs) > 0 {
			layers = append(layers, l)
		}
	}
	ws.layers = layers
	// byLayer is layer-indexed, so layers is already in ascending order.
	if len(layers) == 0 {
		return nil
	}

	layerParam := spec.LayerParamBytes()

	// newRect[devIdx] is the context each mapped device keeps after
	// migration (empty when the device leaves the mesh).
	if cap(ws.newRect) < len(devices) {
		ws.newRect = make([]model.Rect, len(devices))
	}
	newRect := ws.newRect[:len(devices)]
	for i := range newRect {
		newRect[i] = model.Rect{}
	}
	for pi, pos := range positions {
		if di, ok := devOf[mapping.gpuAt(pi, pos).ID]; ok {
			newRect[di] = model.PositionRect(spec, mapping.Target.P, mapping.Target.M, pos.P, pos.M)
		}
	}

	// byID fixes an iteration order so float accumulation (and thus the
	// plan) is deterministic regardless of the devices' input order.
	byID := intsFor(&ws.byID, len(devices))
	for i := range byID {
		byID[i] = i
	}
	sort.Slice(byID, func(a, b int) bool { return devices[byID[a]].GPU.ID < devices[byID[b]].GPU.ID })

	// holders[l] lists the devices holding layer l in byID order, so the
	// release scan below touches only real holders instead of probing
	// every device per layer.
	hcounts := intsFor(&ws.hcounts, spec.Layers)
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
	if cap(ws.harena) < htotal {
		ws.harena = make([]int, 0, htotal)
	}
	harena := ws.harena[:0]
	if cap(ws.holders) < spec.Layers {
		ws.holders = make([][]int, spec.Layers)
	}
	holders := ws.holders[:spec.Layers]
	hoff := 0
	for l, n := range hcounts {
		if n > 0 {
			holders[l] = harena[hoff : hoff : hoff+n]
			hoff += n
		} else {
			holders[l] = nil
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

	// Instances get dense indices (assigned in deterministic first-touch
	// order) so the per-layer deltas and running usage live in flat slices
	// instead of maps — the deferred-layer selection below reads them
	// O(L²) times in the worst case. Each instance carries its own buffer
	// cap: U_max scaled by its type's memory multiplier, so small-memory
	// types defer layers earlier in mixed fleets.
	if ws.instIdx == nil {
		ws.instIdx = map[int64]int{}
	} else {
		clear(ws.instIdx)
	}
	instIdx := ws.instIdx
	instIDs := ws.instIDs[:0]
	instCap := ws.instCap[:0]
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

	// deltas for layers[li] live in one arena at dOff[li]:dOff[li+1],
	// computed once per layer — recomputing them inside every
	// deferred-layer pass was O(L²) work, and per-layer slices were
	// per-plan allocations.
	dArena := ws.dArena[:0]
	dOff := append(ws.dOff[:0], 0)
	layerPos := intsFor(&ws.layerPos, spec.Layers)
	scratch := ws.scratch
	touched := ws.touched[:0]
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
			// keep reproduces oldL.OverlapParamBytes(spec, newRect) with
			// the same float operations; release is what the holder frees
			// once layer l's transfers complete.
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
	ws.instIDs, ws.instCap = instIDs, instCap
	ws.dArena, ws.dOff = dArena, dOff
	ws.scratch, ws.touched = scratch, touched
	deltasOf := func(l int) []instDelta {
		li := layerPos[l]
		return dArena[dOff[li]:dOff[li+1]]
	}

	usage := floatsFor(&ws.usage, len(instIDs))
	peaks := floatsFor(&ws.peaks, len(instIDs))
	// heteroCap is set when instance types scale U_max differently; the
	// ordering score then becomes the worst per-instance cap excess instead
	// of the global peak, so small-memory instances defer layers first. The
	// homogeneous path keeps the exact historical computation (and thus the
	// golden plan orders).
	heteroCap := false
	for _, c := range instCap {
		if c != opt.UmaxBytes {
			heteroCap = true
			break
		}
	}
	// curScore caches the score of the *current* usage vector — the global
	// peak (homogeneous) or the worst cap excess (heterogeneous) — so
	// scoreAfter only has to look at the candidate layer's own deltas
	// instead of rescanning every instance per probe. Maxima are
	// order-independent, so the cached value is bit-identical to a rescan.
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
	// scoreAfter returns the ordering score of migrating layer l next. A
	// layer is admissible when the score is within scoreLimit.
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
	// flushPeaks publishes the per-instance peaks; entries appear only for
	// instances whose buffer ever grew, matching the map-based original.
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
		// layers is pooled workspace; the order is retained by the
		// memoized plan, so hand back an owned copy.
		return append(make([]int, 0, len(layers)), layers...)
	}

	order := make([]int, 0, len(layers)) // retained as pp.layerOrder
	deferred := ws.deferred[:0]          // kept sorted ascending; min-score ties pick the lowest layer
	for _, l := range layers {
		if scoreAfter(l) <= scoreLimit {
			apply(l)
			order = append(order, l)
		} else {
			deferred = append(deferred, l)
		}
	}
	ws.deferred = deferred
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

// Timeline is the realized schedule of a plan: when each stage of the new
// configuration can start serving, relative to migration start.
type Timeline struct {
	// CacheDone is when all cache context has arrived.
	CacheDone float64
	// StageReady[p] is when stage p's context is fully resident.
	StageReady []float64
	// Duration is when the entire migration completes.
	Duration float64
}

// Schedule simulates the plan's data movement: each receiving GPU processes
// its transfers serially (NIC-bound) in plan order — cache context first
// (§3.4), then layers in LayerOrder — while distinct receivers proceed in
// parallel. With Progressive disabled every stage becomes ready only at
// full completion.
func (pl *Plan) Schedule(est *cost.Estimator, progressive bool) Timeline {
	busy := map[int64]float64{} // per receiving GPU
	tl := Timeline{StageReady: make([]float64, pl.Target.P)}

	run := func(tr Transfer) float64 {
		var d float64
		if tr.From == nil {
			// Storage fetch: bandwidth-limited cold load.
			d = tr.Bytes / est.Params.StorageBWPerGPU
		} else {
			d = est.TransferTime(tr.Bytes, tr.Inter)
		}
		busy[tr.To.ID] += d
		return busy[tr.To.ID]
	}

	for _, tr := range pl.Cache {
		end := run(tr)
		if end > tl.CacheDone {
			tl.CacheDone = end
		}
	}
	for _, l := range pl.LayerOrder {
		st := pl.StageOfLayer[l]
		for _, tr := range pl.ByLayer[l] {
			end := run(tr)
			if end > tl.StageReady[st] {
				tl.StageReady[st] = end
			}
		}
	}
	for _, t := range tl.StageReady {
		if t > tl.Duration {
			tl.Duration = t
		}
	}
	if tl.CacheDone > tl.Duration {
		tl.Duration = tl.CacheDone
	}
	if !progressive {
		for p := range tl.StageReady {
			tl.StageReady[p] = tl.Duration
		}
	}
	return tl
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
