// Package cost is the analytical cost model standing in for the paper's
// offline profiler (§5). It estimates, for any model and parallel
// configuration: per-iteration decode latency, initial-phase latency,
// end-to-end execution latency l_exe, serving throughput φ(C), per-GPU
// memory footprints, context-migration transfer time, and full-restart
// (parameter reload) time.
//
// The constants in DefaultParams are calibrated so that l_exe(B=1) for the
// three paper models at their Table-1 configurations lands within tolerance
// of the published numbers, and so that the memory model reproduces the
// Table-1 minimum GPU counts (and the §6.2 ablation claim that the
// memory-optimized migration planner lowers GPT-20B's minimum from 16 to 12
// GPUs). Like the paper's profiler, the model deliberately penalizes
// resource under-utilization: small batches, over-sharded intra-op
// parallelism, and small communication volumes.
package cost

import (
	"fmt"
	"sync"

	"spotserve/internal/config"
	"spotserve/internal/model"
)

// Params holds the hardware and calibration constants of the simulated
// testbed (AWS g4dn.12xlarge: 4× NVIDIA T4 per instance).
type Params struct {
	// GPUsPerInstance is the number of GPUs per cloud instance.
	GPUsPerInstance int

	// GPUMemBytes is the physical device memory (T4: 16 GB).
	GPUMemBytes float64
	// UsableGPUMemBytes is what the serving runtime may occupy with
	// parameters, KV cache, activations and migration buffers after the
	// CUDA context and allocator overheads are paid.
	UsableGPUMemBytes float64
	// ActivationBytes is the per-GPU activation/workspace reservation.
	ActivationBytes float64
	// BufMaxBytes is U_max: the migration-buffer cap enforced by the
	// memory-optimized migration planner (Algorithm 2).
	BufMaxBytes float64

	// MemBWBytes is device memory bandwidth (T4: 320 GB/s); decode
	// iterations are bandwidth-bound.
	MemBWBytes float64
	// MemBWEff derates achievable bandwidth (kernel efficiency).
	MemBWEff float64
	// ShardPenalty models over-sharded intra-op parallelism: effective
	// bandwidth is scaled by 1/(1+ShardPenalty×(M−1)).
	ShardPenalty float64
	// BatchPenalty inflates per-iteration time by (1+BatchPenalty×(B−1)):
	// larger batches read more activations/KV and use less efficient
	// kernels on T4-class GPUs.
	BatchPenalty float64

	// FlopsFP16 is peak tensor throughput (T4: 65 TFLOPS) and ComputeEff
	// its achievable fraction; the initial phase is compute-bound.
	FlopsFP16  float64
	ComputeEff float64

	// KernelOverhead is fixed per-layer per-iteration launch overhead.
	KernelOverhead float64

	// IntraBWBytes / InterBWBytes are per-link bandwidths inside an
	// instance (PCIe/NVLink) and across instances (50 Gbit/s network).
	IntraBWBytes float64
	InterBWBytes float64
	// AlphaIntra / AlphaInter are per-message latencies.
	AlphaIntra float64
	AlphaInter float64

	// StorageBWPerGPU is the per-GPU bandwidth when (re)loading
	// parameters from persistent/cloud storage.
	StorageBWPerGPU float64
	// EngineInitTime is the fixed cost of launching and initializing a
	// distributed inference engine process group.
	EngineInitTime float64

	// GracePeriod is the cloud's preemption grace period (30 s on AWS).
	GracePeriod float64
	// AcquireDelay is the time from requesting a fresh instance to the
	// instance being ready to initialize ("2 minutes for launching and
	// initializing in our evaluations", §3.2).
	AcquireDelay float64
}

// DefaultParams returns the calibrated g4dn.12xlarge/T4 testbed constants.
func DefaultParams() Params {
	return Params{
		GPUsPerInstance: 4,

		GPUMemBytes:       16.0 * model.GB,
		UsableGPUMemBytes: 11.5 * model.GB,
		ActivationBytes:   1.5 * model.GB,
		BufMaxBytes:       1.0 * model.GB,

		MemBWBytes:   320.0 * model.GB,
		MemBWEff:     0.62,
		ShardPenalty: 0.08,
		BatchPenalty: 0.12,

		FlopsFP16:  65e12,
		ComputeEff: 0.35,

		KernelOverhead: 50e-6,

		IntraBWBytes: 30.0 * model.GB,
		InterBWBytes: 6.0 * model.GB,
		AlphaIntra:   30e-6,
		AlphaInter:   180e-6,

		StorageBWPerGPU: 0.4 * model.GB,
		EngineInitTime:  30.0,

		GracePeriod:  30.0,
		AcquireDelay: 120.0,
	}
}

// Validate checks the parameters are physically sensible.
func (p Params) Validate() error {
	if p.GPUsPerInstance <= 0 {
		return fmt.Errorf("cost: GPUsPerInstance = %d", p.GPUsPerInstance)
	}
	// A slice, not a map: with several invalid fields the error must name
	// the same one on every run (map order would pick one at random).
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"GPUMemBytes", p.GPUMemBytes}, {"UsableGPUMemBytes", p.UsableGPUMemBytes},
		{"MemBWBytes", p.MemBWBytes}, {"MemBWEff", p.MemBWEff},
		{"FlopsFP16", p.FlopsFP16}, {"ComputeEff", p.ComputeEff},
		{"IntraBWBytes", p.IntraBWBytes}, {"InterBWBytes", p.InterBWBytes},
		{"StorageBWPerGPU", p.StorageBWPerGPU},
	} {
		name, v := f.name, f.v
		if v <= 0 {
			return fmt.Errorf("cost: %s = %v must be positive", name, v)
		}
	}
	if p.UsableGPUMemBytes > p.GPUMemBytes {
		return fmt.Errorf("cost: usable memory %v exceeds physical %v", p.UsableGPUMemBytes, p.GPUMemBytes)
	}
	return nil
}

// Estimator evaluates the cost model for one model spec.
type Estimator struct {
	Params Params
	Spec   model.Spec

	// memo caches the pure hot-path quantities (per-iteration decode
	// latency and the cumulative execution-latency tables behind Exec /
	// ExecPartial). It is nil for Estimators built as struct literals, in
	// which case every call recomputes from scratch.
	memo *estMemo
}

// estMemo holds the memoized cost tables. All tables store values produced
// by exactly the same floating-point operation sequence as the unmemoized
// paths, so memoized and fresh Estimators are bit-identical — the golden
// fingerprint tests depend on this.
type estMemo struct {
	mu     sync.Mutex
	decode map[shapeKey]*decodeTable
	exec   map[execKey]*execTable
	// feasible caches FeasibleShapesScaled results (the shape table
	// Algorithm 1 re-enumerates on every fleet event). Values are shared
	// read-only slices.
	feasible map[feasKey][]config.Config
	// spans holds the closed-form span-time prefix tables (span.go).
	spans map[spanKey]*unitTable
}

// feasKey identifies one feasibility enumeration.
type feasKey struct {
	limits   string
	b        int
	tokens   int
	naive    bool
	memScale float64
}

// limitsFingerprint canonically encodes a Limits value for memo keying.
func limitsFingerprint(l config.Limits) string {
	return fmt.Sprintf("%d|%v|%v", l.MaxP, l.Ms, l.Bs)
}

// shapeKey identifies a (P, M, B) execution shape.
type shapeKey struct{ p, m, b int }

// decodeTable memoizes DecodeIter for one (P, M, B) over the sequence
// lengths [lo, lo+len(v)) asked for so far — not from length 0, since runs
// decode at lengths past S_in. DecodeIter is strictly positive, so 0 marks
// an unfilled slot. A filled slot is never rewritten, and growing below lo
// copies into a new array, so a slice DecodeRange handed out stays valid.
type decodeTable struct {
	lo int
	v  []float64
}

// cover grows t to include lengths lo..hi; new slots are unfilled.
func (t *decodeTable) cover(lo, hi int) {
	switch {
	case len(t.v) == 0:
		t.lo, t.v = lo, make([]float64, hi-lo+1)
		return
	case lo < t.lo:
		v := make([]float64, t.lo-lo+len(t.v))
		copy(v[t.lo-lo:], t.v)
		t.lo, t.v = lo, v
	}
	if n := hi - t.lo + 1; n > len(t.v) {
		t.v = append(t.v, make([]float64, n-len(t.v))...)
	}
}

// execKey identifies a (P, M, B, S_in) execution-latency table.
type execKey struct{ p, m, b, sin int }

// execTable holds the two cumulative latency recurrences for one
// (P, M, B, S_in):
//
//	cum[k]     = Exec(k):        cum[0] = InitPhase, cum[k] = cum[k-1] + DecodeIter(sin+k)
//	partial[k] = ExecPartial(0,k): partial[0] = 0,   partial[k] = partial[k-1] + DecodeIter(sin+k)
//
// Both are exactly the accumulation order of the original O(S_out) loops,
// so lookups reproduce the loop results bit for bit while answering any
// sout / to in O(1) after the first fill.
type execTable struct {
	cum     []float64
	partial []float64
}

// NewEstimator builds an estimator; it panics on invalid inputs because
// estimators are constructed from static configuration at startup.
func NewEstimator(p Params, spec model.Spec) *Estimator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &Estimator{Params: p, Spec: spec, memo: &estMemo{
		decode:   make(map[shapeKey]*decodeTable),
		exec:     make(map[execKey]*execTable),
		feasible: make(map[feasKey][]config.Config),
		spans:    make(map[spanKey]*unitTable),
	}}
}

// shared caches estimators per (Params, Spec). The cost model stands in
// for the paper's *offline* profiler (§5): its tables depend only on the
// hardware constants and the model, so every serving run over the same
// testbed shares one instance instead of re-deriving the profile.
// Estimators are concurrency-safe (the memo is mutex-guarded) and
// memoized values are bit-identical to fresh computation, so sharing
// never changes results — it only removes repeated table fills across
// runs and sweep cells.
var (
	sharedMu  sync.Mutex
	sharedEst = map[sharedKey]*Estimator{}
)

type sharedKey struct {
	p    Params
	spec model.Spec
}

// Shared returns the process-wide estimator for (p, spec) — the offline
// profile every serving run over the same testbed reuses.
func Shared(p Params, spec model.Spec) *Estimator {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	key := sharedKey{p: p, spec: spec}
	if e, ok := sharedEst[key]; ok {
		return e
	}
	e := NewEstimator(p, spec)
	sharedEst[key] = e
	return e
}

// NumParams converts the Table-1 serialized size (fp32) to a parameter
// count for FLOP estimation.
func (e *Estimator) NumParams() float64 { return e.Spec.ParamBytes / 4 }

// StageParamBytesPerGPU returns the parameter bytes resident on one GPU for
// shape (P, M), using the largest stage.
func (e *Estimator) StageParamBytesPerGPU(P, M int) float64 {
	layers := model.MaxStageLayers(e.Spec.Layers, P)
	return float64(layers) * e.Spec.LayerParamBytes() / float64(M)
}

// effMemBW is the achievable per-GPU memory bandwidth at tensor degree M.
func (e *Estimator) effMemBW(M int) float64 {
	p := e.Params
	return p.MemBWBytes * p.MemBWEff / (1 + p.ShardPenalty*float64(M-1))
}

// linkFor returns (alpha, bandwidth) for a communicator spanning M ranks:
// intra-instance when the group fits in one instance, otherwise the
// inter-instance network dominates.
func (e *Estimator) linkFor(M int) (alpha, bw float64) {
	if M <= e.Params.GPUsPerInstance {
		return e.Params.AlphaIntra, e.Params.IntraBWBytes
	}
	return e.Params.AlphaInter, e.Params.InterBWBytes
}

// allReduceTime estimates a ring all-reduce of msgBytes across M ranks.
func (e *Estimator) allReduceTime(M int, msgBytes float64) float64 {
	if M <= 1 {
		return 0
	}
	alpha, bw := e.linkFor(M)
	return alpha + 2*float64(M-1)/float64(M)*msgBytes/bw
}

// p2pTime estimates a point-to-point activation transfer between stages.
func (e *Estimator) p2pTime(msgBytes float64) float64 {
	return e.Params.AlphaInter + msgBytes/e.Params.InterBWBytes
}

// DecodeIter returns the latency of one incremental decoding iteration
// (generate one token for each of B requests) at sequence length curLen.
// The iteration flows through all P stages sequentially; each stage is
// memory-bandwidth-bound reading its parameter shard plus the KV cache.
// Calls are memoized per (P, M, B, curLen), so the simulator's fast-forward
// loop and Algorithm 1's enumeration pay the full model exactly once per
// distinct point.
func (e *Estimator) DecodeIter(P, M, B, curLen int) float64 {
	if e.memo == nil {
		return e.decodeIterRaw(P, M, B, curLen)
	}
	e.memo.mu.Lock()
	v := e.decodeLocked(P, M, B, curLen)
	e.memo.mu.Unlock()
	return v
}

// decodeLocked reads (filling on miss) the memoized DecodeIter value.
// Caller holds memo.mu. DecodeIter is strictly positive, so 0 marks
// unfilled slots.
func (e *Estimator) decodeLocked(P, M, B, curLen int) float64 {
	t := e.decodeTableLocked(P, M, B)
	if i := curLen - t.lo; i >= 0 && i < len(t.v) && t.v[i] != 0 {
		return t.v[i]
	}
	t.cover(curLen, curLen)
	v := e.decodeIterRaw(P, M, B, curLen)
	t.v[curLen-t.lo] = v
	return v
}

// decodeTableLocked returns (creating on first use) the DecodeIter table
// of one shape. Caller holds memo.mu.
func (e *Estimator) decodeTableLocked(P, M, B int) *decodeTable {
	key := shapeKey{P, M, B}
	t := e.memo.decode[key]
	if t == nil {
		t = &decodeTable{}
		e.memo.decode[key] = t
	}
	return t
}

// DecodeRange returns a read-only slice s with s[i] = DecodeIter(P, M, B,
// lo+i) for lo+i ≤ hi — the bulk form the engine's fast-forward loop uses
// to price a whole run of iterations under one lock acquisition instead of
// one per token. Values are the same memoized entries DecodeIter returns;
// callers must not mutate the slice.
func (e *Estimator) DecodeRange(P, M, B, lo, hi int) []float64 {
	if e.memo == nil {
		out := make([]float64, hi-lo+1)
		for i := range out {
			out[i] = e.decodeIterRaw(P, M, B, lo+i)
		}
		return out
	}
	e.memo.mu.Lock()
	t := e.decodeTableLocked(P, M, B)
	t.cover(lo, hi)
	out := t.v[lo-t.lo : hi-t.lo+1 : hi-t.lo+1]
	for i, v := range out {
		if v == 0 {
			out[i] = e.decodeIterRaw(P, M, B, lo+i)
		}
	}
	e.memo.mu.Unlock()
	return out
}

// decodeIterRaw is the closed-form model behind DecodeIter.
func (e *Estimator) decodeIterRaw(P, M, B, curLen int) float64 {
	p := e.Params
	stageLayers := model.MaxStageLayers(e.Spec.Layers, P)
	bw := e.effMemBW(M)

	paramRead := e.StageParamBytesPerGPU(P, M) / bw
	kvRead := float64(B) * float64(curLen) * e.Spec.KVBytesPerTokenLayer() *
		float64(stageLayers) / float64(M) / bw
	stageTime := (paramRead + kvRead) * (1 + p.BatchPenalty*float64(B-1))
	stageTime += float64(stageLayers) * p.KernelOverhead

	// Two all-reduces per transformer layer (attention out-proj and FFN
	// down-proj) when tensor-parallel.
	msg := float64(B) * float64(e.Spec.Hidden) * model.BytesPerValue
	ar := 2 * float64(e.Spec.Layers) * e.allReduceTime(M, msg)

	p2p := float64(P-1) * e.p2pTime(msg)

	return float64(P)*stageTime + ar + p2p
}

// InitPhase returns the latency of the initial phase: all S_in input tokens
// of each of B requests processed in parallel (compute-bound).
func (e *Estimator) InitPhase(P, M, B, sin int) float64 {
	p := e.Params
	gpus := float64(P * M)
	flops := 2 * e.NumParams() * float64(sin) * float64(B)
	compute := flops / (gpus * p.FlopsFP16 * p.ComputeEff)

	msg := float64(B) * float64(sin) * float64(e.Spec.Hidden) * model.BytesPerValue
	ar := 2 * float64(e.Spec.Layers) * e.allReduceTime(M, msg)
	p2p := float64(P-1) * e.p2pTime(msg)
	kernels := float64(model.MaxStageLayers(e.Spec.Layers, P)*P) * p.KernelOverhead
	return compute + ar + p2p + kernels
}

// Exec returns l_exe(S_out | S_in): initial phase plus S_out incremental
// decoding iterations (equation 1 of the paper). With a memoized Estimator
// the answer comes from a cumulative prefix table — O(1) per call after the
// first fill, which is what makes Algorithm 1's enumeration cheap.
func (e *Estimator) Exec(P, M, B, sin, sout int) float64 {
	if e.memo == nil {
		t := e.InitPhase(P, M, B, sin)
		for i := 1; i <= sout; i++ {
			t += e.decodeIterRaw(P, M, B, sin+i)
		}
		return t
	}
	e.memo.mu.Lock()
	t := e.execLocked(P, M, B, sin)
	for len(t.cum) <= sout {
		k := len(t.cum)
		if k == 0 {
			t.cum = append(t.cum, e.InitPhase(P, M, B, sin))
		} else {
			t.cum = append(t.cum, t.cum[k-1]+e.decodeLocked(P, M, B, sin+k))
		}
	}
	v := t.cum[sout]
	e.memo.mu.Unlock()
	return v
}

// ExecPartial returns the execution latency of decoding from token
// `from` (exclusive) to token `to` (inclusive) after the initial phase has
// already run — used by stateful recovery to price resumed requests. The
// from == 0 form (the arranger's reroute-vs-migrate query) is answered from
// a cumulative table in O(1).
func (e *Estimator) ExecPartial(P, M, B, sin, from, to int) float64 {
	if to <= from {
		return 0
	}
	if e.memo == nil {
		t := 0.0
		for i := from + 1; i <= to; i++ {
			t += e.decodeIterRaw(P, M, B, sin+i)
		}
		return t
	}
	e.memo.mu.Lock()
	defer e.memo.mu.Unlock()
	if from == 0 {
		t := e.execLocked(P, M, B, sin)
		for len(t.partial) <= to {
			k := len(t.partial)
			if k == 0 {
				t.partial = append(t.partial, 0)
			} else {
				t.partial = append(t.partial, t.partial[k-1]+e.decodeLocked(P, M, B, sin+k))
			}
		}
		return t.partial[to]
	}
	t := 0.0
	for i := from + 1; i <= to; i++ {
		t += e.decodeLocked(P, M, B, sin+i)
	}
	return t
}

// execLocked returns (creating on first use) the execution-latency table
// for one (P, M, B, S_in). Caller holds memo.mu.
func (e *Estimator) execLocked(P, M, B, sin int) *execTable {
	key := execKey{P, M, B, sin}
	t, ok := e.memo.exec[key]
	if !ok {
		t = &execTable{}
		e.memo.exec[key] = t
	}
	return t
}

// Throughput returns φ(C): steady-state serving rate in requests/second.
// Each pipeline serves batches of B requests taking l_exe each; D pipelines
// run independently.
func (e *Estimator) Throughput(c config.Config, sin, sout int) float64 {
	if c.IsZero() || c.B <= 0 {
		return 0
	}
	l := e.Exec(c.P, c.M, c.B, sin, sout)
	if l <= 0 {
		return 0
	}
	return float64(c.D) * float64(c.B) / l
}

// Latency returns the model-only end-to-end latency l_exe for configuration
// c at the default sequence lengths — the optimizer's l_req proxy before
// queueing is considered.
func (e *Estimator) Latency(c config.Config, sin, sout int) float64 {
	return e.Exec(c.P, c.M, c.B, sin, sout)
}
