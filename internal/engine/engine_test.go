package engine

import (
	"math"
	"testing"

	"spotserve/internal/cloud"
	"spotserve/internal/config"
	"spotserve/internal/cost"
	"spotserve/internal/model"
	"spotserve/internal/sim"
	"spotserve/internal/trace"
	"spotserve/internal/workload"
)

// testHooks is a configurable Hooks implementation.
type testHooks struct {
	iterDone   func(*Pipeline) bool
	reqDone    []*RequestState
	batchDone  int
	paused     []*Batch
	pausedPipe []*Pipeline
}

func (h *testHooks) IterationDone(p *Pipeline) bool {
	if h.iterDone != nil {
		return h.iterDone(p)
	}
	return true
}
func (h *testHooks) RequestDone(p *Pipeline, r *RequestState) { h.reqDone = append(h.reqDone, r) }
func (h *testHooks) BatchDone(p *Pipeline)                    { h.batchDone++ }

// AllowFastForward keeps testHooks on per-iteration stepping; ffHooks opts in.
func (h *testHooks) AllowFastForward(p *Pipeline) bool { return false }
func (h *testHooks) BatchPaused(p *Pipeline, b *Batch) {
	h.paused = append(h.paused, b)
	h.pausedPipe = append(h.pausedPipe, p)
}

type fixture struct {
	sim   *sim.Simulator
	eng   *Engine
	hooks *testHooks
	gpus  []*cloud.GPU
}

type nopListener struct{}

func (nopListener) InstanceReady(*cloud.Instance)             {}
func (nopListener) PreemptionNotice(*cloud.Instance, float64) {}
func (nopListener) InstanceTerminated(*cloud.Instance)        {}

// newFixture builds an engine over nInst 4-GPU instances for spec.
func newFixture(t testing.TB, spec model.Spec, nInst int) *fixture {
	t.Helper()
	s := sim.New()
	cl := cloud.New(s, cloud.DefaultParams(), nopListener{})
	tr := trace.Trace{Name: "t", Horizon: 1e6, Events: []trace.Event{{At: 0, Count: nInst}}}
	if err := cl.ReplayTrace(tr); err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	h := &testHooks{}
	e := New(s, cost.NewEstimator(cost.DefaultParams(), spec), h)
	return &fixture{sim: s, eng: e, hooks: h, gpus: cl.UsableGPUs()}
}

// bind creates the position→GPU map for pipeline id of cfg using GPUs in order.
func (f *fixture) bind(id int, cfg config.Config) map[config.Position]*cloud.GPU {
	out := make(map[config.Position]*cloud.GPU)
	i := 0
	for p := 0; p < cfg.P; p++ {
		for m := 0; m < cfg.M; m++ {
			out[config.Position{D: id, P: p, M: m}] = f.gpus[i]
			i++
		}
	}
	return out
}

func mkBatch(n, seqIn, seqOut int) *Batch {
	b := &Batch{}
	for i := 0; i < n; i++ {
		b.Requests = append(b.Requests, &RequestState{
			Req: workload.Request{ID: int64(i), SeqIn: seqIn, SeqOut: seqOut},
		})
	}
	return b
}

func TestPipelineRunsBatchToCompletion(t *testing.T) {
	f := newFixture(t, model.OPT6B7, 1)
	cfg := config.Config{D: 1, P: 1, M: 4, B: 4}
	p, err := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
	if err != nil {
		t.Fatal(err)
	}
	b := mkBatch(2, 512, 16)
	f.sim.At(0, func() { p.Start(b) })
	f.sim.RunAll()
	if f.hooks.batchDone != 1 {
		t.Fatalf("batchDone = %d", f.hooks.batchDone)
	}
	if len(f.hooks.reqDone) != 2 {
		t.Fatalf("reqDone = %d", len(f.hooks.reqDone))
	}
	for _, r := range b.Requests {
		if !r.Done() || r.Committed != 16 {
			t.Fatalf("request not fully decoded: %+v", r)
		}
	}
	if p.Busy() {
		t.Fatal("pipeline still busy")
	}
	// 16 output tokens = init phase (commits token 1) + 15 decode slots.
	if p.Iterations() != 16 {
		t.Fatalf("iterations = %d, want 16", p.Iterations())
	}
}

func TestExecutionTimeMatchesCostModel(t *testing.T) {
	f := newFixture(t, model.OPT6B7, 1)
	cfg := config.Config{D: 1, P: 1, M: 4, B: 1}
	p, _ := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
	b := mkBatch(1, 512, 128)
	f.sim.At(0, func() { p.Start(b) })
	end := f.sim.RunAll()
	est := f.eng.Est
	want := est.InitPhase(1, 4, 1, 512)
	for i := 1; i < 128; i++ {
		// Iteration i decodes token i+1 at current length 512+i.
		want += est.DecodeIter(1, 4, 1, 512+i)
	}
	if math.Abs(end-want) > 1e-6 {
		t.Fatalf("end = %v, want %v", end, want)
	}
	// Sanity: close to the Table-1 l_exe for OPT-6.7B.
	if end < 4.5 || end > 6.5 {
		t.Fatalf("end-to-end %v s not in OPT-6.7B ballpark", end)
	}
}

func TestRequestStopPausesAtBoundary(t *testing.T) {
	f := newFixture(t, model.OPT6B7, 1)
	cfg := config.Config{D: 1, P: 1, M: 4, B: 1}
	p, _ := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
	b := mkBatch(1, 512, 128)
	f.sim.At(0, func() { p.Start(b) })
	f.sim.At(1.0, func() { p.RequestStop() })
	f.sim.RunAll()
	if len(f.hooks.paused) != 1 {
		t.Fatalf("paused = %d", len(f.hooks.paused))
	}
	got := f.hooks.paused[0]
	if got.Progress() == 0 || got.Progress() >= 128 {
		t.Fatalf("paused progress = %d", got.Progress())
	}
	if p.Busy() {
		t.Fatal("pipeline busy after pause")
	}
}

func TestHookCanPauseViaReturnValue(t *testing.T) {
	f := newFixture(t, model.OPT6B7, 1)
	cfg := config.Config{D: 1, P: 1, M: 4, B: 1}
	p, _ := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
	iters := 0
	f.hooks.iterDone = func(*Pipeline) bool {
		iters++
		return iters < 5
	}
	b := mkBatch(1, 512, 128)
	f.sim.At(0, func() { p.Start(b) })
	f.sim.RunAll()
	if len(f.hooks.paused) != 1 {
		t.Fatalf("paused = %d", len(f.hooks.paused))
	}
	if got := f.hooks.paused[0].Progress(); got != 5 {
		t.Fatalf("progress at pause = %d, want 5", got)
	}
}

func TestResumeFromCommittedProgress(t *testing.T) {
	f := newFixture(t, model.OPT6B7, 1)
	cfg := config.Config{D: 1, P: 1, M: 4, B: 1}
	p, _ := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
	b := mkBatch(1, 512, 32)
	b.Requests[0].Committed = 30 // recovered with 30 tokens done
	f.sim.At(0, func() { p.Start(b) })
	end := f.sim.RunAll()
	if b.Requests[0].Committed != 32 {
		t.Fatalf("committed = %d", b.Requests[0].Committed)
	}
	// Only two decode iterations — no initial phase (stateful recovery).
	// Generating token k+1 attends over 512+k tokens.
	est := f.eng.Est
	want := est.DecodeIter(1, 4, 1, 512+30) + est.DecodeIter(1, 4, 1, 512+31)
	if math.Abs(end-want) > 1e-6 {
		t.Fatalf("resume took %v, want %v (no recompute)", end, want)
	}
}

func TestAbortLosesOnlyUncommittedWork(t *testing.T) {
	f := newFixture(t, model.OPT6B7, 1)
	cfg := config.Config{D: 1, P: 1, M: 4, B: 1}
	p, _ := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
	b := mkBatch(1, 512, 128)
	f.sim.At(0, func() { p.Start(b) })
	var aborted *Batch
	f.sim.At(2.0, func() { aborted = p.Abort() })
	f.sim.Run(10)
	if aborted == nil {
		t.Fatal("no batch returned from Abort")
	}
	prog := aborted.Progress()
	if prog == 0 {
		t.Fatal("no committed progress survived abort")
	}
	// Nothing further executes.
	before := prog
	f.sim.RunAll()
	if aborted.Progress() != before {
		t.Fatal("progress advanced after abort")
	}
	if p.Busy() {
		t.Fatal("pipeline busy after abort")
	}
}

func TestStageGatingDelaysExecution(t *testing.T) {
	f := newFixture(t, model.GPT20B, 3)
	cfg := config.Config{D: 1, P: 3, M: 4, B: 1}
	run := func(readyAt float64) float64 {
		s := sim.New()
		h := &testHooks{}
		e := New(s, f.eng.Est, h)
		p, err := e.NewPipeline(0, cfg, f.bind(0, cfg))
		if err != nil {
			t.Fatal(err)
		}
		p.SetStageReady(2, readyAt) // last stage still migrating
		b := mkBatch(1, 512, 4)
		s.At(0, func() { p.Start(b) })
		return s.RunAll()
	}
	base := run(0)
	delayed := run(5)
	if delayed <= base {
		t.Fatalf("gated run (%v) not slower than base (%v)", delayed, base)
	}
	// The gate only delays the wavefront reaching stage 2, not 5 s per
	// iteration: total slowdown must be below 5 s.
	if delayed-base >= 5 {
		t.Fatalf("gating cost %v, want < 5 (progressive overlap)", delayed-base)
	}
}

func TestCacheDaemonsTrackProgress(t *testing.T) {
	f := newFixture(t, model.OPT6B7, 1)
	cfg := config.Config{D: 1, P: 1, M: 4, B: 2}
	p, _ := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
	b := mkBatch(2, 512, 64)
	f.sim.At(0, func() { p.Start(b) })
	f.sim.At(3, func() { p.RequestStop() })
	f.sim.RunAll()
	prog := b.Progress()
	if prog == 0 {
		t.Fatal("no progress before checking daemons")
	}
	for pos, gpu := range p.GPUs {
		d := f.eng.Daemon(gpu)
		if d.CachePipeline != 0 {
			t.Fatalf("daemon cache pipeline = %d", d.CachePipeline)
		}
		if d.CacheTokens != b.TotalTokens() {
			t.Fatalf("daemon tokens = %d, want %d", d.CacheTokens, b.TotalTokens())
		}
		want := model.PositionRect(f.eng.Est.Spec, cfg.P, cfg.M, pos.P, pos.M)
		if d.CacheRect != want {
			t.Fatalf("daemon rect = %+v, want %+v", d.CacheRect, want)
		}
		if d.CacheBytes(f.eng.Est.Spec) <= 0 {
			t.Fatal("zero cache bytes")
		}
	}
}

func TestCacheDroppedOnBatchDone(t *testing.T) {
	f := newFixture(t, model.OPT6B7, 1)
	cfg := config.Config{D: 1, P: 1, M: 4, B: 1}
	p, _ := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
	b := mkBatch(1, 512, 4)
	f.sim.At(0, func() { p.Start(b) })
	f.sim.RunAll()
	for _, gpu := range p.GPUs {
		if f.eng.Daemon(gpu).CachePipeline != -1 {
			t.Fatal("cache not dropped after completion")
		}
	}
}

func TestMixedFreshAndRecoveredBatch(t *testing.T) {
	f := newFixture(t, model.OPT6B7, 1)
	cfg := config.Config{D: 1, P: 1, M: 4, B: 2}
	p, _ := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
	b := mkBatch(2, 512, 32)
	b.Requests[0].Committed = 20
	f.sim.At(0, func() { p.Start(b) })
	f.sim.RunAll()
	for i, r := range b.Requests {
		if !r.Done() {
			t.Fatalf("request %d not done: %+v", i, r)
		}
	}
	// Recovered request finishes before the fresh one.
	if !(b.Requests[0].DoneAt < b.Requests[1].DoneAt) {
		t.Fatalf("recovered DoneAt %v should precede fresh %v",
			b.Requests[0].DoneAt, b.Requests[1].DoneAt)
	}
}

func TestStartEmptyBatchIsNoop(t *testing.T) {
	f := newFixture(t, model.OPT6B7, 1)
	cfg := config.Config{D: 1, P: 1, M: 4, B: 1}
	p, _ := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
	p.Start(&Batch{})
	p.Start(nil)
	if p.Busy() {
		t.Fatal("pipeline busy after empty start")
	}
}

func TestStartWhileBusyPanics(t *testing.T) {
	f := newFixture(t, model.OPT6B7, 1)
	cfg := config.Config{D: 1, P: 1, M: 4, B: 1}
	p, _ := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
	f.sim.At(0, func() { p.Start(mkBatch(1, 512, 8)) })
	f.sim.At(0.1, func() {
		defer func() {
			if recover() == nil {
				t.Error("double start did not panic")
			}
		}()
		p.Start(mkBatch(1, 512, 8))
	})
	f.sim.RunAll()
}

func TestNewPipelineRejectsIncompleteBinding(t *testing.T) {
	f := newFixture(t, model.OPT6B7, 1)
	cfg := config.Config{D: 1, P: 1, M: 4, B: 1}
	binding := f.bind(0, cfg)
	delete(binding, config.Position{D: 0, P: 0, M: 3})
	if _, err := f.eng.NewPipeline(0, cfg, binding); err == nil {
		t.Fatal("incomplete binding accepted")
	}
	if _, err := f.eng.NewPipeline(0, config.Config{}, nil); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestBatchAccounting(t *testing.T) {
	b := mkBatch(3, 512, 128)
	b.Requests[0].Committed = 10
	b.Requests[1].Committed = 128
	if b.Size() != 2 {
		t.Fatalf("Size = %d, want 2 active", b.Size())
	}
	if b.MaxSeqLen() != 512+128 {
		t.Fatalf("MaxSeqLen = %d", b.MaxSeqLen())
	}
	if b.MinCommitted() != 0 {
		t.Fatalf("MinCommitted = %d", b.MinCommitted())
	}
	if b.TotalTokens() != 3*512+10+128 {
		t.Fatalf("TotalTokens = %d", b.TotalTokens())
	}
	if b.Progress() != 138 {
		t.Fatalf("Progress = %d", b.Progress())
	}
	if b.Requests[0].Remaining() != 118 || b.Requests[1].Remaining() != 0 {
		t.Fatal("Remaining wrong")
	}
}

func TestDaemonLifecycle(t *testing.T) {
	f := newFixture(t, model.OPT6B7, 1)
	d := f.eng.Daemon(f.gpus[0])
	if d != f.eng.Daemon(f.gpus[0]) {
		t.Fatal("Daemon not memoized")
	}
	if len(f.eng.Daemons()) != 1 {
		t.Fatalf("Daemons = %d", len(f.eng.Daemons()))
	}
	f.eng.DropDaemon(f.gpus[0].ID)
	if len(f.eng.Daemons()) != 0 {
		t.Fatal("daemon not dropped")
	}
	// CacheBytes on empty daemon.
	d2 := f.eng.Daemon(f.gpus[1])
	if d2.CacheBytes(f.eng.Est.Spec) != 0 {
		t.Fatal("empty daemon has cache bytes")
	}
}
