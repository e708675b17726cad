package engine

import (
	"fmt"
	"testing"

	"spotserve/internal/cloud"
	"spotserve/internal/config"
	"spotserve/internal/model"
)

// ffHooks wraps testHooks with the fast-forward opt-in and an event trace
// so fast-forward and per-iteration runs can be compared step for step.
type ffHooks struct {
	testHooks
	allow func(*Pipeline) bool
	trace []string
	sim   interface{ Now() float64 }
}

func (h *ffHooks) AllowFastForward(p *Pipeline) bool {
	if h.allow != nil {
		return h.allow(p)
	}
	return true
}

func (h *ffHooks) log(format string, args ...any) {
	h.trace = append(h.trace, fmt.Sprintf("%.17g ", h.sim.Now())+fmt.Sprintf(format, args...))
}

func (h *ffHooks) RequestDone(p *Pipeline, r *RequestState) {
	h.log("reqDone id=%d doneAt=%.17g restarts=%d", r.Req.ID, r.DoneAt, r.Restarts)
	h.testHooks.RequestDone(p, r)
}

func (h *ffHooks) BatchDone(p *Pipeline) {
	h.log("batchDone pipe=%d iters=%d", p.ID, p.Iterations())
	h.testHooks.BatchDone(p)
}

func (h *ffHooks) BatchPaused(p *Pipeline, b *Batch) {
	h.log("batchPaused pipe=%d prog=%d", p.ID, b.Progress())
	h.testHooks.BatchPaused(p, b)
}

// ffFixture builds an engine whose hooks opt into fast-forward; noFF forces
// the reference per-iteration mode.
func ffFixture(t *testing.T, spec model.Spec, nInst int, noFF bool) (*fixture, *ffHooks) {
	t.Helper()
	f := newFixture(t, spec, nInst)
	h := &ffHooks{sim: f.sim}
	f.eng.Hooks = h
	f.eng.NoFastForward = noFF
	return f, h
}

// runBoth executes the same driver against a fast-forward and a
// per-iteration engine and returns both hook traces plus the two fixtures.
func runBoth(t *testing.T, drive func(f *fixture, h *ffHooks)) (fast, slow *ffHooks) {
	t.Helper()
	ff, fh := ffFixture(t, model.OPT6B7, 1, false)
	drive(ff, fh)
	pi, ph := ffFixture(t, model.OPT6B7, 1, true)
	drive(pi, ph)
	if len(fh.trace) != len(ph.trace) {
		t.Fatalf("trace lengths differ: fast %d vs per-iteration %d\nfast: %v\nslow: %v",
			len(fh.trace), len(ph.trace), fh.trace, ph.trace)
	}
	for i := range fh.trace {
		if fh.trace[i] != ph.trace[i] {
			t.Fatalf("trace[%d] differs:\nfast: %s\nslow: %s", i, fh.trace[i], ph.trace[i])
		}
	}
	return fh, ph
}

// TestFastForwardBatchTraceIdentical proves a plain batch run emits the
// same hook trace — request completion times to the last bit — in one event
// per run as in one event per iteration.
func TestFastForwardBatchTraceIdentical(t *testing.T) {
	fast, _ := runBoth(t, func(f *fixture, h *ffHooks) {
		cfg := config.Config{D: 1, P: 1, M: 4, B: 4}
		p, err := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
		if err != nil {
			t.Fatal(err)
		}
		b := mkBatch(3, 512, 40)
		b.Requests[1].Committed = 25 // staggered completions inside the run
		b.Requests[2].Committed = 10
		f.sim.At(0, func() { p.Start(b) })
		f.sim.RunAll()
	})
	if len(fast.reqDone) != 3 || fast.batchDone != 1 {
		t.Fatalf("reqDone=%d batchDone=%d", len(fast.reqDone), fast.batchDone)
	}
}

// TestFastForwardUsesFewerEvents pins the mechanism itself: the same batch
// must execute in far fewer simulator events when fast-forwarding.
func TestFastForwardUsesFewerEvents(t *testing.T) {
	run := func(noFF bool) uint64 {
		f, _ := ffFixture(t, model.OPT6B7, 1, noFF)
		cfg := config.Config{D: 1, P: 1, M: 4, B: 1}
		p, _ := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
		f.sim.At(0, func() { p.Start(mkBatch(1, 512, 128)) })
		f.sim.RunAll()
		return f.sim.Steps()
	}
	fast, slow := run(false), run(true)
	if slow < 128 {
		t.Fatalf("per-iteration steps = %d, want ≥ 128", slow)
	}
	if fast > 8 {
		t.Fatalf("fast-forward steps = %d, want single-digit (one event per run)", fast)
	}
}

// TestFastForwardMidRunStop interrupts a fast-forward run with RequestStop
// partway through: the pause must land on the next iteration boundary with
// exactly the progress per-iteration stepping would have committed.
func TestFastForwardMidRunStop(t *testing.T) {
	runBoth(t, func(f *fixture, h *ffHooks) {
		cfg := config.Config{D: 1, P: 1, M: 4, B: 1}
		p, _ := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
		b := mkBatch(1, 512, 128)
		f.sim.At(0, func() { p.Start(b) })
		f.sim.At(1.0, func() { p.RequestStop() })
		f.sim.RunAll()
		h.log("final prog=%d busy=%v", b.Progress(), p.Busy())
	})
}

// TestFastForwardMidRunAbort aborts mid-run: boundaries already passed on
// the virtual clock must be committed (at most one iteration of work lost),
// exactly as when stepping.
func TestFastForwardMidRunAbort(t *testing.T) {
	runBoth(t, func(f *fixture, h *ffHooks) {
		cfg := config.Config{D: 1, P: 1, M: 4, B: 1}
		p, _ := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
		b := mkBatch(1, 512, 128)
		f.sim.At(0, func() { p.Start(b) })
		f.sim.At(2.0, func() {
			ab := p.Abort()
			h.log("aborted prog=%d iters=%d", ab.Progress(), p.Iterations())
		})
		f.sim.RunAll()
	})
}

// TestFastForwardDaemonReadsSync reads daemon cache state in the middle of
// a fast-forward run: Engine.Daemon must first commit the boundaries the
// clock has passed, so external observers see per-iteration state.
func TestFastForwardDaemonReadsSync(t *testing.T) {
	runBoth(t, func(f *fixture, h *ffHooks) {
		cfg := config.Config{D: 1, P: 1, M: 4, B: 2}
		p, _ := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
		b := mkBatch(2, 512, 128)
		f.sim.At(0, func() { p.Start(b) })
		for _, at := range []float64{0.7, 1.9, 3.3} {
			at := at
			f.sim.At(at, func() {
				d := f.eng.Daemon(f.gpus[0])
				h.log("daemon tokens=%d prog=%d iters=%d",
					d.CacheTokens, p.Batch().Progress(), p.Iterations())
			})
		}
		f.sim.RunAll()
	})
}

// TestFastForwardInterruptDemotesToStepping flips the AllowFastForward
// promise mid-run (as a reconfiguration does), interrupts, and verifies the
// hook-driven pause lands on the same boundary as per-iteration stepping.
func TestFastForwardInterruptDemotesToStepping(t *testing.T) {
	runBoth(t, func(f *fixture, h *ffHooks) {
		cfg := config.Config{D: 1, P: 1, M: 4, B: 1}
		p, _ := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
		stopping := false
		h.allow = func(*Pipeline) bool { return !stopping }
		remaining := 3
		h.iterDone = func(*Pipeline) bool {
			if !stopping {
				return true
			}
			remaining--
			return remaining > 0
		}
		b := mkBatch(1, 512, 128)
		f.sim.At(0, func() { p.Start(b) })
		f.sim.At(1.5, func() {
			// The promise expires: per-iteration decisions from here on,
			// allowing exactly 3 more iterations.
			stopping = true
			p.Interrupt()
		})
		f.sim.RunAll()
		h.log("final prog=%d", b.Progress())
	})
}

// TestFastForwardRespectsStageGates keeps fast-forward off while stage
// gates lie in the future and verifies the gated timeline is unchanged.
func TestFastForwardRespectsStageGates(t *testing.T) {
	run := func(noFF bool) float64 {
		f, _ := ffFixture(t, model.GPT20B, 3, noFF)
		cfg := config.Config{D: 1, P: 3, M: 4, B: 1}
		p, err := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
		if err != nil {
			t.Fatal(err)
		}
		p.SetStageReady(2, 5)
		f.sim.At(0, func() { p.Start(mkBatch(1, 512, 16)) })
		return f.sim.RunAll()
	}
	fast, slow := run(false), run(true)
	if fast != slow {
		t.Fatalf("gated completion differs: fast %v vs per-iteration %v", fast, slow)
	}
}

// TestFastForwardRestartAfterPause pauses a fast-forward run, restarts the
// batch, and checks the resumed run (no initial phase) still matches.
func TestFastForwardRestartAfterPause(t *testing.T) {
	runBoth(t, func(f *fixture, h *ffHooks) {
		cfg := config.Config{D: 1, P: 1, M: 4, B: 1}
		p, _ := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
		b := mkBatch(1, 512, 64)
		f.sim.At(0, func() { p.Start(b) })
		f.sim.At(1.0, func() { p.RequestStop() })
		f.sim.At(4.0, func() {
			if !p.Busy() && !b.Requests[0].Done() {
				p.Start(b)
			}
		})
		f.sim.RunAll()
		h.log("final committed=%d", b.Requests[0].Committed)
	})
}

// TestDroppedDaemonsStayDropped is the regression test for aborting a
// fast-forwarding pipeline whose GPUs were terminated: the abort commits
// the boundaries the clock has passed, and that commit used to re-create
// every daemon DropDaemon had just forgotten. It also pins that a live
// pipeline refreshes exactly the daemon Engine.Daemon returns.
func TestDroppedDaemonsStayDropped(t *testing.T) {
	f, _ := ffFixture(t, model.OPT6B7, 2, false)
	cfg := config.Config{D: 2, P: 2, M: 2, B: 4}
	bind := func(id int) map[config.Position]*cloud.GPU {
		out := map[config.Position]*cloud.GPU{}
		for p := 0; p < cfg.P; p++ {
			for m := 0; m < cfg.M; m++ {
				out[config.Position{D: id, P: p, M: m}] = f.gpus[4*id+p*cfg.M+m]
			}
		}
		return out
	}
	dead, err := f.eng.NewPipeline(0, cfg, bind(0))
	if err != nil {
		t.Fatal(err)
	}
	live, err := f.eng.NewPipeline(1, cfg, bind(1))
	if err != nil {
		t.Fatal(err)
	}
	f.sim.At(0, func() {
		dead.Start(mkBatch(2, 512, 64))
		live.Start(mkBatch(2, 512, 64))
	})
	// The first iteration pays the initial phase; its completion arms the
	// first fast-forward segment.
	f.sim.Run(0)
	f.sim.Run(dead.iterEnd)
	if !dead.ffActive || dead.sc.segs[0].end < 3 {
		t.Fatalf("no multi-boundary fast-forward segment armed (active=%v)", dead.ffActive)
	}
	mid := (dead.sc.times[1] + dead.sc.times[2]) / 2
	f.sim.At(mid, func() {})
	f.sim.Run(mid)

	committed := dead.batch.Progress()
	for _, g := range dead.GPUs {
		f.eng.DropDaemon(g.ID)
	}
	b := dead.Abort()
	if b.Progress() <= committed {
		t.Fatalf("abort committed no passed boundary (progress %d → %d)", committed, b.Progress())
	}
	for _, d := range f.eng.Daemons() {
		for _, g := range dead.GPUs {
			if d.GPU == g {
				t.Fatalf("daemon of dropped GPU %d re-created", g.ID)
			}
		}
	}

	f.sim.Run(mid + 1)
	for _, ref := range live.cacheRefs {
		d := f.eng.Daemon(ref.d.GPU)
		if d != ref.d {
			t.Fatalf("Engine.Daemon(%d) is not the daemon the pipeline refreshes", ref.d.GPU.ID)
		}
		if d.CachePipeline != live.ID || d.CacheTokens != live.Batch().TotalTokens() {
			t.Fatalf("daemon %d: cache pipeline %d, %d tokens; want %d, %d",
				d.GPU.ID, d.CachePipeline, d.CacheTokens, live.ID, live.Batch().TotalTokens())
		}
	}
}
