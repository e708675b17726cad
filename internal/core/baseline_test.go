package core

import (
	"testing"

	"spotserve/internal/cloud"
	"spotserve/internal/model"
	"spotserve/internal/sim"
	"spotserve/internal/trace"
	"spotserve/internal/workload"
)

// serve builds a system with build, replays tr with CV=6 arrivals at rate,
// and runs 900 s past the horizon to drain.
func serve[S interface {
	Install()
	LoadWorkload([]workload.Request, float64)
	Stats() Stats
}](t *testing.T, build func(*sim.Simulator, *cloud.Cloud, Options) S, spec model.Spec, tr trace.Trace, rate float64, seed int64) Stats {
	t.Helper()
	s := sim.New()
	cp := cloud.DefaultParams()
	cp.Seed = seed
	cl := cloud.New(s, cp, nil)
	opts := DefaultOptions(spec)
	opts.BaseRate = rate
	sys := build(s, cl, opts)
	sys.Install()
	if err := cl.ReplayTrace(tr); err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(workload.Options{
		Horizon: tr.Horizon, Rate: workload.ConstantRate(rate), CV: 6,
		SeqIn: opts.SeqIn, SeqOut: opts.SeqOut, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.LoadWorkload(reqs, tr.Horizon)
	s.Run(tr.Horizon + 900)
	return sys.Stats()
}

func TestReparallelSteadyState(t *testing.T) {
	st := serve(t, NewReparallel, model.OPT6B7, steadyTrace(6, 600), 1.0, 1)
	if st.Completed != st.Submitted {
		t.Fatalf("completed %d of %d", st.Completed, st.Submitted)
	}
	if st.Reloads != 0 {
		t.Fatalf("steady trace caused %d restarts", st.Reloads)
	}
}

func TestRerouteSteadyState(t *testing.T) {
	st := serve(t, NewReroute, model.OPT6B7, steadyTrace(6, 600), 1.0, 1)
	if st.Completed != st.Submitted {
		t.Fatalf("completed %d of %d", st.Completed, st.Submitted)
	}
}

func TestReparallelRestartsOnPreemption(t *testing.T) {
	st := serve(t, NewReparallel, model.GPT20B, trace.AS(), 0.35, 2)
	if st.Reloads == 0 {
		t.Fatal("no restarts on a preemption trace")
	}
	if st.Completed < st.Submitted/2 {
		t.Fatalf("completed only %d of %d", st.Completed, st.Submitted)
	}
	if st.TokensRecovered != 0 {
		t.Fatal("baseline must not recover tokens statefully")
	}
}

func TestRerouteDropsPipelines(t *testing.T) {
	st := serve(t, NewReroute, model.GPT20B, trace.AS(), 0.35, 2)
	if st.Completed < st.Submitted/2 {
		t.Fatalf("completed only %d of %d", st.Completed, st.Submitted)
	}
	// Pipeline re-initializations appear as reloads.
	if st.Reloads == 0 {
		t.Fatal("no pipeline re-initializations on a dynamic trace")
	}
}

// TestSpotServeBeatsBaselines is the headline Figure-6 property: on a
// preemption trace, SpotServe's P99 must beat Reparallelization, which in
// turn should generally beat or match Rerouting under overload.
func TestSpotServeBeatsBaselines(t *testing.T) {
	ss := serve(t, NewServer, model.GPT20B, trace.BS(), 0.35, 3)
	rp := serve(t, NewReparallel, model.GPT20B, trace.BS(), 0.35, 3)
	rr := serve(t, NewReroute, model.GPT20B, trace.BS(), 0.35, 3)
	t.Logf("P99: SpotServe=%.1f Reparallel=%.1f Reroute=%.1f", ss.Latency.P99, rp.Latency.P99, rr.Latency.P99)
	t.Logf("Avg: SpotServe=%.1f Reparallel=%.1f Reroute=%.1f", ss.Latency.Avg, rp.Latency.Avg, rr.Latency.Avg)
	if ss.Latency.P99 >= rp.Latency.P99 {
		t.Errorf("SpotServe P99 %.1f not below Reparallelization %.1f", ss.Latency.P99, rp.Latency.P99)
	}
	if ss.Latency.P99 >= rr.Latency.P99 {
		t.Errorf("SpotServe P99 %.1f not below Rerouting %.1f", ss.Latency.P99, rr.Latency.P99)
	}
	if ss.Latency.Avg >= rp.Latency.Avg {
		t.Errorf("SpotServe Avg %.1f not below Reparallelization %.1f", ss.Latency.Avg, rp.Latency.Avg)
	}
}

func TestBaselinesDeterministic(t *testing.T) {
	a := serve(t, NewReparallel, model.GPT20B, trace.BS(), 0.35, 4)
	b := serve(t, NewReparallel, model.GPT20B, trace.BS(), 0.35, 4)
	if a.Latency.P99 != b.Latency.P99 || a.Completed != b.Completed {
		t.Fatal("Reparallelization not deterministic")
	}
	c := serve(t, NewReroute, model.GPT20B, trace.BS(), 0.35, 4)
	d := serve(t, NewReroute, model.GPT20B, trace.BS(), 0.35, 4)
	if c.Latency.P99 != d.Latency.P99 || c.Completed != d.Completed {
		t.Fatal("Rerouting not deterministic")
	}
}

func TestRerouteFixedShape(t *testing.T) {
	s := sim.New()
	cl := cloud.New(s, cloud.DefaultParams(), nil)
	opts := DefaultOptions(model.GPT20B)
	r := NewReroute(s, cl, opts)
	r.Install()
	if err := cl.ReplayTrace(trace.AS()); err != nil {
		t.Fatal(err)
	}
	reqs, _ := workload.Generate(workload.Options{
		Horizon: 1200, Rate: workload.ConstantRate(0.35), CV: 6,
		SeqIn: 512, SeqOut: 128, Seed: 5,
	})
	r.LoadWorkload(reqs, 1200)
	s.Run(1500)
	if r.Config().IsZero() {
		t.Fatal("no shape chosen")
	}
	st := r.Stats()
	// Exactly one configuration entry: the shape never changes.
	if len(st.ConfigLog) != 1 {
		t.Fatalf("rerouting changed configuration: %v", st.ConfigLog)
	}
}
