package experiments

import (
	"fmt"

	"spotserve/internal/cloud"
	"spotserve/internal/core"
	"spotserve/internal/sim"
	"spotserve/internal/workload"
)

// runnable is the common surface of the three serving systems.
type runnable interface {
	Install()
	LoadWorkload(reqs []workload.Request, horizon float64)
	Stats() core.Stats
}

// Run executes one scenario to completion and collects its result.
func Run(sc Scenario) Result {
	s := sim.New()
	cp := cloud.DefaultParams()
	if sc.CloudParams != nil {
		cp = *sc.CloudParams
	}
	cp.Seed = sc.Seed + 1000
	// A configured spot-price market regenerates its curves per replica,
	// exactly like TraceFn below; spot billing then integrates the curves
	// piecewise instead of freezing flat prices at readiness.
	if sc.MarketFn != nil {
		m := sc.MarketFn(sc.Seed)
		cp.Market = &m
	}
	cl := cloud.New(s, cp, nil)

	// Seeded availability models regenerate their trace per replica so
	// multi-seed bands sample the spot market, not just the workload.
	if sc.TraceFn != nil {
		sc.Trace = sc.TraceFn(sc.Seed)
	}

	opts := core.DefaultOptions(sc.Spec)
	opts.BaseRate = sc.Rate
	opts.DisableFastForward = sc.disableFastForward
	opts.DisableReconfigCache = sc.DisableReconfigCache
	if sc.Features != nil {
		opts.Features = *sc.Features
	}
	opts.Features.AllowOnDemand = sc.AllowOnDemand
	if sc.NewAutoscaler != nil {
		opts.Autoscaler = sc.NewAutoscaler(sc.Seed)
	}

	var sys runnable
	switch sc.System {
	case SpotServe, OnDemandOnly:
		sys = core.NewServer(s, cl, opts)
	case Reparallel:
		sys = core.NewReparallel(s, cl, opts)
	case Reroute:
		sys = core.NewReroute(s, cl, opts)
	default:
		panic(fmt.Sprintf("experiments: unknown system %q", sc.System))
	}
	sys.Install()

	horizon := sc.Trace.Horizon
	if sc.System == OnDemandOnly {
		if horizon <= 0 {
			horizon = 1200
		}
		cl.Prealloc(sc.OnDemandN, cloud.OnDemand)
	} else {
		if err := cl.ReplayTrace(sc.Trace); err != nil {
			panic(fmt.Sprintf("experiments: trace %s: %v", sc.Trace.Name, err))
		}
	}

	rate := sc.RateFn
	if rate == nil {
		rate = workload.ConstantRate(sc.Rate)
	}
	cv := sc.CV
	if cv <= 0 {
		cv = 6
	}
	reqs, err := workload.Generate(workload.Options{
		Horizon: horizon,
		Rate:    rate,
		CV:      cv,
		SeqIn:   opts.SeqIn,
		SeqOut:  opts.SeqOut,
		Seed:    sc.Seed,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: workload: %v", err))
	}
	sys.LoadWorkload(reqs, horizon)

	res := Result{Scenario: sc}
	if sc.SampleFleet {
		var ticks []float64
		for t := 0.0; t < horizon; t += 10 {
			ticks = append(ticks, t)
		}
		s.Series(len(ticks), func(i int) float64 { return ticks[i] }, func(i int) {
			spot, od := cl.AliveCount()
			res.SpotCount.Add(ticks[i], float64(spot))
			res.OnDemandCount.Add(ticks[i], float64(od))
		})
	}

	drain := sc.Drain
	if drain <= 0 {
		drain = 900
	}
	s.Run(horizon + drain)

	res.Stats = sys.Stats()
	res.Steps = s.Steps()
	if srv, ok := sys.(*core.Server); ok {
		res.FinalConfig = srv.Config()
	}
	return res
}
