package reconfig

import (
	"testing"

	"spotserve/internal/config"
	"spotserve/internal/cost"
	"spotserve/internal/km"
	"spotserve/internal/model"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// reports the quality metric of the optimized mechanism against its naive
// counterpart as custom benchmark metrics.

// BenchmarkMapperKMvsIdentity measures device-mapping quality: reusable
// context bytes under KM matching vs arbitrary assignment for the paper's
// Figure-4a reconfiguration (GPT-20B, (2,8) → (3,4)).
func BenchmarkMapperKMvsIdentity(b *testing.B) {
	spec := model.GPT20B
	old := config.Config{D: 1, P: 2, M: 8, B: 1}
	target := config.Config{D: 1, P: 3, M: 4, B: 1}
	gpus := mkGPUs(4, 4)
	devs := devicesFor(spec, gpus, old)[:12]

	var km, id Mapping
	var err error
	for i := 0; i < b.N; i++ {
		km, err = MapDevices(spec, devs, target, MapperOptions{UseKM: true})
		if err != nil {
			b.Fatal(err)
		}
		id, err = MapDevices(spec, devs, target, MapperOptions{UseKM: false})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(km.ReusedModelBytes/1e9, "km_reuse_GB")
	b.ReportMetric(id.ReusedModelBytes/1e9, "identity_reuse_GB")
	b.ReportMetric(km.ReusedModelBytes/id.ReusedModelBytes, "km_advantage_x")
}

// BenchmarkMapperHierarchicalVsFlat compares the two-step matching with
// the flat global matching: reuse quality and intra-instance locality of
// tensor-parallel groups.
func BenchmarkMapperHierarchicalVsFlat(b *testing.B) {
	spec := model.GPT20B
	old := config.Config{D: 2, P: 2, M: 4, B: 1}
	target := config.Config{D: 1, P: 4, M: 4, B: 1}
	gpus := mkGPUs(4, 4)
	devs := devicesFor(spec, gpus, old)

	locality := func(m Mapping) float64 {
		colocated := 0
		for p := 0; p < target.P; p++ {
			inst := m.Assign[config.Position{D: 0, P: p, M: 0}].Inst.ID
			ok := true
			for mm := 1; mm < target.M; mm++ {
				if m.Assign[config.Position{D: 0, P: p, M: mm}].Inst.ID != inst {
					ok = false
				}
			}
			if ok {
				colocated++
			}
		}
		return float64(colocated) / float64(target.P)
	}

	var hier, flat Mapping
	var err error
	for i := 0; i < b.N; i++ {
		hier, err = MapDevices(spec, devs, target, MapperOptions{UseKM: true, Hierarchical: true})
		if err != nil {
			b.Fatal(err)
		}
		flat, err = MapDevices(spec, devs, target, MapperOptions{UseKM: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(locality(hier), "hier_stage_locality")
	b.ReportMetric(locality(flat), "flat_stage_locality")
	b.ReportMetric(hier.ReusedModelBytes/1e9, "hier_reuse_GB")
	b.ReportMetric(flat.ReusedModelBytes/1e9, "flat_reuse_GB")
}

// BenchmarkPlannerProgressiveVsBlocking measures when the first pipeline
// stage can resume serving under the progressive schedule vs the blocking
// one.
func BenchmarkPlannerProgressiveVsBlocking(b *testing.B) {
	spec := model.GPT20B
	est := cost.NewEstimator(cost.DefaultParams(), spec)
	old := config.Config{D: 1, P: 2, M: 8, B: 1}
	target := config.Config{D: 1, P: 3, M: 4, B: 1}
	gpus := mkGPUs(4, 4)
	devs := devicesFor(spec, gpus, old)
	mapping, err := MapDevices(spec, devs, target, MapperOptions{UseKM: true})
	if err != nil {
		b.Fatal(err)
	}
	opts := PlanOptions{Progressive: true, MemOpt: true,
		UmaxBytes: cost.DefaultParams().BufMaxBytes, MigrateCache: true}

	var prog, blk Timeline
	for i := 0; i < b.N; i++ {
		plan, err := PlanMigration(spec, est, devs, mapping, opts)
		if err != nil {
			b.Fatal(err)
		}
		prog = plan.Schedule(est, true)
		blk = plan.Schedule(est, false)
	}
	b.ReportMetric(prog.StageReady[0], "progressive_stage0_s")
	b.ReportMetric(blk.StageReady[0], "blocking_stage0_s")
	b.ReportMetric(prog.Duration, "total_migration_s")
}

// BenchmarkPlannerMemOptPeakBuffer measures Algorithm 2's effect on peak
// migration-buffer usage versus the naive order. The scenario preempts the
// instance holding the front of the model ((2,8) → (3,4) without old stage
// 0's first shards), shifting stage boundaries backward across instances:
// the naive ascending order receives new layers long before the old ones
// release, while the min-max order interleaves them.
func BenchmarkPlannerMemOptPeakBuffer(b *testing.B) {
	spec := model.GPT20B
	est := cost.NewEstimator(cost.DefaultParams(), spec)
	old := config.Config{D: 1, P: 2, M: 8, B: 1}
	target := config.Config{D: 1, P: 3, M: 4, B: 1}
	gpus := mkGPUs(4, 4)
	devs := devicesFor(spec, gpus, old)[4:] // inst0 (front shards) preempted
	mapping, err := MapDevices(spec, devs, target, MapperOptions{UseKM: true})
	if err != nil {
		b.Fatal(err)
	}
	peak := func(memopt bool) float64 {
		plan, err := PlanMigration(spec, est, devs, mapping, PlanOptions{
			Progressive: true, MemOpt: memopt, UmaxBytes: 1.0 * model.GB,
		})
		if err != nil {
			b.Fatal(err)
		}
		mx := 0.0
		for _, v := range plan.PeakBufferBytes {
			if v > mx {
				mx = v
			}
		}
		return mx
	}
	var opt, naive float64
	for i := 0; i < b.N; i++ {
		opt = peak(true)
		naive = peak(false)
	}
	b.ReportMetric(opt/1e9, "memopt_peak_GB")
	b.ReportMetric(naive/1e9, "naive_peak_GB")
}

// BenchmarkMigrationVsReload compares one reconfiguration's context
// migration against the Reparallelization baseline's full restart — the
// paper's central cost asymmetry.
func BenchmarkMigrationVsReload(b *testing.B) {
	spec := model.GPT20B
	est := cost.NewEstimator(cost.DefaultParams(), spec)
	old := config.Config{D: 1, P: 2, M: 8, B: 1}
	target := config.Config{D: 1, P: 3, M: 4, B: 1}
	gpus := mkGPUs(4, 4)
	devs := devicesFor(spec, gpus, old)
	mapping, err := MapDevices(spec, devs, target, MapperOptions{UseKM: true})
	if err != nil {
		b.Fatal(err)
	}
	var mig float64
	for i := 0; i < b.N; i++ {
		plan, err := PlanMigration(spec, est, devs, mapping, PlanOptions{
			Progressive: true, MemOpt: true, UmaxBytes: model.GB,
		})
		if err != nil {
			b.Fatal(err)
		}
		mig = plan.Schedule(est, true).Duration
	}
	reload := est.ReloadTime(target.P, target.M)
	b.ReportMetric(mig, "migration_s")
	b.ReportMetric(reload, "reload_s")
	b.ReportMetric(reload/mig, "advantage_x")
}

// BenchmarkDeviceMapping measures mapper latency at fleet scale (48 GPUs,
// a reconfiguration that reshapes both P and M). cold solves every
// sub-matching through the pooled solver, where the O(n³) KM cost dominates;
// warm maps through a primed km.Cache — what every serving system's engine
// runs — so the weight pricing and matrix assembly are what it times.
func BenchmarkDeviceMapping(b *testing.B) {
	spec := model.GPT20B
	old := config.Config{D: 3, P: 2, M: 8, B: 1}
	target := config.Config{D: 4, P: 3, M: 4, B: 1}
	gpus := mkGPUs(12, 4)
	devs := devicesFor(spec, gpus, old)
	run := func(b *testing.B, opt MapperOptions) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := MapDevices(spec, devs, target, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		run(b, MapperOptions{UseKM: true, Hierarchical: true})
	})
	b.Run("warm", func(b *testing.B) {
		opt := MapperOptions{UseKM: true, Hierarchical: true, KM: km.NewCache(0)}
		if _, err := MapDevices(spec, devs, target, opt); err != nil {
			b.Fatal(err)
		}
		run(b, opt)
	})
}
