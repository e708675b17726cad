package reconfig

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"spotserve/internal/config"
	"spotserve/internal/cost"
	"spotserve/internal/model"
)

func testEngine(spec model.Spec, disable bool) *Engine {
	return NewEngine(Options{
		Spec:         spec,
		Est:          cost.NewEstimator(cost.DefaultParams(), spec),
		Limits:       config.DefaultLimits(),
		MaxInstances: 12,
		UseKM:        true,
		Hierarchical: true,
		Progressive:  true,
		MemOpt:       true,
		UmaxBytes:    cost.DefaultParams().BufMaxBytes,
		MigrateCache: true,
		DisableCache: disable,
	})
}

// TestEnginePipelineEquivalence drives the full Request→Proposal→Mapping→
// Plan pipeline through a cached and an uncached engine and requires
// identical outputs at every stage, twice (the second pass hits the memo).
func TestEnginePipelineEquivalence(t *testing.T) {
	spec := model.GPT20B
	old := config.Config{D: 1, P: 2, M: 8, B: 1}
	gpus := mkGPUs(4, 4)
	devs := devicesFor(spec, gpus, old)

	warm := testEngine(spec, false)
	cold := testEngine(spec, true)
	req := Request{Alpha: 0.35, GPUsAvail: 16, MaxGPUs: 16, SpeedFloor: 1, MemFloor: 1}

	for round := 0; round < 2; round++ {
		pw, pc := warm.Propose(req), cold.Propose(req)
		if pw != pc {
			t.Fatalf("round %d: proposal %+v != cold %+v", round, pw, pc)
		}
		target := pw.Config
		mw, err := warm.Map(devs, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := cold.Map(devs, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		for pos, g := range mc.Assign {
			if mw.Assign[pos] != g {
				t.Fatalf("round %d: position %v → %d, cold %d", round, pos, mw.Assign[pos].ID, g.ID)
			}
		}
		plw, err := warm.Plan(devs, mw, nil)
		if err != nil {
			t.Fatal(err)
		}
		plc, err := cold.Plan(devs, mc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if plw.TotalBytes != plc.TotalBytes || plw.StorageBytes != plc.StorageBytes {
			t.Fatalf("round %d: bytes %v/%v, cold %v/%v",
				round, plw.TotalBytes, plw.StorageBytes, plc.TotalBytes, plc.StorageBytes)
		}
		if len(plw.LayerOrder) != len(plc.LayerOrder) {
			t.Fatalf("round %d: order lengths differ", round)
		}
		for i := range plw.LayerOrder {
			if plw.LayerOrder[i] != plc.LayerOrder[i] {
				t.Fatalf("round %d: layer order differs at %d", round, i)
			}
		}
	}
	cs := warm.CacheStats()
	if cs.ProposalHits == 0 || cs.MappingHits == 0 || cs.PlanHits == 0 {
		t.Fatalf("second round did not hit the memo: %+v", cs)
	}
	if got := cold.CacheStats(); got.Lookups() != 0 {
		t.Fatalf("disabled cache recorded lookups: %+v", got)
	}
	if cs.HitRate() <= 0 || cs.HitRate() > 1 {
		t.Fatalf("hit rate %v out of range", cs.HitRate())
	}
}

// writeMapPlan appends a bit-exact rendering of a mapping and its plan.
func writeMapPlan(b *strings.Builder, m Mapping, pl *Plan) {
	for _, pos := range m.Target.Positions() {
		fmt.Fprintf(b, "%d ", m.Assign[pos].ID)
	}
	for _, g := range m.Spare {
		fmt.Fprintf(b, "s%d ", g.ID)
	}
	fmt.Fprintf(b, "| %x %x %x | %x %x %v |", m.ReusedModelBytes, m.ReusedCacheBytes,
		m.TotalModelBytes, pl.TotalBytes, pl.StorageBytes, pl.LayerOrder)
	// Index -1 renders the cache transfers, l the transfers of layer l.
	for i, trs := range append([][]Transfer{pl.Cache}, pl.ByLayer...) {
		for _, tr := range trs {
			from := int64(-1)
			if tr.From != nil {
				from = tr.From.ID
			}
			fmt.Fprintf(b, " %d:%d<-%d %x %v", i-1, tr.To.ID, from, tr.Bytes, tr.Inter)
		}
	}
	ids := make([]int64, 0, len(pl.PeakBufferBytes))
	for id := range pl.PeakBufferBytes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fmt.Fprintf(b, " %d=%x", id, pl.PeakBufferBytes[id])
	}
	b.WriteByte('\n')
}

// TestConcurrentMapPlanMatchesSerial maps and plans distinct fleets from
// several goroutines at once, as the sweep pool's workers do, so the
// pooled workspaces (mapWSPool, planWSPool, solverPool) pass between
// goroutines. Each goroutine owns its engines and KM memos, as each
// simulated server does; every result must match a serial run.
func TestConcurrentMapPlanMatchesSerial(t *testing.T) {
	fleets := mapFleets()
	run := func(f mapFleet) (string, error) {
		var b strings.Builder
		// Cold: the pooled solver, then the planner.
		m, err := MapDevices(f.spec, f.devs, f.target, MapperOptions{
			UseKM: true, Hierarchical: true, Inherit: f.inherit,
		})
		if err != nil {
			return "", err
		}
		eng := testEngine(f.spec, false)
		pl, err := PlanMigration(f.spec, eng.opts.Est, f.devs, m, eng.PlanOptions(f.inherit))
		if err != nil {
			return "", err
		}
		writeMapPlan(&b, m, pl)
		// Warm: the engine's own km.Cache and memos; round 1 replays them.
		for round := 0; round < 2; round++ {
			m, err := eng.Map(f.devs, f.target, f.inherit)
			if err != nil {
				return "", err
			}
			pl, err := eng.Plan(f.devs, m, f.inherit)
			if err != nil {
				return "", err
			}
			writeMapPlan(&b, m, pl)
		}
		return b.String(), nil
	}
	want := make([]string, len(fleets))
	for i, f := range fleets {
		var err error
		if want[i], err = run(f); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
	}

	const workers = 4
	errs := make(chan error, workers*2*len(fleets))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Goroutines start at different fleets, so distinct fleets
			// are mapped at the same time.
			for r := 0; r < 2*len(fleets); r++ {
				i := (w + r) % len(fleets)
				got, err := run(fleets[i])
				if err == nil && got != want[i] {
					err = fmt.Errorf("result differs from the serial run:\n%s\nwant:\n%s", got, want[i])
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d, %s: %w", w, fleets[i].name, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCacheEviction pins the memo bounds: none of the per-server memos may
// grow past its configured cap, no matter how many distinct keys a long
// trace produces — wholesale reset keeps memory bounded.
func TestCacheEviction(t *testing.T) {
	c := newCache()
	for i := 0; i < 3*maxProposalEntries; i++ {
		c.storeProposal(propKey{gpusAvail: i}, Proposal{})
		if len(c.proposals) > maxProposalEntries {
			t.Fatalf("proposal memo grew to %d entries (cap %d)", len(c.proposals), maxProposalEntries)
		}
	}
	for i := 0; i < 3*maxMappingEntries; i++ {
		var k keyBuf
		k.i(i)
		c.storeMapping(&k, Mapping{})
		if c.nMappings > maxMappingEntries {
			t.Fatalf("mapping memo grew to %d entries (cap %d)", c.nMappings, maxMappingEntries)
		}
	}
	for i := 0; i < 3*maxPlanEntries; i++ {
		var k keyBuf
		k.i(i)
		c.storePlan(&k, &paramPlan{})
		if c.nPlans > maxPlanEntries {
			t.Fatalf("plan memo grew to %d entries (cap %d)", c.nPlans, maxPlanEntries)
		}
	}
	// Entries stored after a reset stay retrievable.
	var k keyBuf
	k.i(12345)
	c.storePlan(&k, &paramPlan{totalBytes: 7})
	if pp, ok := c.plan(&k); !ok || pp.totalBytes != 7 {
		t.Fatal("store after eviction reset lost the entry")
	}
}

// TestProposalKeyDistinguishesFleetSignature checks the canonical key
// separates every axis a proposal depends on.
func TestProposalKeyDistinguishesFleetSignature(t *testing.T) {
	base := Request{Alpha: 0.5, GPUsAvail: 16, MaxGPUs: 48, SpeedFloor: 1, MemFloor: 1}
	keys := map[propKey]string{proposalKey(base, 2): "base"}
	for name, req := range map[string]Request{
		"alpha":   {Alpha: 0.6, GPUsAvail: 16, MaxGPUs: 48, SpeedFloor: 1, MemFloor: 1},
		"gpus":    {Alpha: 0.5, GPUsAvail: 20, MaxGPUs: 48, SpeedFloor: 1, MemFloor: 1},
		"maxgpus": {Alpha: 0.5, GPUsAvail: 16, MaxGPUs: 44, SpeedFloor: 1, MemFloor: 1},
		"speed":   {Alpha: 0.5, GPUsAvail: 16, MaxGPUs: 48, SpeedFloor: 0.8, MemFloor: 1},
		"mem":     {Alpha: 0.5, GPUsAvail: 16, MaxGPUs: 48, SpeedFloor: 1, MemFloor: 0.5},
	} {
		k := proposalKey(req, 2)
		if prev, dup := keys[k]; dup {
			t.Fatalf("request %q collides with %q", name, prev)
		}
		keys[k] = name
	}
	if _, dup := keys[proposalKey(base, 3)]; dup {
		t.Fatal("reserve-pool change did not alter the key")
	}
}
