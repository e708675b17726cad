package scenario

import (
	"context"
	"testing"

	"spotserve/internal/experiments"
	"spotserve/internal/faults"
)

// TestLadderNameRoundTrip pins the parameter-encoded ladder-variant scheme:
// names resolve to models carrying the encoded parameters and identity, and
// malformed or non-canonical spellings are rejected rather than aliased.
func TestLadderNameRoundTrip(t *testing.T) {
	name := LadderName(2.2, 0.9)
	if name != "price-signal/2.2x0.9" {
		t.Fatalf("LadderName = %q", name)
	}
	m, ok := ModelByName(name)
	if !ok {
		t.Fatalf("ModelByName(%q) not resolved", name)
	}
	ps, ok := m.(PriceSignal)
	if !ok || ps.Bid != 2.2 || ps.Spread != 0.9 || m.Name() != name {
		t.Fatalf("resolved %+v name=%q", ps, m.Name())
	}
	// Non-variant parameters inherit the default model.
	def := DefaultPriceSignal()
	if ps.Pool != def.Pool || ps.Min != def.Min || ps.Process != def.Process {
		t.Fatalf("variant did not inherit defaults: %+v", ps)
	}
	for _, bad := range []string{
		"price-signal/2.2",       // no spread
		"price-signal/2.2x",      // empty spread
		"price-signal/x0.9",      // empty bid
		"price-signal/0x0.9",     // non-positive bid
		"price-signal/2.2x-1",    // non-positive spread
		"price-signal/2.20x0.9",  // non-canonical float spelling
		"price-signal/1e0x0.9",   // non-canonical float spelling
		"price-signal/2.2x0.9x1", // trailing junk
		"ladder/2.2x0.9",         // wrong family
	} {
		if _, ok := ModelByName(bad); ok {
			t.Errorf("ModelByName(%q) resolved, want rejection", bad)
		}
	}
	// The variant space must stay out of the registry: DefaultGrid mirrors
	// Models(), and its cell set is pinned by goldens.
	for _, n := range Models() {
		if _, ok := ParseLadder(n); ok {
			t.Errorf("registered model %q parses as a ladder variant", n)
		}
	}
}

// TestLadderVariantsTraceDistinct checks variants actually differ: a tight
// ladder and a wide ladder must preempt differently on the same price curve.
func TestLadderVariantsTraceDistinct(t *testing.T) {
	a, _ := ModelByName(LadderName(2.0, 0.3))
	b, _ := ModelByName(LadderName(2.4, 1.2))
	ta, tb := a.Trace(7), b.Trace(7)
	if len(ta.Events) == len(tb.Events) {
		same := true
		for i := range ta.Events {
			if ta.Events[i] != tb.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("distinct ladder variants generated identical traces")
		}
	}
}

// TestFullGridScale pins the scale-out cross: 1000+ cells spanning every
// axis, expanding without error.
func TestFullGridScale(t *testing.T) {
	g := FullGrid()
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) < 1000 {
		t.Fatalf("FullGrid expands to %d cells, want 1000+", len(cells))
	}
	markets := map[string]bool{}
	avails := map[string]bool{}
	for _, c := range cells {
		markets[c.Market] = true
		avails[c.AvailModel] = true
	}
	// Ladder cells default their market to the driving process, so the
	// "flat" market slot renders as squeeze there; the axis still spans
	// every registered process plus flat billing on the scripted models.
	if len(markets) < 3 {
		t.Fatalf("full grid spans %d markets, want flat + every process", len(markets))
	}
	if len(avails) != len(g.Avail) {
		t.Fatalf("full grid spans %d availability models, want %d", len(avails), len(g.Avail))
	}
}

// TestLargeGridStreamingSweep runs the full 1000+-cell grid through the
// streaming sweep serially and in parallel and asserts (a) every parallel
// row fingerprint-matches its serial twin — the determinism contract at
// grid scale — and (b) aggregation is memory-bounded: raw replica Results
// live only while their cell is in flight, so the peak number of
// unreleased cells stays within the worker pool, not the grid. The parallel
// pass uses the sweep configuration the serving daemon runs jobs with — a
// live Context, retries, and a chaos hook whose transient faults heal on
// the retry — so the bound is pinned on the daemon's path.
func TestLargeGridStreamingSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("1000+-cell sweep; skipped under -short")
	}
	if raceEnabled {
		t.Skip("1000+-cell sweep; skipped under -race (the focused race gates cover the same pool on small grids)")
	}
	g := FullGrid()
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) < 1000 {
		t.Fatalf("grid has %d cells, want 1000+", len(cells))
	}

	run := func(sw experiments.Sweep) ([]GridRow, int) {
		// Memory-bounded accounting: a cell is "live" from its first
		// replica landing until its row folds (the moment GridSweepStream
		// releases the cell's Results). Both hooks run under the pool's
		// mutex — OnResult fires before the grid's bookkeeping, onRow after
		// it — so live/peak are exact.
		perCell := len(sw.Seeds)
		seen := make([]bool, len(cells))
		live, peak := 0, 0
		sw.OnResult = func(i int, _ experiments.Result, _ bool) {
			if cell := i / perCell; !seen[cell] {
				seen[cell] = true
				if live++; live > peak {
					peak = live
				}
			}
		}
		rows, err := GridSweepStream(g, sw, func(cell int, _ GridRow) { live-- })
		if err != nil {
			t.Fatal(err)
		}
		return rows, peak
	}

	seeds := []int64{1, 2}
	serialRows, serialPeak := run(experiments.Sweep{Parallel: 1, Seeds: seeds})
	const workers = 8
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan := faults.Plan{Kind: faults.TransientError, Seed: 1, Rate: 0.05, SucceedAfter: 2}
	parRows, parPeak := run(experiments.Sweep{
		Parallel: workers,
		Seeds:    seeds,
		Context:  ctx,
		Retry:    experiments.RetryPolicy{MaxAttempts: 3},
		Inject:   plan.Hook(),
	})

	if len(parRows) != len(serialRows) {
		t.Fatalf("row counts differ: %d parallel vs %d serial", len(parRows), len(serialRows))
	}
	retries := 0
	for i := range serialRows {
		if parRows[i].Err != "" {
			t.Fatalf("cell %d failed despite retries: %s", i, parRows[i].Err)
		}
		retries += parRows[i].Retries
		sf, pf := serialRows[i].Fingerprints, parRows[i].Fingerprints
		if len(sf) != len(pf) {
			t.Fatalf("cell %d: fingerprint counts differ", i)
		}
		for j := range sf {
			if sf[j] != pf[j] {
				t.Fatalf("cell %d seed %d: parallel fingerprint differs from serial\nserial: %s\nparallel: %s",
					i, j, sf[j], pf[j])
			}
		}
	}
	if want := len(plan.AfflictedCells(len(cells) * len(seeds))); retries != want || want == 0 {
		t.Fatalf("parallel pass retried %d replicas, want %d (one per afflicted replica)", retries, want)
	}
	// Serially a cell completes before the next starts: exactly one live.
	if serialPeak != 1 {
		t.Errorf("serial peak live cells = %d, want 1", serialPeak)
	}
	// Jobs dispatch in flat-index order, so a partly delivered cell either
	// has a replica in flight (at most one cell per worker) or straddles
	// the dispatch index (at most one cell).
	if parPeak > workers+1 {
		t.Errorf("parallel peak live cells = %d of %d, want <= %d — aggregation is not memory-bounded",
			parPeak, len(cells), workers+1)
	}
	t.Logf("peak live cells: serial=%d parallel=%d of %d; %d replicas retried", serialPeak, parPeak, len(cells), retries)
}

// BenchmarkLargeGridSweep measures the streaming sweep at full-grid scale
// (single seed, all cores). Deliberately outside the bench-check gate
// (TIER1_BENCH): it benchmarks throughput of thousands of simulations, not
// the decode hot path.
func BenchmarkLargeGridSweep(b *testing.B) {
	g := FullGrid()
	for i := 0; i < b.N; i++ {
		if _, err := GridSweepStream(g, experiments.Sweep{Seeds: []int64{1}}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
