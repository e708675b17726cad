package scenario

import (
	"fmt"
	"sync"
	"testing"

	"spotserve/internal/experiments"
)

// Streamed rows must be byte-identical to the rows the finished sweep
// returns at the same cell index, for serial and parallel pools — the
// daemon streams exactly what the CLI would print.
func TestGridSweepStreamMatchesReturn(t *testing.T) {
	g := Grid{
		Avail:    []string{"diurnal", "bursty"},
		Policies: []string{"fixed"},
		Fleets:   []string{"homog"},
		Seed:     1,
	}
	for _, workers := range []int{1, 4} {
		sw := experiments.Sweep{Parallel: workers, Seeds: experiments.SeedRange(1, 2)}
		var mu sync.Mutex
		streamed := map[int]GridRow{}
		rows, err := GridSweepStream(g, sw, func(cell int, row GridRow) {
			mu.Lock()
			if _, dup := streamed[cell]; dup {
				t.Errorf("workers=%d: cell %d streamed twice", workers, cell)
			}
			streamed[cell] = row
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(streamed) != len(rows) {
			t.Fatalf("workers=%d: %d rows streamed, %d returned", workers, len(streamed), len(rows))
		}
		for cell, row := range streamed {
			if fmt.Sprintf("%+v", row) != fmt.Sprintf("%+v", rows[cell]) {
				t.Errorf("workers=%d: streamed cell %d differs from returned row", workers, cell)
			}
		}
		for _, row := range rows {
			if len(row.Fingerprints) != len(sw.Seeds) {
				t.Fatalf("row carries %d fingerprints, want one per seed (%d)",
					len(row.Fingerprints), len(sw.Seeds))
			}
		}
	}
}

// GridSweepStream's rows equal the rows BuildRow folds from RunCells'
// replicas — the streaming bookkeeping (flat-index routing, per-cell
// buffering and release) must not perturb results.
func TestGridSweepStreamEquivalentToRunCells(t *testing.T) {
	g := Grid{
		Avail:    []string{"crunch"},
		Policies: []string{"fixed", "reactive-queue"},
		Fleets:   []string{"homog"},
		Seed:     2,
	}
	sw := experiments.Sweep{Parallel: 2, Seeds: experiments.SeedRange(2, 2)}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	var want []GridRow
	for _, rs := range sw.RunCells(cells) {
		want = append(want, BuildRow(rs, DefaultSLO))
	}
	streamed, err := GridSweepStream(g, sw, func(int, GridRow) {})
	if err != nil {
		t.Fatal(err)
	}
	if RenderGrid(want) != RenderGrid(streamed) {
		t.Fatal("streaming changed the rendered grid")
	}
	for i := range want {
		if fmt.Sprintf("%+v", want[i]) != fmt.Sprintf("%+v", streamed[i]) {
			t.Fatalf("cell %d: streamed row differs from the RunCells row", i)
		}
	}
}
