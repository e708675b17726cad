package scenario

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"spotserve/internal/experiments"
	"spotserve/internal/faults"
)

// tolerantGrid is the small grid the fault-tolerance tests sweep: 4 cells.
func tolerantGrid() Grid {
	return Grid{
		Avail:    []string{"diurnal", "bursty"},
		Policies: []string{"fixed"},
		Fleets:   []string{"homog", "hetero-small"},
		Seed:     1,
	}
}

// A fault-free sweep with a generous retry policy configured must be
// byte-identical to a plain sweep — returned rows, streamed rows and render.
func TestGridSweepTolerantMatchesClassicFaultFree(t *testing.T) {
	g := tolerantGrid()
	sw := experiments.Sweep{Parallel: 4, Seeds: experiments.SeedRange(1, 2)}
	plain, err := GridSweepStream(g, sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	retrySw := sw
	retrySw.Retry = experiments.RetryPolicy{MaxAttempts: 4, Backoff: time.Second,
		Sleep: func(time.Duration) { t.Error("fault-free sweep slept a backoff") }}
	var mu sync.Mutex
	streamed := map[int]GridRow{}
	retrying, err := GridSweepStream(g, retrySw, func(cell int, row GridRow) {
		mu.Lock()
		streamed[cell] = row
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(retrying) != len(plain) {
		t.Fatalf("%d retry-configured rows, %d plain", len(retrying), len(plain))
	}
	for i := range plain {
		if fmt.Sprintf("%+v", retrying[i]) != fmt.Sprintf("%+v", plain[i]) {
			t.Errorf("cell %d: retry-configured row differs from plain row", i)
		}
		if fmt.Sprintf("%+v", streamed[i]) != fmt.Sprintf("%+v", plain[i]) {
			t.Errorf("cell %d: streamed retry-configured row differs from plain row", i)
		}
	}
	if RenderGrid(retrying) != RenderGrid(plain) {
		t.Fatal("fault-free retry-configured render differs from plain render")
	}
}

// Transient faults healed by retries must leave every row byte-identical to
// the fault-free run — retries recover, never perturb.
func TestGridSweepTolerantTransientHeals(t *testing.T) {
	g := tolerantGrid()
	sw := experiments.Sweep{Parallel: 2, Seeds: experiments.SeedRange(1, 2)}
	clean, err := GridSweepStream(g, sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{Kind: faults.TransientError, Seed: 1, Rate: 0.5, SucceedAfter: 2}
	faulted := sw
	faulted.Retry = experiments.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}
	faulted.Inject = plan.Hook()
	rows, err := GridSweepStream(g, faulted, nil)
	if err != nil {
		t.Fatal(err)
	}
	totalRetries := 0
	for i := range rows {
		if rows[i].Err != "" {
			t.Fatalf("cell %d failed despite retries: %s", i, rows[i].Err)
		}
		totalRetries += rows[i].Retries
		// Compare everything except the retry counter, fingerprints first.
		a, b := rows[i], clean[i]
		a.Retries = 0
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Errorf("cell %d: healed row differs from fault-free row", i)
		}
	}
	if want := len(plan.AfflictedCells(8)); totalRetries != want {
		t.Fatalf("retries = %d, want %d (one per afflicted replica)", totalRetries, want)
	}
}

// A persistently panicking cell degrades to an error row; every other cell
// is untouched, and the render marks the failure as n/a with a footer.
func TestGridSweepTolerantPanicDegrades(t *testing.T) {
	g := tolerantGrid()
	sw := experiments.Sweep{Parallel: 4, Seeds: experiments.SeedRange(1, 2)}
	clean, err := GridSweepStream(g, sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Afflict flat jobs 2 and 3 = both replicas of cell 1 (2 seeds/cell).
	plan := faults.Plan{Kind: faults.CellPanic, Seed: 1, Cells: []int{2, 3}}
	faulted := sw
	faulted.Inject = plan.Hook()
	rows, err := GridSweepStream(g, faulted, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if i == 1 {
			if rows[i].Err == "" || !strings.Contains(rows[i].Err, "injected panic") {
				t.Fatalf("cell 1 err = %q, want the captured injected panic", rows[i].Err)
			}
			if rows[i].Avail == "" || rows[i].Policy == "" || rows[i].Fleet == "" {
				t.Fatalf("error row lost its axes: %+v", rows[i])
			}
			if len(rows[i].Fingerprints) != 0 {
				t.Fatal("failed cell carries fingerprints")
			}
			continue
		}
		if fmt.Sprintf("%+v", rows[i]) != fmt.Sprintf("%+v", clean[i]) {
			t.Errorf("cell %d perturbed by cell 1's panic", i)
		}
	}
	render := RenderGrid(rows)
	if !strings.Contains(render, "n/a") {
		t.Fatal("render lacks n/a for the failed cell")
	}
	if !strings.Contains(render, "1 cell(s) failed") || !strings.Contains(render, "injected panic") {
		t.Fatalf("render lacks the error footer:\n%s", render)
	}
	// Line discipline: every data line in both renders must be present and
	// the non-failed lines byte-identical.
	cleanRender := RenderGrid(clean)
	cleanLines, faultLines := strings.Split(cleanRender, "\n"), strings.Split(render, "\n")
	for i := 0; i < 2; i++ { // header lines
		if cleanLines[i] != faultLines[i] {
			t.Fatalf("header line %d differs under faults", i)
		}
	}
	for _, cell := range []int{0, 2, 3} {
		if cleanLines[2+cell] != faultLines[2+cell] {
			t.Errorf("render line for healthy cell %d differs under faults", cell)
		}
	}
}

// A cancelled context turns every unstarted cell into an error row carrying
// the cancellation and its axes; nothing simulates.
func TestGridSweepTolerantCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sw := experiments.Sweep{Parallel: 2, Context: ctx, OnResult: func(int, experiments.Result, bool) {
		t.Error("a cell simulated under a cancelled context")
	}}
	rows, err := GridSweepStream(tolerantGrid(), sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.Err != context.Canceled.Error() || r.Avail == "" || r.Fleet == "" {
			t.Fatalf("cell %d: row %+v, want a cancelled error row with its axes", i, r)
		}
	}
}

// Error rows round-trip the spec → grid path too: a spec with a deadline
// parses, and a negative deadline is rejected at validation.
func TestJobSpecDeadline(t *testing.T) {
	s, err := ParseJobSpec([]byte(`{"avail":["diurnal"],"policies":["fixed"],"fleets":["homog"],"deadline_ms":1500}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.DeadlineMS != 1500 {
		t.Fatalf("DeadlineMS = %d", s.DeadlineMS)
	}
	if _, err := ParseJobSpec([]byte(`{"deadline_ms":-1}`)); err == nil {
		t.Fatal("negative deadline accepted")
	}
}
