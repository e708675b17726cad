package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"spotserve/internal/model"
	"spotserve/internal/trace"
)

// collect runs the sweep pool and returns every job's CellResult by flat
// index.
func collect(sw Sweep, cells []Scenario) []CellResult {
	out := make([]CellResult, len(cells)*max(len(sw.Seeds), 1))
	sw.Run(cells, func(i int, cr CellResult, _ bool) { out[i] = cr })
	return out
}

// TestIsolatedMatchesRunAll pins the fault-free equivalence: with no faults
// injected, every CellResult the pool delivers is byte-identical to running
// the scenario directly through Run, for serial and parallel pools —
// isolation costs nothing when nothing fails.
func TestIsolatedMatchesRunAll(t *testing.T) {
	scs := sweepScenarios(7)
	want := make([]Result, len(scs))
	for i, sc := range scs {
		want[i] = Run(sc)
	}
	for _, workers := range []int{1, 4} {
		got := collect(Sweep{Parallel: workers}, scs)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Err != nil {
				t.Fatalf("workers=%d job %d: unexpected error %v", workers, i, got[i].Err)
			}
			if got[i].Attempts != 1 {
				t.Errorf("workers=%d job %d: %d attempts, want 1", workers, i, got[i].Attempts)
			}
			if gf, wf := got[i].Result.Fingerprint(), want[i].Fingerprint(); gf != wf {
				t.Errorf("workers=%d job %d: pool fingerprint %s != direct Run %s", workers, i, gf, wf)
			}
		}
	}
}

// TestIsolatedCapturesPanic asserts one panicking job costs one job: the
// sweep completes, the failed cell carries the panic as its error, and every
// other cell is byte-identical to a healthy run.
func TestIsolatedCapturesPanic(t *testing.T) {
	scs := []Scenario{
		DefaultScenario(SpotServe, model.OPT6B7, trace.AS(), 1),
		{System: System("bogus"), Spec: model.OPT6B7, Trace: trace.AS(), Rate: 1, Seed: 1},
		DefaultScenario(Reroute, model.OPT6B7, trace.AS(), 1),
	}
	healthy := []Result{Run(scs[0]), {}, Run(scs[2])}
	for _, workers := range []int{1, 3} {
		out := collect(Sweep{Parallel: workers}, scs)
		if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "panicked") {
			t.Fatalf("workers=%d: bogus cell err = %v, want captured panic", workers, out[1].Err)
		}
		for _, i := range []int{0, 2} {
			if out[i].Err != nil {
				t.Fatalf("workers=%d job %d: collateral error %v", workers, i, out[i].Err)
			}
			if out[i].Result.Fingerprint() != healthy[i].Fingerprint() {
				t.Errorf("workers=%d job %d: result perturbed by neighbor's panic", workers, i)
			}
		}
	}
}

// TestIsolatedRetryRecovers drives a transient fault (fails attempts 1..2,
// succeeds on 3) through the retry policy and asserts the recovery, the
// recorded backoff schedule, and that the recovered result is byte-identical
// to a never-faulted run.
func TestIsolatedRetryRecovers(t *testing.T) {
	sc := DefaultScenario(SpotServe, model.OPT6B7, trace.AS(), 1)
	want := Run(sc).Fingerprint()

	var slept []time.Duration
	sw := Sweep{
		Parallel: 1,
		Retry: RetryPolicy{
			MaxAttempts: 4,
			Backoff:     10 * time.Millisecond,
			Sleep:       func(d time.Duration) { slept = append(slept, d) },
		},
		Inject: func(job, attempt int) error {
			if attempt < 3 {
				return fmt.Errorf("transient %d/%d", job, attempt)
			}
			return nil
		},
	}
	out := collect(sw, []Scenario{sc})
	if out[0].Err != nil {
		t.Fatalf("retry did not recover: %v", out[0].Err)
	}
	if out[0].Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", out[0].Attempts)
	}
	if got := out[0].Result.Fingerprint(); got != want {
		t.Fatal("recovered result differs from a never-faulted run")
	}
	wantSlept := []time.Duration{sw.Retry.Delay(2), sw.Retry.Delay(3)}
	if !reflect.DeepEqual(slept, wantSlept) {
		t.Fatalf("backoff schedule %v, want %v", slept, wantSlept)
	}
}

// TestIsolatedRetryExhaustsBudget: a persistent fault fails after exactly
// MaxAttempts tries and reports the final error.
func TestIsolatedRetryExhaustsBudget(t *testing.T) {
	calls := 0
	sw := Sweep{
		Parallel: 1,
		Retry:    RetryPolicy{MaxAttempts: 3},
		Inject: func(job, attempt int) error {
			calls++
			return fmt.Errorf("persistent (attempt %d)", attempt)
		},
	}
	out := collect(sw, []Scenario{DefaultScenario(SpotServe, model.OPT6B7, trace.AS(), 1)})
	if calls != 3 {
		t.Fatalf("inject called %d times, want 3", calls)
	}
	if out[0].Attempts != 3 || out[0].Err == nil {
		t.Fatalf("CellResult = {Attempts: %d, Err: %v}, want 3 attempts and the final error",
			out[0].Attempts, out[0].Err)
	}
	if !strings.Contains(out[0].Err.Error(), "attempt 3") {
		t.Fatalf("final error %v is not the last attempt's", out[0].Err)
	}
}

// TestRetriesDoNotPerturb: a generous retry policy with no fault firing must
// leave results byte-identical and never sleep — retries are inert until a
// failure happens.
func TestRetriesDoNotPerturb(t *testing.T) {
	scs := sweepScenarios(5)[:4]
	want := runFlat(scs, 1)
	var slept []time.Duration
	sw := Sweep{
		Parallel: 2,
		Retry: RetryPolicy{
			MaxAttempts: 5,
			Backoff:     time.Second,
			Sleep:       func(d time.Duration) { slept = append(slept, d) },
		},
	}
	out := collect(sw, scs)
	for i := range out {
		if out[i].Err != nil || out[i].Attempts != 1 {
			t.Fatalf("job %d: {Attempts: %d, Err: %v}, want one clean attempt", i, out[i].Attempts, out[i].Err)
		}
		if out[i].Result.Fingerprint() != want[i].Fingerprint() {
			t.Errorf("job %d: retry policy perturbed a fault-free result", i)
		}
	}
	if len(slept) != 0 {
		t.Fatalf("fault-free run slept %v", slept)
	}
}

// TestIsolatedCancellation: a cancelled context short-circuits jobs that
// have not started (Attempts 0, Err = ctx.Err()) and stops retries between
// attempts.
func TestIsolatedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts: nothing should run
	sw := Sweep{Parallel: 2, Context: ctx}
	ran := 0
	sw.Inject = func(job, attempt int) error { ran++; return nil }
	out := collect(sw, sweepScenarios(3)[:3])
	if ran != 0 {
		t.Fatalf("%d attempts ran under a pre-cancelled context", ran)
	}
	for i, cr := range out {
		if cr.Err != context.Canceled || cr.Attempts != 0 {
			t.Fatalf("job %d: {Attempts: %d, Err: %v}, want short-circuit to context.Canceled",
				i, cr.Attempts, cr.Err)
		}
	}

	// Cancel between attempts: the first attempt fails, the context is
	// cancelled during backoff, and the retry never runs.
	ctx2, cancel2 := context.WithCancel(context.Background())
	attempts := 0
	sw2 := Sweep{
		Parallel: 1,
		Context:  ctx2,
		Retry: RetryPolicy{
			MaxAttempts: 3,
			Backoff:     time.Millisecond,
			Sleep:       func(time.Duration) { cancel2() },
		},
		Inject: func(job, attempt int) error {
			attempts++
			return fmt.Errorf("fail attempt %d", attempt)
		},
	}
	out2 := collect(sw2, []Scenario{DefaultScenario(SpotServe, model.OPT6B7, trace.AS(), 1)})
	if attempts != 1 {
		t.Fatalf("%d attempts ran, want 1 (cancelled during backoff)", attempts)
	}
	if out2[0].Err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled to supersede the attempt error", out2[0].Err)
	}
}

// TestIsolatedOnCell: Run's onCell fires once per job with the final
// CellResult, for successes and failures alike, while OnResult fires for the
// successes only, each just before its job's onCell.
func TestIsolatedOnCell(t *testing.T) {
	scs := sweepScenarios(9)[:3]
	seen := map[int]CellResult{}
	succeeded := map[int]bool{}
	sw := Sweep{Parallel: 3}
	sw.Inject = func(job, attempt int) error {
		if job == 1 {
			return fmt.Errorf("job 1 down")
		}
		return nil
	}
	sw.OnResult = func(i int, _ Result, _ bool) {
		if _, done := seen[i]; done || succeeded[i] {
			t.Errorf("OnResult for job %d fired twice or after its onCell", i)
		}
		succeeded[i] = true
	}
	sw.Run(scs, func(i int, cr CellResult, _ bool) {
		if _, dup := seen[i]; dup {
			t.Errorf("onCell fired twice for job %d", i)
		}
		if succeeded[i] != (cr.Err == nil) {
			t.Errorf("job %d: OnResult fired = %v for err %v, want successes only", i, succeeded[i], cr.Err)
		}
		seen[i] = cr
	})
	if len(seen) != len(scs) {
		t.Fatalf("onCell fired %d times, want %d", len(seen), len(scs))
	}
	if len(succeeded) != len(scs)-1 {
		t.Fatalf("OnResult fired %d times, want %d", len(succeeded), len(scs)-1)
	}
	if seen[1].Err == nil {
		t.Fatal("job 1's injected failure not delivered to onCell")
	}
}

// TestRunCellsIsolatedShape: Run expands cells×seeds cell-major, and the flat
// job index Inject and onCell observe is cell×seeds+replica.
func TestRunCellsIsolatedShape(t *testing.T) {
	cells := []Scenario{
		DefaultScenario(SpotServe, model.OPT6B7, trace.AS(), 0),
		DefaultScenario(Reroute, model.OPT6B7, trace.BS(), 0),
	}
	seeds := SeedRange(1, 3)
	var injected []int
	sw := Sweep{Parallel: 1, Seeds: seeds}
	sw.Inject = func(job, attempt int) error {
		injected = append(injected, job)
		if job == 4 { // cell 1, replica 1
			return fmt.Errorf("flat job 4 down")
		}
		return nil
	}
	out := collect(sw, cells)
	if want := []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(injected, want) {
		t.Fatalf("inject saw jobs %v, want %v in dispatch order", injected, want)
	}
	if out[4].Err == nil {
		t.Fatal("flat job 4 should carry its injected failure")
	}
	for i, cr := range out {
		if i == 4 {
			continue
		}
		if cr.Err != nil {
			t.Errorf("job %d: unexpected error %v", i, cr.Err)
		}
		c, j := i/len(seeds), i%len(seeds)
		if cr.Result.Scenario.System != cells[c].System || cr.Result.Scenario.Seed != seeds[j] {
			t.Errorf("job %d ran %s at seed %d, want cell %d (%s) at seed %d",
				i, cr.Result.Scenario.System, cr.Result.Scenario.Seed, c, cells[c].System, seeds[j])
		}
	}
}

// TestRetryDelay pins the deterministic backoff schedule: doubling from
// Backoff, capped at MaxBackoff (DefaultMaxBackoff when unset).
func TestRetryDelay(t *testing.T) {
	cases := []struct {
		name    string
		policy  RetryPolicy
		attempt int
		want    time.Duration
	}{
		{"no-backoff", RetryPolicy{MaxAttempts: 3}, 2, 0},
		{"first-attempt", RetryPolicy{Backoff: time.Second}, 1, 0},
		{"base", RetryPolicy{Backoff: time.Second}, 2, time.Second},
		{"doubled", RetryPolicy{Backoff: time.Second}, 3, 2 * time.Second},
		{"doubled-twice", RetryPolicy{Backoff: time.Second}, 4, 4 * time.Second},
		{"capped", RetryPolicy{Backoff: time.Second, MaxBackoff: 3 * time.Second}, 4, 3 * time.Second},
		{"default-cap", RetryPolicy{Backoff: 20 * time.Second}, 3, DefaultMaxBackoff},
		{"cap-floor", RetryPolicy{Backoff: 5 * time.Second, MaxBackoff: time.Second}, 2, time.Second},
	}
	for _, tc := range cases {
		if got := tc.policy.Delay(tc.attempt); got != tc.want {
			t.Errorf("%s: Delay(%d) = %v, want %v", tc.name, tc.attempt, got, tc.want)
		}
	}
	if n := (RetryPolicy{}).attempts(); n != 1 {
		t.Errorf("zero policy attempts = %d, want 1", n)
	}
}
