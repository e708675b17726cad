package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spotserve/internal/experiments"
	"spotserve/internal/faults"
	"spotserve/internal/scenario"
)

// cancelJob issues DELETE /jobs/{id} and returns whether the cancel took.
func cancelJob(t *testing.T, ts *httptest.Server, id string) bool {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	var out struct {
		Cancelled bool `json:"cancelled"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Cancelled
}

// The headline chaos test: a 50-cell default-grid job with one injected
// cell panic completes degraded — 49 good rows, one n/a error row — and the
// good rows are byte-identical to a fault-free daemon's.
func TestFiftyCellJobDegradesOnOnePanic(t *testing.T) {
	// Empty spec = the full 50-cell default grid at one seed, so flat sweep
	// job indices equal grid cell indices and the plan pins exactly cell 7.
	spec := scenario.JobSpec{}
	clean, tsClean := newTestServer(t, Options{})
	cleanSt := waitDone(t, clean, submit(t, tsClean, spec))
	if cleanSt.State != StateDone || cleanSt.Cells != 50 {
		t.Fatalf("fault-free run: state %s, %d cells (want done, 50)", cleanSt.State, cleanSt.Cells)
	}

	s, ts := newTestServer(t, Options{
		Faults: &faults.Plan{Kind: faults.CellPanic, Seed: 1, Cells: []int{7}},
	})
	st := waitDone(t, s, submit(t, ts, spec))
	if st.State != StateDegraded {
		t.Fatalf("state %s (%s), want degraded", st.State, st.Error)
	}
	if st.FailedCells != 1 {
		t.Fatalf("failed_cells = %d, want 1", st.FailedCells)
	}
	if len(st.Rows) != 50 {
		t.Fatalf("%d rows, want 50 (failed cell included as an error row)", len(st.Rows))
	}
	cleanByCell := map[int]Row{}
	for _, r := range cleanSt.Rows {
		cleanByCell[r.Cell] = r
	}
	good := 0
	for _, r := range st.Rows {
		if r.Cell == 7 {
			if r.Err == "" || !strings.Contains(r.Err, "injected panic") {
				t.Fatalf("cell 7 err = %q, want the injected panic", r.Err)
			}
			if len(r.Fingerprints) != 0 {
				t.Fatal("failed cell carries fingerprints")
			}
			continue
		}
		good++
		if r.Err != "" {
			t.Fatalf("cell %d collaterally failed: %s", r.Cell, r.Err)
		}
		want := cleanByCell[r.Cell]
		if len(r.Fingerprints) == 0 || strings.Join(r.Fingerprints, ",") != strings.Join(want.Fingerprints, ",") {
			t.Fatalf("cell %d fingerprints differ from the fault-free run", r.Cell)
		}
	}
	if good != 49 {
		t.Fatalf("%d good rows, want 49", good)
	}
	if !strings.Contains(st.Render, "n/a") || !strings.Contains(st.Render, "1 cell(s) failed") {
		t.Fatalf("render lacks the n/a row or error footer:\n%s", st.Render)
	}

	stats := s.StatsSnapshot()
	if stats.JobsDegraded != 1 || stats.CellFailures != 1 {
		t.Fatalf("stats %+v, want 1 degraded job / 1 cell failure", stats)
	}
}

// Transient faults healed by the daemon's retry policy leave the job done,
// byte-identical to a fault-free run, with the retry surfaced in status and
// /stats.
func TestDaemonRetriesHealTransientFault(t *testing.T) {
	clean, tsClean := newTestServer(t, Options{})
	cleanSt := waitDone(t, clean, submit(t, tsClean, smallSpec()))

	s, ts := newTestServer(t, Options{
		Retry:  experiments.RetryPolicy{MaxAttempts: 3},
		Faults: &faults.Plan{Kind: faults.TransientError, Seed: 1, Cells: []int{1}, SucceedAfter: 2},
	})
	st := waitDone(t, s, submit(t, ts, smallSpec()))
	if st.State != StateDone {
		t.Fatalf("state %s (%s), want done — the retry should heal", st.State, st.Error)
	}
	if st.Retries != 1 || st.FailedCells != 0 {
		t.Fatalf("retries=%d failed=%d, want 1/0", st.Retries, st.FailedCells)
	}
	if st.Render != cleanSt.Render {
		t.Fatal("healed render differs from fault-free render")
	}
	if stats := s.StatsSnapshot(); stats.CellRetries != 1 || stats.JobsDone != 1 {
		t.Fatalf("stats %+v, want 1 cell retry on a done job", stats)
	}
}

// A total cache outage degrades to recomputation, never to wrong answers:
// the repeated job records zero hits but renders byte-identically.
func TestCacheOutageForcesRecomputeOnly(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Faults: &faults.Plan{Kind: faults.CacheOutage, Seed: 1, Cells: []int{0}},
	})
	first := waitDone(t, s, submit(t, ts, smallSpec()))
	second := waitDone(t, s, submit(t, ts, smallSpec()))
	if first.State != StateDone || second.State != StateDone {
		t.Fatalf("states %s/%s, want done/done", first.State, second.State)
	}
	if second.CacheHits != 0 {
		t.Fatalf("outage job still hit the cache %d times", second.CacheHits)
	}
	if first.Render != second.Render {
		t.Fatal("recomputed job rendered differently — outage corrupted results")
	}
}

// DELETE on a running job cancels it cooperatively: the stalled in-flight
// cell completes once released, unstarted cells short-circuit, and the
// stream's done-line reports the cancelled state.
func TestDeleteCancelsRunningJob(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{
		Parallel: 1,
		Faults: &faults.Plan{
			Kind: faults.SlowCell, Seed: 1, Rate: 1,
			Sleep: func(time.Duration) { entered <- struct{}{}; <-release },
		},
	})
	id := submit(t, ts, scenario.JobSpec{
		Avail: []string{"diurnal", "bursty"}, Policies: []string{"fixed"},
		Fleets: []string{"homog"}, Seeds: 1,
	})
	// Open the stream before cancelling so the done-line is observable.
	streamResp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()

	select {
	case <-entered: // the first cell is stalled mid-attempt
	case <-time.After(30 * time.Second):
		t.Fatal("no cell entered the stall gate")
	}
	if !cancelJob(t, ts, id) {
		t.Fatal("DELETE on a running job reported cancelled=false")
	}
	close(release)

	st := waitDone(t, s, id)
	if st.State != StateCancelled {
		t.Fatalf("state %s (%s), want cancelled", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "cancelled by client") {
		t.Fatalf("error %q", st.Error)
	}
	// The stream must terminate with a cancelled done-line.
	if state := doneLine(t, streamResp.Body); state != StateCancelled {
		t.Fatalf("done-line state %q, want cancelled", state)
	}
	// A second DELETE is a no-op on a terminal job.
	if cancelJob(t, ts, id) {
		t.Fatal("DELETE on a terminal job reported cancelled=true")
	}
	if stats := s.StatsSnapshot(); stats.JobsCancelled != 1 {
		t.Fatalf("stats %+v, want 1 cancelled job", stats)
	}
}

// doneLine reads an NDJSON job stream to its end and returns the state its
// terminal done-line reports.
func doneLine(t *testing.T, body io.Reader) State {
	t.Helper()
	var lastLine []byte
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		lastLine = append(lastLine[:0], sc.Bytes()...)
	}
	var term struct {
		Done  bool  `json:"done"`
		State State `json:"state"`
	}
	if err := json.Unmarshal(lastLine, &term); err != nil || !term.Done {
		t.Fatalf("bad terminal line %q: %v", lastLine, err)
	}
	return term.State
}

// DELETE on a queued job cancels it before it ever runs.
func TestDeleteCancelsQueuedJob(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{QueueDepth: 4})
	s.testJobStart = func(*Job) { <-release }
	first := submit(t, ts, smallSpec())
	queued := submit(t, ts, smallSpec())
	if !cancelJob(t, ts, queued) {
		t.Fatal("DELETE on a queued job reported cancelled=false")
	}
	close(release)
	if st := waitDone(t, s, queued); st.State != StateCancelled || !strings.Contains(st.Error, "before start") {
		t.Fatalf("queued job drained to %s (%s), want cancelled before start", st.State, st.Error)
	}
	if st := waitDone(t, s, first); st.State != StateDone {
		t.Fatalf("first job: %s (%s)", st.State, st.Error)
	}
}

// A job over its deadline_ms finishes in the deadline state, keeping the
// rows that completed in time.
func TestDeadlineExpires(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Parallel: 1,
		// Every cell stalls 200 ms against a 50 ms deadline: the first cell
		// finishes late (in-flight work is never interrupted), the rest
		// short-circuit.
		Faults: &faults.Plan{Kind: faults.SlowCell, Seed: 1, Rate: 1, Stall: 200 * time.Millisecond},
	})
	body, _ := json.Marshal(map[string]any{
		"avail": []string{"diurnal", "bursty"}, "policies": []string{"fixed"},
		"fleets": []string{"homog"}, "seeds": 1, "deadline_ms": 50,
	})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()

	st := waitDone(t, s, out.ID)
	if st.State != StateDeadline {
		t.Fatalf("state %s (%s), want deadline", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("error %q", st.Error)
	}
	if stats := s.StatsSnapshot(); stats.JobsDeadline != 1 {
		t.Fatalf("stats %+v, want 1 deadline job", stats)
	}
}

// A client that disconnects mid-stream is unsubscribed promptly: the job's
// fan-out list drains to zero, emit never blocks, and the job still
// completes.
func TestStreamClientDisconnectUnsubscribes(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{})
	s.testJobStart = func(*Job) { <-release }
	id := submit(t, ts, smallSpec())
	job, _ := s.Job(id)

	ctx, cancelReq := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/jobs/"+id+"/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for job.subscribers() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d subscribers, want %d", what, job.subscribers(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(1, "after connect")
	cancelReq() // client disconnects mid-stream, before any row arrives
	resp.Body.Close()
	waitFor(0, "after disconnect")

	close(release)
	if st := waitDone(t, s, id); st.State != StateDone {
		t.Fatalf("job after subscriber vanished: %s (%s)", st.State, st.Error)
	}
}

// Request bodies over the configured limit are rejected with 400.
func TestSubmitBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 64})
	big := `{"avail": ["diurnal"], "policies": ["fixed", "` + strings.Repeat("x", 200) + `"]}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body got %d, want 400", resp.StatusCode)
	}
}
