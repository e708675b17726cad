package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spotserve/internal/calibrate"
	"spotserve/internal/faults"
)

// smallObserved exports a two-seed simulated run as an observed trace — the
// same self-calibration fixture the calibrate package's round-trip test
// uses, so a daemon replay must score it with zero violations.
func smallObserved(t *testing.T) calibrate.ObservedTrace {
	t.Helper()
	obs, err := calibrate.ExportScenario("serve-equivalence", calibrate.ScenarioRef{
		Avail: "bursty", Policy: "fixed", Fleet: "homog", Seed: 1, Seeds: 2,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return obs
}

// submitCalibrate POSTs an observed trace to /calibrate and returns the
// accepted job's id.
func submitCalibrate(t *testing.T, ts *httptest.Server, obs calibrate.ObservedTrace) string {
	t.Helper()
	body, err := obs.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/calibrate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var out struct {
		ID   string `json:"id"`
		Kind string `json:"kind"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != KindCalibrate {
		t.Fatalf("accepted kind %q, want %q", out.Kind, KindCalibrate)
	}
	return out.ID
}

// The calibrate determinism contract: a daemon calibrate job's rendered
// report, JSON report and replica fingerprints are byte-identical to the
// CLI path (calibrate.Run on the same trace, which is exactly what
// `experiments -exp calibrate` prints).
func TestCalibrateMatchesCLIRun(t *testing.T) {
	obs := smallObserved(t)
	cliRep, err := calibrate.Run(obs, calibrate.Options{})
	if err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Options{})
	st := waitDone(t, s, submitCalibrate(t, ts, obs))
	if st.State != StateDone {
		t.Fatalf("job state %s (%s)", st.State, st.Error)
	}
	if st.Kind != KindCalibrate {
		t.Fatalf("status kind %q, want %q", st.Kind, KindCalibrate)
	}
	if st.Render != cliRep.Render() {
		t.Fatalf("daemon render differs from CLI render:\n--- daemon ---\n%s\n--- cli ---\n%s", st.Render, cliRep.Render())
	}
	if st.Calibration == nil {
		t.Fatal("terminal calibrate status carries no report")
	}
	daemonJSON, err := st.Calibration.JSON()
	if err != nil {
		t.Fatal(err)
	}
	cliJSON, err := cliRep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(daemonJSON, cliJSON) {
		t.Fatalf("daemon report JSON differs from CLI:\n--- daemon ---\n%s\n--- cli ---\n%s", daemonJSON, cliJSON)
	}
	if got, want := st.Calibration.Fingerprints, cliRep.Fingerprints; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("fingerprints %v, want CLI's %v", got, want)
	}
	// Self-calibration through the daemon keeps the round-trip guarantee.
	if st.Calibration.Verdict != calibrate.VerdictPass || st.Calibration.Fail != 0 || st.Calibration.Warn != 0 {
		t.Fatalf("self-calibration verdict %s (%d warn, %d fail), want clean pass",
			st.Calibration.Verdict, st.Calibration.Warn, st.Calibration.Fail)
	}
	// The replayed cell streams exactly one row.
	if len(st.Rows) != 1 || st.Rows[0].Cell != 0 {
		t.Fatalf("calibrate job rows = %+v, want one row for cell 0", st.Rows)
	}
}

// A repeated identical calibrate job is served entirely from the shared
// cell cache and renders byte-identically — calibrate replays share cache
// entries with each other (and with grid jobs over the same cell).
func TestRepeatCalibrateServedFromCache(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	obs := smallObserved(t)
	first := waitDone(t, s, submitCalibrate(t, ts, obs))
	second := waitDone(t, s, submitCalibrate(t, ts, obs))

	if first.Render != second.Render {
		t.Fatal("cached calibrate job rendered differently")
	}
	replicas := len(first.Calibration.Fingerprints)
	if replicas == 0 {
		t.Fatal("first report carries no fingerprints")
	}
	if first.CacheHits != 0 || first.CacheMisses != replicas {
		t.Fatalf("first job: %d hits / %d misses, want 0 / %d",
			first.CacheHits, first.CacheMisses, replicas)
	}
	if second.CacheHits != replicas || second.CacheMisses != 0 {
		t.Fatalf("second job: %d hits / %d misses, want %d / 0",
			second.CacheHits, second.CacheMisses, replicas)
	}
}

// DELETE reaches a running calibrate job: the replay runs on the job's
// sweep, so the stalled first replica completes once released, the second
// short-circuits, and the job ends cancelled — status, done-line and /stats.
func TestDeleteCancelsRunningCalibrateJob(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{
		Parallel: 1,
		Faults: &faults.Plan{
			Kind: faults.SlowCell, Seed: 1, Rate: 1,
			Sleep: func(time.Duration) { entered <- struct{}{}; <-release },
		},
	})
	id := submitCalibrate(t, ts, smallObserved(t))
	streamResp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()

	select {
	case <-entered: // the first replica is stalled mid-attempt
	case <-time.After(30 * time.Second):
		t.Fatal("no replica entered the stall gate — the replay ignores the job's fault hook")
	}
	if !cancelJob(t, ts, id) {
		t.Fatal("DELETE on a running calibrate job reported cancelled=false")
	}
	close(release)

	st := waitDone(t, s, id)
	if st.State != StateCancelled || !strings.Contains(st.Error, "cancelled by client") {
		t.Fatalf("state %s (%s), want cancelled by client", st.State, st.Error)
	}
	if state := doneLine(t, streamResp.Body); state != StateCancelled {
		t.Fatalf("done-line state %q, want cancelled", state)
	}
	if stats := s.StatsSnapshot(); stats.JobsCancelled != 1 {
		t.Fatalf("stats %+v, want 1 cancelled job", stats)
	}
}

// A calibrate job's deadline cuts its replay short: the first replica
// stalls past the deadline, the second never runs, and the job ends in the
// deadline state without a row or report. POST /calibrate takes no
// deadline, so the test sets one as the job starts.
func TestCalibrateDeadlineExpires(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Parallel: 1,
		Faults:   &faults.Plan{Kind: faults.SlowCell, Seed: 1, Rate: 1, Stall: 200 * time.Millisecond},
	})
	s.testJobStart = func(j *Job) { j.deadline = 50 * time.Millisecond }
	st := waitDone(t, s, submitCalibrate(t, ts, smallObserved(t)))
	if st.State != StateDeadline || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("state %s (%s), want deadline", st.State, st.Error)
	}
	if len(st.Rows) != 0 || st.Calibration != nil {
		t.Fatalf("%d rows, report %v: a replay cut short by its deadline must not score", len(st.Rows), st.Calibration != nil)
	}
	if stats := s.StatsSnapshot(); stats.JobsDeadline != 1 {
		t.Fatalf("stats %+v, want 1 deadline job", stats)
	}
}
