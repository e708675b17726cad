package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"spotserve/internal/scenario"
)

// smallSpec is the grid the daemon tests run: 2 availability models × 1
// policy × 1 fleet at 2 seeds — 4 replicas, small enough that the full
// suite stays fast, wide enough to exercise streaming and replication.
func smallSpec() scenario.JobSpec {
	return scenario.JobSpec{
		Avail:    []string{"diurnal", "bursty"},
		Policies: []string{"fixed"},
		Fleets:   []string{"homog"},
		Seed:     1,
		Seeds:    2,
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec scenario.JobSpec) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

func waitDone(t *testing.T, s *Server, id string) Status {
	t.Helper()
	job, ok := s.Job(id)
	if !ok {
		t.Fatalf("no job %s", id)
	}
	select {
	case <-job.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
	return job.status(true)
}

// The determinism contract: a daemon job's rendered table and per-row
// replica fingerprints are byte-identical to the equivalent CLI path
// (scenario.GridSweepStream + RenderGrid at the same seed, which is exactly
// what `experiments -exp scenarios` prints).
func TestJobMatchesCLIRun(t *testing.T) {
	spec := smallSpec()
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	cliRows, err := scenario.GridSweepStream(grid, spec.Sweep(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cliRender := scenario.RenderGrid(cliRows)

	s, ts := newTestServer(t, Options{})
	st := waitDone(t, s, submit(t, ts, spec))
	if st.State != StateDone {
		t.Fatalf("job state %s (%s)", st.State, st.Error)
	}
	if st.Render != cliRender {
		t.Fatalf("daemon render differs from CLI render:\n--- daemon ---\n%s\n--- cli ---\n%s", st.Render, cliRender)
	}
	if len(st.Rows) != len(cliRows) {
		t.Fatalf("%d rows, want %d", len(st.Rows), len(cliRows))
	}
	for _, row := range st.Rows {
		want := cliRows[row.Cell].Fingerprints
		if fmt.Sprint(row.Fingerprints) != fmt.Sprint(want) {
			t.Fatalf("cell %d fingerprints %v, want CLI's %v", row.Cell, row.Fingerprints, want)
		}
	}
}

// A repeated identical job is served entirely from the cell cache, the
// results stay byte-identical, and /stats surfaces the hit rate.
func TestRepeatJobServedFromCache(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	spec := smallSpec()
	first := waitDone(t, s, submit(t, ts, spec))
	second := waitDone(t, s, submit(t, ts, spec))

	if first.Render != second.Render {
		t.Fatal("cached job rendered differently")
	}
	replicas := 0
	for _, row := range first.Rows {
		replicas += len(row.Fingerprints)
	}
	if second.CacheHits != replicas || second.CacheMisses != 0 {
		t.Fatalf("second job: %d hits / %d misses, want %d / 0",
			second.CacheHits, second.CacheMisses, replicas)
	}
	if first.CacheHits != 0 || first.CacheMisses != replicas {
		t.Fatalf("first job: %d hits / %d misses, want 0 / %d",
			first.CacheHits, first.CacheMisses, replicas)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache == nil {
		t.Fatal("/stats missing cache section")
	}
	if stats.Cache.Hits != uint64(replicas) || stats.Cache.HitRate != 0.5 {
		t.Fatalf("cache stats %+v, want %d hits at rate 0.5", stats.Cache, replicas)
	}
	if stats.JobsServed != 2 || stats.JobsDone != 2 {
		t.Fatalf("stats %+v, want 2 jobs served/done", stats)
	}
}

// Cache-on == cache-off: the same spec on a cache-disabled daemon produces
// byte-identical renders and fingerprints.
func TestCacheEquivalence(t *testing.T) {
	spec := smallSpec()
	sOn, tsOn := newTestServer(t, Options{})
	sOff, tsOff := newTestServer(t, Options{DisableCache: true})

	// Run the cached daemon twice so the second pass really replays the
	// cache, then compare that pass against the uncached daemon.
	waitDone(t, sOn, submit(t, tsOn, spec))
	cached := waitDone(t, sOn, submit(t, tsOn, spec))
	uncached := waitDone(t, sOff, submit(t, tsOff, spec))

	if cached.Render != uncached.Render {
		t.Fatalf("cache-on render != cache-off render:\n--- on ---\n%s\n--- off ---\n%s",
			cached.Render, uncached.Render)
	}
	if uncached.CacheHits != 0 || uncached.CacheMisses != 0 {
		t.Fatalf("cache-off daemon recorded cache traffic: %+v", uncached)
	}
	byCell := func(rows []Row) []Row {
		out := append([]Row(nil), rows...)
		sort.Slice(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
		return out
	}
	on, off := byCell(cached.Rows), byCell(uncached.Rows)
	for i := range on {
		if fmt.Sprint(on[i].Fingerprints) != fmt.Sprint(off[i].Fingerprints) {
			t.Fatalf("cell %d: cache-on fingerprints %v != cache-off %v",
				on[i].Cell, on[i].Fingerprints, off[i].Fingerprints)
		}
	}
}

// The stream endpoint delivers one NDJSON line per cell plus a terminal
// done line, and the streamed rows are the rows the finished job reports.
func TestStreamNDJSON(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	id := submit(t, ts, smallSpec())

	resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var rows []Row
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if _, ok := probe["done"]; ok {
			sawDone = true
			var term struct {
				Done  bool  `json:"done"`
				State State `json:"state"`
				Rows  int   `json:"rows"`
			}
			if err := json.Unmarshal(line, &term); err != nil {
				t.Fatal(err)
			}
			if term.State != StateDone || term.Rows != len(rows) {
				t.Fatalf("terminal line %+v after %d rows", term, len(rows))
			}
			continue
		}
		var row Row
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawDone {
		t.Fatal("stream ended without a done line")
	}
	st := waitDone(t, s, id)
	if len(rows) != st.Cells {
		t.Fatalf("streamed %d rows, want %d cells", len(rows), st.Cells)
	}
	// The streamed rows must be exactly the job's recorded rows (the
	// late-subscriber backlog path is covered by streaming after Done).
	resp2, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay, _ := io.ReadAll(resp2.Body)
	if got := strings.Count(string(replay), "\n"); got != st.Cells+1 {
		t.Fatalf("replayed stream has %d lines, want %d rows + done", got, st.Cells+1)
	}
}

// A full queue rejects the submission with 429 and Retry-After, and the
// registry never learns about the rejected job.
func TestQueueBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Options{QueueDepth: 1})
	// Hold the runner inside its first job so the queue genuinely fills:
	// one job running, one occupying the single queue slot, third rejected.
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s.testJobStart = func(*Job) { started <- struct{}{}; <-release }
	defer close(release)

	accepted := 0
	var rejected *http.Response
	for i := 0; i < 5; i++ {
		body, _ := json.Marshal(smallSpec())
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusAccepted {
			accepted++
			resp.Body.Close()
			// Give the runner a moment to dequeue the first job before
			// filling the queue slot behind it.
			if accepted == 1 {
				time.Sleep(50 * time.Millisecond)
			}
			continue
		}
		rejected = resp
		break
	}
	if rejected == nil {
		t.Fatalf("queue of depth 1 accepted %d jobs without backpressure", accepted)
	}
	defer rejected.Body.Close()
	if rejected.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rejected with %d, want 429", rejected.StatusCode)
	}
	if rejected.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if accepted != 2 {
		t.Fatalf("%d jobs accepted, want exactly 2 (1 running + 1 queued)", accepted)
	}
	// The held job has entered its run, so the counters see exactly one
	// job running and one queued.
	<-started
	if st := s.StatsSnapshot(); st.JobsRunning != 1 || st.JobsQueued != 1 {
		t.Fatalf("stats %+v, want 1 running and 1 queued", st)
	}
	// The rejected submissions must not appear in the job list.
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != accepted {
		t.Fatalf("job list has %d entries, want %d accepted", len(list.Jobs), accepted)
	}
}

// Shutdown drains: accepted jobs finish, late submissions get 503, and
// /healthz flips to 503.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(smallSpec())
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	job, _ := s.Job(out.ID)
	if st := job.status(false); st.State != StateDone {
		t.Fatalf("accepted job drained to %s (%s), want done", st.State, st.Error)
	}

	// Post-shutdown: submissions 503, healthz 503.
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit got %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown healthz got %d, want 503", resp.StatusCode)
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// Bad specs fail at submission with 400 and a registry-grounded message.
func TestSubmitRejectsBadSpec(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		body string
		want string
	}{
		{`{"avail": ["sunny"]}`, "unknown availability model"},
		{`{"avial": ["diurnal"]}`, "unknown field"},
		{`not json`, "bad job spec"},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 400", c.body, resp.StatusCode)
		}
		if !strings.Contains(string(msg), c.want) {
			t.Fatalf("%q: error %q does not mention %q", c.body, msg, c.want)
		}
	}
	resp, err := http.Get(ts.URL + "/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job got %d, want 404", resp.StatusCode)
	}
}

// healthz answers ok while the daemon is live.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

// Concurrent clients hammer a shared daemon: submits, polls, streams and
// stats at once. Run under -race (the make race-serve gate).
func TestConcurrentClients(t *testing.T) {
	s, ts := newTestServer(t, Options{QueueDepth: 32})
	spec := scenario.JobSpec{
		Avail:    []string{"diurnal"},
		Policies: []string{"fixed"},
		Fleets:   []string{"homog"},
		Seeds:    1,
	}
	const clients = 6
	ids := make([]string, clients)
	done := make(chan int, clients)
	for c := 0; c < clients; c++ {
		c := c
		go func() {
			ids[c] = submit(t, ts, spec)
			resp, err := http.Get(ts.URL + "/jobs/" + ids[c] + "/stream")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			done <- c
		}()
	}
	for i := 0; i < clients; i++ {
		go http.Get(ts.URL + "/stats")
		go http.Get(ts.URL + "/jobs")
	}
	for i := 0; i < clients; i++ {
		select {
		case <-done:
		case <-time.After(120 * time.Second):
			t.Fatal("concurrent clients timed out")
		}
	}
	var renders []string
	for _, id := range ids {
		st := waitDone(t, s, id)
		if st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		renders = append(renders, st.Render)
	}
	for _, r := range renders[1:] {
		if r != renders[0] {
			t.Fatal("identical concurrent jobs rendered differently")
		}
	}
}
