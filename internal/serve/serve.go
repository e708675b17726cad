// Package serve is the spotserved daemon: a long-running HTTP management
// plane over the scenario-sweep harness. Many concurrent clients share one
// warm process — submitted grid jobs queue onto a bounded FIFO (backpressure
// is an explicit 429, never an unbounded buffer), run one at a time on the
// existing experiments.Sweep worker pool (each job parallelizes across all
// cores), and stream partial grid rows as NDJSON the moment each cell's
// last seed replica finishes. Completed cell replicas are cached by
// fingerprint-equivalent scenario identity (experiments.Scenario.CacheKey),
// so a repeated what-if query is served without simulating.
//
// Determinism is the contract: a job's rendered result is byte-identical to
// the equivalent `experiments -exp scenarios` CLI run at the same seed, the
// per-row replica fingerprints match the CLI's, and cache-on == cache-off
// (the cache replays stored results of the same deterministic key). The
// serve tests pin all three.
//
// API (see docs/ARCHITECTURE.md for the full schema):
//
//	POST   /jobs        submit a scenario.JobSpec JSON body → 202 + job id
//	                    (400 bad spec, 429 queue full, 503 shutting down)
//	POST   /calibrate   submit an observed trace (calibrate.ParseObserved
//	                    formats) → 202 + job id; the job replays the trace's
//	                    scenario, streams its single row, and its terminal
//	                    status carries the tolerance-scored report —
//	                    byte-identical to `experiments -exp calibrate`
//	GET    /jobs        list job statuses, submission order
//	GET    /jobs/{id}   poll one job: state, rows done, cache hits, render
//	DELETE /jobs/{id}   cancel a queued or running job cooperatively
//	GET    /jobs/{id}/stream  NDJSON: one Row per line as cells finish, then
//	                    a terminal {"done": true, ...} line whose status
//	                    distinguishes done/degraded/cancelled/deadline
//	GET    /healthz     liveness: "ok" (503 once shutdown begins)
//	GET    /stats       queue depth/capacity, job counts, cache hit rate,
//	                    retry/failure counters
//
// Jobs run fault-isolated: one failing cell degrades to an n/a row, the
// rest of the grid completes, and the job ends "degraded" rather than
// "failed". Per-job deadlines (spec deadline_ms) and DELETE cancellation
// act on both job kinds and are cooperative — cells already simulating
// finish (and stay byte-identical), cells not yet started short-circuit.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"spotserve/internal/calibrate"
	"spotserve/internal/experiments"
	"spotserve/internal/faults"
	"spotserve/internal/scenario"
)

// Options configures the daemon.
type Options struct {
	// QueueDepth bounds the job queue (queued + running); submissions
	// beyond it are rejected with 429. <= 0 means DefaultQueueDepth.
	QueueDepth int
	// Parallel is the sweep worker pool size per job (<= 0 = all cores).
	Parallel int
	// CacheCells bounds the cell cache (completed per-seed replicas);
	// <= 0 means DefaultCacheCells.
	CacheCells int
	// DisableCache turns the cell cache off — every job simulates every
	// replica. The equivalence tests run the same job spec with the cache
	// on and off and require identical fingerprints.
	DisableCache bool
	// Retry is the per-cell retry policy applied to every job's sweep.
	// The zero value attempts each replica once. Retries are deterministic
	// (capped exponential backoff, no jitter) and never perturb results —
	// a retried cell re-runs the same seeded simulation.
	Retry experiments.RetryPolicy
	// Faults, when non-nil, injects the chaos plan into every job's sweep
	// — the daemon's chaos mode (-chaos flags, the `make chaos` suite).
	// Injection is deterministic per (plan seed, cell, attempt) and can
	// only replace results with error rows, never alter them.
	Faults *faults.Plan
	// MaxBodyBytes bounds request bodies (<= 0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
}

// DefaultQueueDepth bounds the job queue when Options leaves it zero.
const DefaultQueueDepth = 16

// DefaultCacheCells bounds the cell cache when Options leaves it zero —
// roughly 80 repeats of the 50-cell default grid at one seed.
const DefaultCacheCells = 4096

// DefaultMaxBodyBytes bounds request bodies when Options leaves it zero.
const DefaultMaxBodyBytes = 1 << 20

// Server is the daemon state: job registry, bounded queue, cell cache and
// the single runner goroutine draining the queue.
type Server struct {
	opts  Options
	cache *cellCache // nil when disabled

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // submission order
	nextID  int
	served  int // jobs reaching a terminal state
	closing bool

	queue  chan *Job
	runner sync.WaitGroup

	// testJobStart, when non-nil, is called at the start of each job run —
	// the backpressure tests use it to hold the runner busy. Set before
	// the first submission; never set in production.
	testJobStart func(*Job)
}

// New builds a daemon and starts its runner. Callers own the HTTP listener
// (mount Handler) and must Shutdown to drain.
func New(opts Options) *Server {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.CacheCells <= 0 {
		opts.CacheCells = DefaultCacheCells
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{
		opts:  opts,
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, opts.QueueDepth),
	}
	if !opts.DisableCache {
		s.cache = newCellCache(opts.CacheCells)
	}
	s.runner.Add(1)
	go s.run()
	return s
}

// run drains the job queue until Shutdown closes it. Jobs run one at a
// time — each job already saturates the cores through the sweep pool, so
// job-level concurrency would only interleave nondeterministically.
func (s *Server) run() {
	defer s.runner.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one job. Both kinds run on one sweep built here — worker
// pool, job context, retry policy, counting cache and chaos hook — so cell
// failures degrade to error rows (a grid job ends "degraded"), a client
// cancel or expired deadline short-circuits the sweep cooperatively, and a
// whole-job error or panic fails the job rather than the daemon.
func (s *Server) runJob(job *Job) {
	defer func() {
		s.mu.Lock()
		s.served++
		s.mu.Unlock()
	}()
	if job.isCancelled() {
		job.finish(outcome{state: StateCancelled, errMsg: "cancelled before start"})
		return
	}
	job.setState(StateRunning)
	if s.testJobStart != nil {
		s.testJobStart(job)
	}

	// The job context: cancelled by DELETE /jobs/{id} (via cancelCh) or by
	// the per-job deadline, clocked from run start — queue wait is
	// backpressure, not work.
	ctx, cancel := context.WithCancel(context.Background())
	if job.deadline > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), job.deadline)
	}
	watchDone := make(chan struct{})
	defer func() {
		close(watchDone)
		cancel()
	}()
	go func() {
		select {
		case <-job.cancelCh:
			cancel()
		case <-watchDone:
		}
	}()

	sw := job.Spec.Sweep()
	sw.Parallel = s.opts.Parallel
	sw.Context = ctx
	sw.Retry = s.opts.Retry
	counting := s.jobCache()
	if counting != nil {
		sw.Cache = counting
	}
	if s.opts.Faults != nil {
		sw.Inject = s.opts.Faults.Hook()
	}
	var o outcome
	cells := 0
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("job panicked: %v", r)
			}
		}()
		if job.Kind == KindCalibrate {
			// Replay the observed trace's scenario, stream its single row,
			// and keep the tolerance-scored report — byte-identical to the
			// `experiments -exp calibrate` CLI path.
			rep, err := calibrate.Run(*job.Observed, calibrate.Options{
				Sweep: sw,
				OnRow: func(row scenario.GridRow) { job.emit(Row{Cell: 0, GridRow: row}) },
			})
			if err != nil {
				return err
			}
			o.render, o.calibration = rep.Render(), rep
			return nil
		}
		grid, err := job.Spec.Grid()
		if err != nil {
			return err
		}
		rows, err := scenario.GridSweepStream(grid, sw, func(cell int, row scenario.GridRow) {
			job.emit(Row{Cell: cell, GridRow: row})
		})
		if err != nil {
			return err
		}
		cells = len(rows)
		o.render = scenario.RenderGrid(rows)
		for _, r := range rows {
			o.retries += r.Retries
			if r.Err != "" {
				o.failedCells++
			}
		}
		return nil
	}()
	if counting != nil {
		o.hits, o.misses = counting.counts()
	}

	// Classify the terminal state: an explicit cancel or expired deadline
	// wins over everything else — the n/a rows of a grid job and the replay
	// error of a calibrate job are their consequence, not a cause; then a
	// whole-job error fails the job; all-cells-failed is a failure, partial
	// failure is degradation.
	switch {
	case job.isCancelled():
		o.state, o.errMsg = StateCancelled, "cancelled by client"
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		o.state, o.errMsg = StateDeadline, fmt.Sprintf("deadline %v exceeded", job.deadline)
	case err != nil:
		o.state, o.errMsg = StateFailed, err.Error()
	case cells > 0 && o.failedCells == cells:
		o.state, o.errMsg = StateFailed, fmt.Sprintf("all %d cells failed", cells)
	case o.failedCells > 0:
		o.state = StateDegraded
	default:
		o.state = StateDone
	}
	job.finish(o)
}

// jobCache assembles one job's counting cache view over the shared cell
// store (nil when the cache is disabled). In chaos mode the outage wrapper
// sits between the counter and the store, so an outage is attributed as a
// miss.
func (s *Server) jobCache() *countingCache {
	if s.cache == nil {
		return nil
	}
	var rc experiments.ResultCache = s.cache
	if s.opts.Faults != nil {
		rc = s.opts.Faults.WrapCache(rc)
	}
	return &countingCache{inner: rc}
}

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	mux.HandleFunc("/calibrate", s.handleCalibrate)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// Submit validates and enqueues a job spec, returning the queued job. It is
// the programmatic form of POST /jobs; ErrQueueFull and ErrShuttingDown
// report backpressure and drain.
func (s *Server) Submit(spec scenario.JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	grid, err := spec.Grid()
	if err != nil {
		return nil, err
	}
	cells, err := grid.Cells()
	if err != nil {
		return nil, err
	}
	seeds := len(spec.Sweep().Seeds)
	return s.enqueue(func(id string) *Job {
		return newJob(id, spec, len(cells), seeds)
	})
}

// SubmitCalibrate validates and enqueues a calibration job for an observed
// trace: the job replays the trace's scenario (one cell), streams its row,
// and finishes with the tolerance-scored report in its status. It shares
// the grid jobs' queue, backpressure and cell cache; the Spec recorded on
// the job mirrors the trace's scenario reference for display.
func (s *Server) SubmitCalibrate(obs calibrate.ObservedTrace) (*Job, error) {
	if err := obs.Validate(); err != nil {
		return nil, err
	}
	// Resolve the scenario now so a bad axis name fails the POST with the
	// registry's error text, not the job later.
	if err := obs.ResolveScenario(); err != nil {
		return nil, err
	}
	ref := obs.Scenario.WithDefaults()
	obsCopy := obs
	spec := scenario.JobSpec{
		Avail:    []string{ref.Avail},
		Policies: []string{ref.Policy},
		Fleets:   []string{ref.Fleet},
		Systems:  []string{ref.System},
		Market:   ref.Market,
		Model:    ref.Model,
		SLO:      ref.SLO,
		Seed:     ref.Seed,
		Seeds:    ref.Seeds,
	}
	return s.enqueue(func(id string) *Job {
		job := newJob(id, spec, 1, ref.Seeds)
		job.Kind = KindCalibrate
		job.Observed = &obsCopy
		return job
	})
}

// enqueue registers and queues one job under the registry lock — the shared
// tail of Submit and SubmitCalibrate. The queue slot is reserved while
// holding the lock so a full queue never registers a job it cannot accept.
func (s *Server) enqueue(build func(id string) *Job) (*Job, error) {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	s.nextID++
	job := build(fmt.Sprintf("job-%06d", s.nextID))
	select {
	case s.queue <- job:
	default:
		s.nextID--
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.mu.Unlock()
	return job, nil
}

// Job looks up a submitted job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Sentinel submission errors, mapped to 429/503 by the HTTP layer.
var (
	ErrQueueFull    = fmt.Errorf("serve: job queue full")
	ErrShuttingDown = fmt.Errorf("serve: shutting down")
)

// Shutdown drains the daemon: new submissions are refused immediately, and
// every already-accepted job (queued and running) completes unless ctx
// expires first. On a expired ctx the still-unfinished jobs are failed so
// blocked stream clients unblock, and the context error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil
	}
	s.closing = true
	close(s.queue) // submits check closing under mu, so no send can race
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.runner.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, id := range s.order {
			j := s.jobs[id]
			if st := j.status(false); !terminal(st.State) {
				j.finish(outcome{state: StateFailed, errMsg: "server shutdown before job finished"})
			}
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// --- HTTP handlers ---

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleSubmit(w, r)
	case http.MethodGet:
		s.handleList(w)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r, s.opts.MaxBodyBytes)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spec, err := scenario.ParseJobSpec(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	job, err := s.Submit(spec)
	switch err {
	case nil:
	case ErrQueueFull:
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case ErrShuttingDown:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Location", "/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":         job.ID,
		"cells":      job.Cells,
		"seeds":      job.Seeds,
		"status_url": "/jobs/" + job.ID,
		"stream_url": "/jobs/" + job.ID + "/stream",
	})
}

// handleCalibrate accepts an observed trace (either calibrate.ParseObserved
// format) and queues its calibration job, mirroring POST /jobs' error
// mapping (400 bad trace, 429 queue full, 503 shutting down).
func (s *Server) handleCalibrate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := readBody(r, s.opts.MaxBodyBytes)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	obs, err := calibrate.ParseObserved(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	job, err := s.SubmitCalibrate(obs)
	switch err {
	case nil:
	case ErrQueueFull:
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case ErrShuttingDown:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Location", "/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":         job.ID,
		"kind":       job.Kind,
		"cells":      job.Cells,
		"seeds":      job.Seeds,
		"status_url": "/jobs/" + job.ID,
		"stream_url": "/jobs/" + job.ID + "/stream",
	})
}

func (s *Server) handleList(w http.ResponseWriter) {
	s.mu.Lock()
	statuses := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		statuses = append(statuses, s.jobs[id].status(false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodDelete {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	job, ok := s.Job(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no job %q", id), http.StatusNotFound)
		return
	}
	if r.Method == http.MethodDelete {
		if sub != "" {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		took := job.Cancel()
		writeJSON(w, http.StatusOK, map[string]any{
			"id":        job.ID,
			"cancelled": took,
			"state":     job.status(false).State,
		})
		return
	}
	switch sub {
	case "":
		writeJSON(w, http.StatusOK, job.status(true))
	case "stream":
		s.handleStream(w, r, job)
	default:
		http.Error(w, fmt.Sprintf("no endpoint %q", sub), http.StatusNotFound)
	}
}

// handleStream writes NDJSON: every completed row (backlog first, then live
// as cells finish), terminated by a {"done": true} status line whose state
// distinguishes done, degraded, cancelled, deadline and failed. Each line
// is flushed as written so a client watches the grid fill in. A client
// that disconnects mid-stream is unsubscribed on the way out, so its dead
// channel never lingers on the job's fan-out list.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, job *Job) {
	backlog, live := job.subscribe()
	defer job.unsubscribe(live)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// Flush the headers before any row exists: a client must see the stream
	// open immediately (and be able to wait on it), not block until the
	// first cell of a possibly long or stalled job completes.
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	writeRow := func(row Row) bool {
		if err := enc.Encode(row); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for _, row := range backlog {
		if !writeRow(row) {
			return
		}
	}
	for {
		select {
		case row, ok := <-live:
			if !ok {
				st := job.status(false)
				// A failed Encode means the client is gone; there is no
				// stream left to repair, so stop without flushing.
				if err := enc.Encode(map[string]any{
					"done":         true,
					"state":        st.State,
					"error":        st.Error,
					"rows":         st.RowsDone,
					"failed_cells": st.FailedCells,
					"retries":      st.Retries,
				}); err != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
			if !writeRow(row) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	if closing {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Stats is the /stats payload.
type Stats struct {
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	JobsQueued    int `json:"jobs_queued"`
	JobsRunning   int `json:"jobs_running"`
	JobsDone      int `json:"jobs_done"`
	JobsDegraded  int `json:"jobs_degraded"`
	JobsCancelled int `json:"jobs_cancelled"`
	JobsDeadline  int `json:"jobs_deadline"`
	JobsFailed    int `json:"jobs_failed"`
	JobsServed    int `json:"jobs_served"`
	// CellRetries / CellFailures total the fault-tolerance activity across
	// every job: extra attempts the retry policy ran, and cells that
	// degraded to error rows.
	CellRetries  int         `json:"cell_retries"`
	CellFailures int         `json:"cell_failures"`
	Cache        *CacheStats `json:"cache,omitempty"`
}

// StatsSnapshot assembles the current daemon counters.
func (s *Server) StatsSnapshot() Stats {
	s.mu.Lock()
	st := Stats{
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		JobsServed:    s.served,
	}
	for _, id := range s.order {
		js := s.jobs[id].status(false)
		st.CellRetries += js.Retries
		st.CellFailures += js.FailedCells
		switch js.State {
		case StateQueued:
			st.JobsQueued++
		case StateRunning:
			st.JobsRunning++
		case StateDone:
			st.JobsDone++
		case StateDegraded:
			st.JobsDegraded++
		case StateCancelled:
			st.JobsCancelled++
		case StateDeadline:
			st.JobsDeadline++
		case StateFailed:
			st.JobsFailed++
		}
	}
	s.mu.Unlock()
	if s.cache != nil {
		cs := s.cache.stats()
		st.Cache = &cs
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// --- small helpers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func readBody(r *http.Request, limit int64) ([]byte, error) {
	defer r.Body.Close()
	data, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, limit))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return data, nil
}
