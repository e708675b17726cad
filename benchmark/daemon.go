package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"spotserve/internal/experiments"
	"spotserve/internal/metrics"
	"spotserve/internal/scenario"
	"spotserve/internal/serve"
)

// daemonCapacity is C, spotserved's capacity for the daemon-mixed job
// mix in jobs/s: serve.capacity_jobs_per_s (the busy phase) measured on the
// reference machine (2-core x86-64, see README.md) and fixed here so every
// commit is offered the same load.
const daemonCapacity = 75.0

// loadPhase is one step of the load: a closed loop keeping inFlight jobs
// submitted, or an open loop sending at mult × daemonCapacity jobs/s. jobs
// is the phase's committed job count; all phases together take about 20 s
// on the reference machine.
type loadPhase struct {
	name     string
	inFlight int
	// burst is a closed loop's jobs between two pauses, in which the loop
	// waits for the daemon to drain and runs calibration units (host.go),
	// so the units never compete with the daemon's work.
	burst int
	mult  float64
	jobs  int
}

var loadPhases = []loadPhase{
	// One job at a time: the latency a lone user of an idle daemon sees.
	{name: "solo", inFlight: 1, burst: 1, jobs: 800},
	// Two jobs always in flight, so the daemon never idles: its capacity.
	{name: "busy", inFlight: 2, burst: 16, jobs: 288},
	{name: "r50", mult: 0.5, jobs: 40},
	{name: "r75", mult: 0.75, jobs: 150},
	{name: "r100", mult: 1.0, jobs: 90},
	{name: "r125", mult: 1.25, jobs: 120},
}

// soloPhase gives op_p50_ms and op_p95_ms, busyPhase cells_per_s.
const (
	soloPhase = 0
	busyPhase = 1
)

const (
	// primedSpecs are the distinct specs repeated jobs draw from; set-up
	// submits each once so repeats are served from the cell cache.
	primedSpecs = 8
	// jobCells is the cell count of every job: 2 availability models ×
	// {fixed, slo-latency} on the homogeneous fleet, one seed.
	jobCells = 4
	// daemonCheckJobs, the check set, are the first jobs of the solo
	// phase; a short run sends them and minPhaseJobs in every other phase.
	daemonCheckJobs = 16
	minPhaseJobs    = 4
	// jobLimitMS is the latency limit max_jobs_per_s is judged against.
	jobLimitMS = 300.0
	// maxLateMS bounds the load generator's p95 lateness; beyond it the
	// run measures the client, not the daemon, and is invalid.
	maxLateMS = 20.0
)

// daemonCacheCells is the daemon's cell cache size.
const daemonCacheCells = serve.DefaultCacheCells

var daemonAvail = []string{"bursty", "diurnal", "multizone", "crunch"}

// availPairs lists every unordered pair of daemonAvail.
func availPairs() [][]string {
	var out [][]string
	for i := range daemonAvail {
		for j := i + 1; j < len(daemonAvail); j++ {
			out = append(out, []string{daemonAvail[i], daemonAvail[j]})
		}
	}
	return out
}

func jobSpec(avail []string, seed int64) scenario.JobSpec {
	return scenario.JobSpec{
		Avail:    avail,
		Policies: []string{"fixed", "slo-latency"},
		Fleets:   []string{"homog"},
		Model:    "GPT-20B",
		Seed:     seed,
		Seeds:    1,
	}
}

// jobPlan is one job of the schedule.
type jobPlan struct {
	spec scenario.JobSpec
	// primed is the primed spec a repeated job resubmits, -1 for a fresh
	// job (a new seed, so nothing of it is cached).
	primed int
	// at is the scheduled send time, from the start of the phase.
	at time.Duration
}

// daemonSeedBase keeps the seeds of different runs' jobs apart.
func daemonSeedBase(seed int64) int64 { return seed << 32 }

// primedSpecList is the specs repeated jobs resubmit. They do not depend
// on the run's seed, so priming (set-up) does the same work in every run.
func primedSpecList() []scenario.JobSpec {
	pairs := availPairs()
	out := make([]scenario.JobSpec, primedSpecs)
	for k := range out {
		out[k] = jobSpec(pairs[k%len(pairs)], daemonSeedBase(warmSeed)+int64(k))
	}
	return out
}

// planJobs lays out the whole schedule. The mix is fixed: every third job
// repeats a primed spec (cycling through them), the others are fresh
// jobs cycling through the availability pairs, so percentiles over it do
// not move with the seed. The seed picks the fresh jobs' simulation seeds
// and the open loops' send times, a Poisson process conditioned on the
// phase's job count (sorted uniform times over jobs / rate). The plan is
// refused if its fresh cells could evict the primed ones from the daemon's
// first-in-first-out cell cache, which would turn repeats into misses.
func planJobs(seed int64, short bool, primed []scenario.JobSpec) ([][]jobPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	pairs := availPairs()
	out := make([][]jobPlan, len(loadPhases))
	j, fresh := 0, 0
	for pi, ph := range loadPhases {
		n := ph.jobs
		if short {
			n = minPhaseJobs
			if pi == soloPhase {
				n = daemonCheckJobs
			}
		}
		ats := make([]float64, n)
		if ph.inFlight == 0 {
			dur := float64(n) / (ph.mult * daemonCapacity)
			for i := range ats {
				ats[i] = rng.Float64() * dur
			}
			sort.Float64s(ats)
		}
		for _, at := range ats {
			p := jobPlan{primed: -1, at: time.Duration(at * float64(time.Second))}
			if j%3 == 0 {
				p.primed = (j / 3) % primedSpecs
				p.spec = primed[p.primed]
			} else {
				p.spec = jobSpec(pairs[fresh%len(pairs)], daemonSeedBase(seed)+rng.Int63n(1<<30))
				fresh++
			}
			out[pi] = append(out[pi], p)
			j++
		}
	}
	if cells := jobCells * (primedSpecs + fresh); cells > daemonCacheCells {
		return nil, fmt.Errorf("the plan puts %d cells into a %d-cell cache, so primed cells would be evicted", cells, daemonCacheCells)
	}
	return out, nil
}

// jobRecord is what the load generator saw of one job. The sender fills
// the submit fields before handing the job to the reader, the reader the
// rest; the channel between them orders the writes.
type jobRecord struct {
	plan                  jobPlan
	sched, sent, accepted time.Time
	status                int
	id                    string
	first, doneAt         time.Time
	rowTimes              []time.Time
	state                 string
	fps                   []string // per row, ordered by cell
	err                   error
}

// daemonClient is one HTTP connection to the daemon.
type daemonClient struct {
	base string
	http *http.Client
}

func newDaemonClient(base string) *daemonClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &daemonClient{base: base, http: &http.Client{Transport: tr}}
}

func (c *daemonClient) close() { c.http.CloseIdleConnections() }

// submit posts one job spec and returns the HTTP status and the job id.
func (c *daemonClient) submit(spec scenario.JobSpec) (int, string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, "", err
	}
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, "", nil
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		return resp.StatusCode, "", fmt.Errorf("submit response: %w", err)
	}
	return resp.StatusCode, sub.ID, nil
}

// stream reads a job's NDJSON stream to its done-line, stamping the time
// of every row.
func (c *daemonClient) stream(rec *jobRecord) error {
	resp, err := c.http.Get(c.base + "/jobs/" + rec.id + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream %s: status %d", rec.id, resp.StatusCode)
	}
	type cellFP struct {
		cell int
		fps  []string
	}
	var rows []cellFP
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		now := time.Now()
		var line struct {
			Done         bool     `json:"done"`
			State        string   `json:"state"`
			Cell         int      `json:"cell"`
			Fingerprints []string `json:"Fingerprints"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("stream %s: bad line: %w", rec.id, err)
		}
		if line.Done {
			rec.doneAt, rec.state = now, line.State
			break
		}
		if len(rec.rowTimes) == 0 {
			rec.first = now
		}
		rec.rowTimes = append(rec.rowTimes, now)
		rows = append(rows, cellFP{line.Cell, line.Fingerprints})
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if rec.state == "" {
		return fmt.Errorf("stream %s ended without a done-line", rec.id)
	}
	// Drain the rest so the connection can carry the next request.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].cell < rows[j].cell })
	for _, r := range rows {
		rec.fps = append(rec.fps, r.fps...)
	}
	return nil
}

// stats reads /stats.
func (c *daemonClient) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := c.http.Get(c.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// daemon is spotserved running in this process on a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    serve.New(serve.Options{Parallel: runtime.NumCPU(), CacheCells: daemonCacheCells}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon, closes the listener and waits for the server
// goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	derr := d.srv.Shutdown(ctx)
	herr := d.hs.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(derr, herr)
}

// runJob submits one job and reads it to its done-line.
func runJob(sender, reader *daemonClient, rec *jobRecord) {
	submitJob(sender, rec)
	readJob(reader, rec)
}

// submitJob posts the job, stamping when it was sent and answered.
func submitJob(sender *daemonClient, rec *jobRecord) {
	rec.sent = time.Now()
	rec.status, rec.id, rec.err = sender.submit(rec.plan.spec)
	rec.accepted = time.Now()
}

// readJob reads an accepted job's stream to its done-line.
func readJob(reader *daemonClient, rec *jobRecord) {
	if rec.err == nil && rec.status == http.StatusAccepted {
		rec.err = reader.stream(rec)
	}
}

// jobOK reports whether a job completed with every row.
func jobOK(rec *jobRecord) bool {
	return rec.err == nil && rec.status == http.StatusAccepted &&
		rec.state == string(serve.StateDone) && len(rec.fps) == jobCells
}

// runDaemonMixed drives spotserved in this process over two loopback
// connections: one goroutine sends POST /jobs, another reads each job's
// NDJSON stream in submission order (the daemon runs jobs FIFO and replays
// a stream's backlog, so a late reader still sees every row). Closed-loop
// phases send when a job in flight finishes; open-loop phases send on a
// Poisson schedule and time every job from its scheduled send time.
func runDaemonMixed(cfg runConfig, tr *tracer) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	res := newResult()
	primed := primedSpecList()
	var d *daemon
	var sender, reader *daemonClient
	primedFP := make([][]string, primedSpecs)
	// Set-up starts the daemon and primes its cell cache with every spec
	// the repeated jobs resubmit.
	setup, err := timeSetup(cfg.setupReps, func(last bool) error {
		var err error
		if d, err = startDaemon(); err != nil {
			return err
		}
		sender, reader = newDaemonClient(d.base), newDaemonClient(d.base)
		for k, spec := range primed {
			rec := &jobRecord{plan: jobPlan{spec: spec}}
			if runJob(sender, reader, rec); !jobOK(rec) {
				return fmt.Errorf("priming job %d: state %q, %d rows, status %d: %v", k, rec.state, len(rec.fps), rec.status, rec.err)
			}
			primedFP[k] = rec.fps
		}
		if last {
			return nil
		}
		sender.close()
		reader.close()
		return d.stop()
	})
	if err != nil {
		if d != nil {
			d.stop()
		}
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer sender.close()
	defer reader.close()
	before, err := sender.stats()
	if err != nil {
		d.stop()
		return nil, err
	}

	plan, err := planJobs(cfg.seed, cfg.short, primed)
	if err != nil {
		d.stop()
		return nil, err
	}
	phases := make([]phaseRun, len(plan))
	hm := newHeapMeter()
	start := time.Now()
	for pi, jobs := range plan {
		// The closed loops run the daemon with one P per CPU, as it runs
		// alone. In an open loop the daemon's nproc sweep workers keep
		// every P busy, and the sender, woken by a timer, would wait for
		// Go's 10 ms preemption tick to get one: a spare P lets it send on
		// time, so its lateness measures the host, not the Go scheduler.
		procs := runtime.NumCPU()
		if loadPhases[pi].inFlight == 0 {
			procs++
		}
		runtime.GOMAXPROCS(procs)
		ph := &phases[pi]
		ph.host = newHostMeter()
		t0 := time.Now()
		for _, p := range jobs {
			ph.recs = append(ph.recs, &jobRecord{plan: p, sched: t0.Add(p.at)})
		}
		if err := runPhase(sender, reader, ph, loadPhases[pi], hm); err != nil {
			d.stop()
			return nil, err
		}
	}
	elapsed := time.Since(start)
	after, err := sender.stats()
	if err != nil {
		d.stop()
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("daemon shutdown: %w", err)
	}

	lateP95 := summarizeJobs(res, phases, primedFP, tr)
	spans := tr.count()
	res.e2e["setup_s"] = setup
	hm.report(res)
	if hits, misses := cacheDelta(before, after); hits+misses > 0 {
		res.detail["serve.cache_hit_frac"] = float64(hits) / float64(hits+misses)
	}
	if lateP95 > maxLateMS {
		res.invalid = fmt.Sprintf("load generator ran late: p95 %.1f ms > %.0f ms", lateP95, maxLateMS)
	}

	// Check set: the first jobs' rows, by job index.
	checkRecs := phases[soloPhase].recs[:daemonCheckJobs]
	var checkSpecs []scenario.JobSpec
	for j, rec := range checkRecs {
		checkSpecs = append(checkSpecs, rec.plan.spec)
		if len(rec.fps) == jobCells {
			res.check = append(res.check, rec.fps...)
		} else {
			res.check = append(res.check, fmt.Sprintf("job %d: %d rows, state %q", j, len(rec.fps), rec.state))
		}
	}
	// Reference path: the check jobs' cells through experiments.Run, the
	// CLI path every daemon row must fingerprint-match.
	ref, serial, err := runSpecs(checkSpecs)
	if err != nil {
		res.refErr = err
	} else {
		res.refErr = compareFingerprints(res.check, ref)
	}
	var phys physics
	for _, r := range ref {
		phys.add(r)
	}
	phys.report(res.detail)
	if cfg.traced {
		if res.refErr != nil {
			ref = nil
		}
		res.layer = replayLayers(ref, tr, groupsOf(len(ref), 1))
		res.layer["experiments.pool_efficiency"] = poolEfficiency(checkRecs, serial)
		res.layer["bench.trace_overhead_frac"] = traceOverhead(spans, elapsed)
	}
	return res, nil
}

// phaseRun is one phase as it ran.
type phaseRun struct {
	recs []*jobRecord
	// busy is a closed loop's time with jobs in flight (its bursts), and
	// host the calibration units run between the bursts.
	busy     time.Duration
	host     *hostMeter
	depthEnd int // open loop: /stats queue_depth right after the last send
}

// runPhase sends a phase's jobs while a second goroutine reads their
// streams. A closed loop sends in bursts: within one it sends each job as
// soon as fewer than inFlight are unfinished, and after it waits for the
// daemon to drain and ticks the host meter. An open loop sends on
// schedule. The phase ends, untimed, when the daemon has drained.
func runPhase(sender, reader *daemonClient, ph *phaseRun, lp loadPhase, hm *heapMeter) error {
	toRead := make(chan *jobRecord, len(ph.recs)) // a slot per job: the sender never waits on the reader
	finished := make(chan struct{}, len(ph.recs))
	go func() {
		defer close(finished)
		for rec := range toRead {
			readJob(reader, rec)
			hm.observe()
			finished <- struct{}{}
		}
	}()
	send := func(rec *jobRecord) {
		submitJob(sender, rec)
		toRead <- rec
	}
	var err error
	if lp.inFlight > 0 {
		for lo := 0; lo < len(ph.recs); lo += lp.burst {
			burst := ph.recs[lo:min(lo+lp.burst, len(ph.recs))]
			t := time.Now()
			for i, rec := range burst {
				if i >= lp.inFlight {
					<-finished
				}
				rec.sched = time.Now()
				send(rec)
			}
			for i := 0; i < min(lp.inFlight, len(burst)); i++ {
				<-finished
			}
			ph.busy += time.Since(t)
			ph.host.tick()
		}
	} else {
		for _, rec := range ph.recs {
			time.Sleep(time.Until(rec.sched))
			send(rec)
		}
		var st serve.Stats
		st, err = sender.stats()
		ph.depthEnd = st.QueueDepth
	}
	close(toRead)
	for range finished {
	}
	return err
}

// runSpecs runs every cell of the specs serially through experiments.Run,
// in job then cell order, and returns the results with each job's serial
// simulation time.
func runSpecs(specs []scenario.JobSpec) ([]experiments.Result, []time.Duration, error) {
	var out []experiments.Result
	serial := make([]time.Duration, len(specs))
	for j, spec := range specs {
		grid, err := spec.Grid()
		if err != nil {
			return nil, nil, err
		}
		cells, err := grid.Cells()
		if err != nil {
			return nil, nil, err
		}
		rs, t, err := runReplicas(cells, spec.Sweep().Seeds)
		if err != nil {
			return nil, nil, err
		}
		out, serial[j] = append(out, rs...), t
	}
	return out, serial, nil
}

// fifoTimes derives each accepted job's queue wait and service time from
// what the client saw: the daemon runs one job at a time, in order, so job
// k starts when it was accepted or when job k-1 finished, whichever is
// later.
func fifoTimes(recs []*jobRecord) (wait, service map[*jobRecord]time.Duration) {
	wait, service = map[*jobRecord]time.Duration{}, map[*jobRecord]time.Duration{}
	var prevDone time.Time
	for _, r := range recs {
		if r.doneAt.IsZero() {
			continue
		}
		begin := r.accepted
		if prevDone.After(begin) {
			begin = prevDone
		}
		wait[r] = begin.Sub(r.accepted)
		service[r] = r.doneAt.Sub(begin)
		prevDone = r.doneAt
	}
	return wait, service
}

// poolEfficiency is Σ serial simulation time of the fresh check jobs over
// (workers × their service time in the daemon): how well one job keeps
// the daemon's sweep pool busy.
func poolEfficiency(recs []*jobRecord, serial []time.Duration) float64 {
	_, service := fifoTimes(recs)
	var sim, svc time.Duration
	for j, r := range recs {
		if r.plan.primed < 0 && service[r] > 0 && j < len(serial) {
			sim += serial[j]
			svc += service[r]
		}
	}
	return ratio(sim.Seconds(), float64(runtime.NumCPU())*svc.Seconds())
}

func cacheDelta(before, after serve.Stats) (hits, misses uint64) {
	if before.Cache == nil || after.Cache == nil {
		return 0, 0
	}
	return after.Cache.Hits - before.Cache.Hits, after.Cache.Misses - before.Cache.Misses
}

// summarizeJobs classifies every job, fills the end-to-end and detail
// metrics and records the job spans; it returns the load generator's p95
// lateness in ms. A refused job (429) is the daemon's backpressure working
// and counts only as a miss of the latency limit; a job that errs, ends in
// any state but done, lacks rows, or (when repeated) differs from its
// primed rows has failed.
func summarizeJobs(res *result, phases []phaseRun, primedFP [][]string, tr *tracer) float64 {
	var all []*jobRecord
	for _, ph := range phases {
		all = append(all, ph.recs...)
	}
	wait, service := fifoTimes(all)
	var late, submitMS, waitMS, gaps, cachedMS, freshMS metrics.Latencies
	maxRate := 0.0
	j := 0
	for pi, ph := range phases {
		var lat, judged, firstRow metrics.Latencies
		rejected := 0
		var lastSent, lastDone time.Time
		for _, r := range ph.recs {
			res.attempted++
			ok := jobOK(r)
			if ok && r.plan.primed >= 0 && strings.Join(r.fps, ",") != strings.Join(primedFP[r.plan.primed], ",") {
				ok = false // a cache hit must replay the primed rows exactly
			}
			if loadPhases[pi].inFlight == 0 {
				late.Add(ms(r.sent.Sub(r.sched)))
			}
			if r.sent.After(lastSent) {
				lastSent = r.sent
			}
			switch {
			case ok:
				lat.Add(ms(r.doneAt.Sub(r.sched)))
				judged.Add(ms(r.doneAt.Sub(r.sched)))
				firstRow.Add(ms(r.first.Sub(r.sched)))
			case r.err == nil && r.status == http.StatusTooManyRequests:
				rejected++
				judged.Add(math.Inf(1))
			default:
				res.failed++
				judged.Add(math.Inf(1))
			}
			if ok {
				if r.doneAt.After(lastDone) {
					lastDone = r.doneAt
				}
				submitMS.Add(ms(r.accepted.Sub(r.sent)))
				waitMS.Add(ms(wait[r]))
				if r.plan.primed >= 0 {
					cachedMS.Add(ms(service[r]))
				} else {
					freshMS.Add(ms(service[r]))
				}
				for i := 1; i < len(r.rowTimes); i++ {
					gaps.Add(ms(r.rowTimes[i].Sub(r.rowTimes[i-1])))
				}
				if tr != nil {
					job := tr.record("job", -1, int64(j), r.sched, r.doneAt)
					tr.record("loadgen.late", job, int64(j), r.sched, r.sent)
					tr.record("serve.submit", job, int64(j), r.sent, r.accepted)
					begin := r.accepted.Add(wait[r])
					tr.record("serve.queue_wait", job, int64(j), r.accepted, begin)
					tr.record("serve.service", job, int64(j), begin, r.doneAt)
				}
			}
			j++
		}
		name := loadPhases[pi].name
		switch pi {
		case soloPhase:
			slow := ph.host.slowdown()
			res.e2e["op_p50_ms"] = lat.Percentile(50) / slow
			res.e2e["op_p95_ms"] = lat.Percentile(95) / slow
			res.detail["host.slowdown.solo"] = slow
			res.detail["serve.first_row_p95_ms"] = firstRow.Percentile(95)
			continue
		case busyPhase:
			slow := ph.host.slowdown()
			res.e2e["cells_per_s"] = ratio(float64(lat.Count()*jobCells)*slow, ph.busy.Seconds())
			res.detail["host.slowdown.busy"] = slow
			res.detail["serve.capacity_jobs_per_s"] = ratio(float64(lat.Count()), ph.busy.Seconds())
			continue
		}
		// A rate is sustained when its p95, counting refused and failed
		// jobs as misses, meets the limit and the backlog left when the
		// phase stops sending drains within the limit too.
		drain := ms(lastDone.Sub(lastSent))
		res.detail["serve.job_p95_ms."+name] = lat.Percentile(95)
		res.detail["serve.rejected."+name] = float64(rejected)
		res.detail["serve.queue_depth_end."+name] = float64(ph.depthEnd)
		res.detail["serve.drain_ms."+name] = drain
		if judged.Percentile(95) <= jobLimitMS && drain <= jobLimitMS {
			maxRate = loadPhases[pi].mult * daemonCapacity
		}
	}
	res.detail["serve.max_jobs_per_s"] = maxRate
	res.detail["serve.submit_ms.p50"] = submitMS.Percentile(50)
	res.detail["serve.submit_ms.p95"] = submitMS.Percentile(95)
	res.detail["serve.queue_wait_ms.p50"] = waitMS.Percentile(50)
	res.detail["serve.queue_wait_ms.p95"] = waitMS.Percentile(95)
	res.detail["serve.service_ms.cached"] = cachedMS.Percentile(50)
	res.detail["serve.service_ms.uncached"] = freshMS.Percentile(50)
	res.detail["serve.row_gap_ms.p50"] = gaps.Percentile(50)
	lateP95 := late.Percentile(95)
	res.detail["loadgen.late_ms.p95"] = lateP95
	return lateP95
}
