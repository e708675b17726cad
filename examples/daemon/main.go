// Example daemon walks through the spotserved serving daemon end to end —
// and doubles as the `make daemon-smoke` gate. It starts the daemon on a
// loopback port, submits a small grid job over real HTTP, streams the NDJSON
// rows as cells finish, and then checks the determinism contract the hard
// way: every streamed fingerprint must match the equivalent CLI-path run
// (scenario.GridSweepStream at the same seed), and a resubmitted identical
// job must be served entirely from the cell cache. Any mismatch exits
// non-zero.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"spotserve/internal/scenario"
	"spotserve/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "daemon example: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Start the daemon — the same serve.Server cmd/spotserved wraps —
	// on a loopback port.
	daemon := serve.New(serve.Options{QueueDepth: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: daemon.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("spotserved listening on %s\n", base)

	// 2. Submit a small grid job: 2 availability models × 2 policies on the
	// homogeneous fleet, replicated at 2 seeds.
	spec := scenario.JobSpec{
		Avail:    []string{"diurnal", "bursty"},
		Policies: []string{"fixed", "slo-latency"},
		Fleets:   []string{"homog"},
		Seed:     1,
		Seeds:    2,
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var sub struct {
		ID        string `json:"id"`
		Cells     int    `json:"cells"`
		StreamURL string `json:"stream_url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	fmt.Printf("submitted %s: %d cells → %s\n", sub.ID, sub.Cells, sub.StreamURL)

	// 3. Stream the NDJSON rows as cells finish.
	rows, err := streamRows(base+sub.StreamURL, sub.Cells)
	if err != nil {
		return err
	}

	// 4. Determinism: the streamed fingerprints must match the equivalent
	// CLI-path run (exactly what `experiments -exp scenarios` computes).
	grid, err := spec.Grid()
	if err != nil {
		return err
	}
	cliRows, err := scenario.GridSweepStream(grid, spec.Sweep(), nil)
	if err != nil {
		return err
	}
	if len(rows) != len(cliRows) {
		return fmt.Errorf("daemon streamed %d rows, CLI computed %d", len(rows), len(cliRows))
	}
	for _, row := range rows {
		want := fmt.Sprint(cliRows[row.Cell].Fingerprints)
		if got := fmt.Sprint(row.Fingerprints); got != want {
			return fmt.Errorf("cell %d: daemon fingerprints %s != CLI %s", row.Cell, got, want)
		}
	}
	fmt.Printf("determinism: all %d streamed rows fingerprint-match the CLI run\n", len(rows))

	// 5. Resubmit the identical job: the cell cache must serve every
	// replica without simulating.
	resp, err = http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var sub2 struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&sub2)
	resp.Body.Close()
	if _, err := streamRows(base+"/jobs/"+sub2.ID+"/stream", sub.Cells); err != nil {
		return err
	}
	st, err := jobStatus(base + "/jobs/" + sub2.ID)
	if err != nil {
		return err
	}
	replicas := sub.Cells * 2 // seeds per cell
	if st.CacheHits != replicas || st.CacheMisses != 0 {
		return fmt.Errorf("resubmit: %d hits / %d misses, want %d / 0 (fully cached)",
			st.CacheHits, st.CacheMisses, replicas)
	}
	fmt.Printf("cache: resubmitted job served %d/%d replicas from the cell cache\n",
		st.CacheHits, replicas)

	// 6. /stats surfaces the fleet-wide counters.
	var stats serve.Stats
	if err := getJSON(base+"/stats", &stats); err != nil {
		return err
	}
	fmt.Printf("stats: %d jobs served, cache hit rate %.0f%% (%d/%d)\n",
		stats.JobsServed, stats.Cache.HitRate*100, stats.Cache.Hits,
		stats.Cache.Hits+stats.Cache.Misses)

	// 7. Graceful shutdown: drain jobs, then close the listener.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := daemon.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	fmt.Println("clean shutdown: queue drained, listener closed")
	return nil
}

// streamRows consumes one NDJSON stream to its terminal line.
func streamRows(url string, wantCells int) ([]serve.Row, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var rows []serve.Row
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			return nil, fmt.Errorf("bad NDJSON line: %w", err)
		}
		if _, done := probe["done"]; done {
			break
		}
		var row serve.Row
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		fmt.Printf("  row cell=%d %s/%s p99=%.1fs $/1ktok=%.4f\n",
			row.Cell, row.Avail, row.Policy, row.Summary.P99, row.CostPer1kTok.Mean())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) != wantCells {
		return nil, fmt.Errorf("streamed %d rows, want %d", len(rows), wantCells)
	}
	return rows, nil
}

func jobStatus(url string) (serve.Status, error) {
	var st serve.Status
	err := getJSON(url, &st)
	return st, err
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
