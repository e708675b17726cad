package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps spans in memory for a traced run. Spans are recorded by the
// benchmark around its own calls into a layer's public functions; nothing
// inside the program is instrumented. A nil *tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Parent is the index of the enclosing span (-1 for
// a root) and Op the cell index or job index the call served (-1 if none).
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	Op         int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, for end and as a parent id.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose bounds were taken elsewhere (the daemon load
// generator stamps times on two goroutines and records the job at the end).
func (t *tracer) record(name string, parent int, op int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

// count is the number of spans recorded so far.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTime is one span name's aggregate: calls, total time and self time
// (span time minus the part of it covered by child spans).
type selfTime struct {
	Name        string
	Calls       int
	Total, Self time.Duration
}

// selfTimes aggregates spans by name, largest self time first.
func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	agg := map[string]*selfTime{}
	var names []string
	for i, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
			names = append(names, s.Name)
		}
		a.Calls++
		a.Total += s.End - s.Start
		a.Self += s.End - s.Start - covered(s, children[i], t.spans)
	}
	out := make([]selfTime, 0, len(names))
	for _, n := range names {
		out = append(out, *agg[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the child intervals, clipped to
// the parent. Children of one parent may overlap (the sweep pool runs
// replicas side by side), so a plain sum could exceed the parent.
func covered(parent span, kids []int, spans []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace. Each span goes on a lane
// (tid) where it nests inside the lane's open span, which must be its
// parent; overlapping siblings open further lanes, so every lane is a
// proper call stack.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End
	})
	var lanes [][]int // per lane, the stack of open span ids
	lane := make([]int, len(spans))
	// open pops the spans on lane l that ended by time at and returns the
	// rest of the stack.
	open := func(l int, at time.Duration) []int {
		st := lanes[l]
		for len(st) > 0 && spans[st[len(st)-1]].End <= at {
			st = st[:len(st)-1]
		}
		lanes[l] = st
		return st
	}
	for _, id := range order {
		s := spans[id]
		placed := -1
		if s.Parent >= 0 {
			l := lane[s.Parent]
			if st := open(l, s.Start); len(st) > 0 && st[len(st)-1] == s.Parent {
				placed = l
			}
		}
		for l := 0; placed < 0 && l < len(lanes); l++ {
			if len(open(l, s.Start)) == 0 {
				placed = l
			}
		}
		if placed < 0 {
			placed = len(lanes)
			lanes = append(lanes, nil)
		}
		lanes[placed] = append(lanes[placed], id)
		lane[id] = placed
	}
	events := make([]chromeEvent, 0, len(spans))
	for id, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: lane[id],
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": id, "parent": s.Parent, "op": s.Op},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// writeChromeFile writes the trace to path.
func (t *tracer) writeChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
