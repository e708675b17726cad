// Package sim provides a deterministic discrete-event simulation kernel.
//
// Virtual time is measured in float64 seconds starting at zero. Events are
// executed in nondecreasing time order; events scheduled for the same instant
// run in scheduling order (stable FIFO tie-break), which keeps every
// simulation fully deterministic. The queue is a binary min-heap on the total
// order (time, sequence number), so its pop sequence is fully determined.
//
// Series schedules a run of n events with one call: it reserves their n
// sequence numbers at once but holds only the next of them in the queue, and
// each member queues its successor when it fires. The events fire exactly as
// n At calls made at the Series call would, and a live series counts as one
// pending event.
//
// The kernel is allocation-free on the steady-state hot path: event items are
// recycled through a free list, cancelled events are removed from the heap
// eagerly (no dead items linger until popped), and Pending is O(1).
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Event is a callback scheduled to run at a virtual time.
type Event func()

// item is a scheduled event inside the queue. Items are pooled: once an item
// fires or is cancelled it returns to the simulator's free list and its
// generation counter advances, invalidating stale Handles.
type item struct {
	at    float64
	seq   uint64
	fn    Event
	index int
	gen   uint64
	owner *Simulator
}

// before is the queue order: by time, then by sequence number.
func (a *item) before(b *item) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a binary min-heap of items ordered by before. Every item
// records its slot in index, so any item can be removed in O(log n).
type eventQueue []*item

// up fills the hole at slot i with it, moving ancestors that it precedes
// down one level each.
func (q eventQueue) up(i int, it *item) {
	for i > 0 {
		p := (i - 1) / 2
		parent := q[p]
		if !it.before(parent) {
			break
		}
		q[i] = parent
		parent.index = i
		i = p
	}
	q[i] = it
	it.index = i
}

// down fills the hole at slot i with it, moving the earlier child up one
// level while that child precedes it.
func (q eventQueue) down(i int, it *item) {
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		child := q[c]
		if !child.before(it) {
			break
		}
		q[i] = child
		child.index = i
		i = c
	}
	q[i] = it
	it.index = i
}

// Handle identifies a scheduled event so it can be cancelled. A Handle stays
// valid forever: once its event has fired or been cancelled, the underlying
// item's generation moves on and the Handle simply reports not-pending.
type Handle struct {
	it  *item
	gen uint64
}

// Cancel removes the event from the queue if it has not fired yet.
// It reports whether the event was still pending. Cancellation is eager:
// the item leaves the heap immediately (O(log n)) instead of lingering as a
// dead entry until popped, so mass cancellation cannot grow the queue.
func (h Handle) Cancel() bool {
	it := h.it
	if it == nil || it.gen != h.gen || it.index < 0 {
		return false
	}
	s := it.owner
	s.remove(it.index)
	s.release(it)
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (h Handle) Pending() bool {
	return h.it != nil && h.it.gen == h.gen && h.it.index >= 0
}

// Simulator owns the virtual clock and the event queue.
type Simulator struct {
	now     float64
	seq     uint64
	queue   eventQueue
	free    []*item
	slab    []item
	stopped bool
	steps   uint64
}

// slabSize is the bump-allocation chunk for cold-path item creation: a
// burst of scheduling costs O(events/slabSize) allocations instead of one
// per event.
const slabSize = 64

// New returns a simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Steps returns the number of events executed so far.
func (s *Simulator) Steps() uint64 { return s.steps }

// alloc takes an item from the free list (or the allocator on a cold path).
func (s *Simulator) alloc() *item {
	if n := len(s.free); n > 0 {
		it := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return it
	}
	if len(s.slab) == 0 {
		s.slab = make([]item, slabSize)
	}
	it := &s.slab[0]
	s.slab = s.slab[1:]
	it.owner = s
	it.index = -1
	return it
}

// release recycles an item: the generation bump invalidates every Handle
// still pointing at it before it re-enters the free list.
func (s *Simulator) release(it *item) {
	it.gen++
	it.fn = nil
	it.index = -1
	s.free = append(s.free, it)
}

// push queues fn at time t under sequence number seq.
func (s *Simulator) push(t float64, seq uint64, fn Event) *item {
	it := s.alloc()
	it.at, it.seq, it.fn = t, seq, fn
	s.queue = append(s.queue, nil)
	s.queue.up(len(s.queue)-1, it)
	return it
}

// remove takes the item at slot i out of the heap, refilling the hole with
// the last item. The caller releases the removed item.
func (s *Simulator) remove(i int) {
	n := len(s.queue) - 1
	last := s.queue[n]
	s.queue[n] = nil
	s.queue = s.queue[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(s.queue[(i-1)/2]) {
		s.queue.up(i, last)
	} else {
		s.queue.down(i, last)
	}
}

// checkTime panics on a time that cannot be scheduled: scheduling at NaN or
// in the past indicates a logic error in the model.
func (s *Simulator) checkTime(t float64) {
	if math.IsNaN(t) {
		panic("sim: schedule at NaN time")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %.6f which is before now %.6f", t, s.now))
	}
}

// At schedules fn to run at absolute virtual time t.
// Scheduling in the past panics: it indicates a logic error in the model.
func (s *Simulator) At(t float64, fn Event) Handle {
	s.checkTime(t)
	it := s.push(t, s.seq, fn)
	s.seq++
	return Handle{it: it, gen: it.gen}
}

// After schedules fn to run delay seconds from now. Negative delays are
// clamped to zero so that tiny floating-point underruns do not panic.
func (s *Simulator) After(delay float64, fn Event) Handle {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now+delay, fn)
}

// Series schedules n events: event i runs fn(i) at time at(i). They fire
// exactly as n At calls made now in index order would — by time, ties in
// index order, and interleaved with every other event by the sequence
// numbers those calls would have taken, which Series reserves now — for
// any order of the times. Only the next event of the series is held in the
// queue; it queues its successor when it fires. at must be a pure function
// of i: Series reads every time now and reads each again when that event is
// queued. Series events return no Handle and cannot be cancelled. Like At,
// Series panics on a NaN time or one before now.
func (s *Simulator) Series(n int, at func(i int) float64, fn func(i int)) {
	if n <= 0 {
		return
	}
	sorted := true
	prev := math.Inf(-1)
	for i := 0; i < n; i++ {
		t := at(i)
		s.checkTime(t)
		if t < prev {
			sorted = false
		}
		prev = t
	}
	sr := &series{sim: s, at: at, fn: fn, base: s.seq, n: n}
	s.seq += uint64(n)
	if !sorted {
		// The firing order of unsorted times: a stable sort keeps equal
		// times in index order, as their sequence numbers would.
		sr.order = make([]int, n)
		for i := range sr.order {
			sr.order[i] = i
		}
		slices.SortStableFunc(sr.order, func(a, b int) int { return cmp.Compare(at(a), at(b)) })
	}
	sr.step = sr.fire
	sr.queueNext()
}

// series is the state of one Series call. Its members fire in (at(i), i)
// order; order lists them in that order, or is nil when the times are
// nondecreasing. next is the position in that order of the queued member.
type series struct {
	sim   *Simulator
	at    func(i int) float64
	fn    func(i int)
	order []int
	base  uint64
	n     int
	next  int
	step  Event
}

// member returns the index of the member at position k of the firing order.
func (sr *series) member(k int) int {
	if sr.order == nil {
		return k
	}
	return sr.order[k]
}

// queueNext queues the member at position next under its reserved sequence
// number.
func (sr *series) queueNext() {
	i := sr.member(sr.next)
	sr.sim.push(sr.at(i), sr.base+uint64(i), sr.step)
}

// fire runs the queued member after queueing its successor, so the series
// stays in the queue even if fn stops the run.
func (sr *series) fire() {
	i := sr.member(sr.next)
	if sr.next++; sr.next < sr.n {
		sr.queueNext()
	}
	sr.fn(i)
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events until the queue is empty or virtual time would exceed
// until. It returns the virtual time at which it stopped.
func (s *Simulator) Run(until float64) float64 {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		it := s.queue[0]
		if it.at > until {
			break
		}
		s.remove(0)
		s.now = it.at
		s.steps++
		fn := it.fn
		// Recycle before running: fn may schedule new events, and a fired
		// event's Handle must already read as not-pending inside fn.
		s.release(it)
		fn()
	}
	if s.now < until && len(s.queue) == 0 && !math.IsInf(until, 1) {
		// Advance to the horizon so repeated Run calls are monotonic.
		s.now = until
	}
	return s.now
}

// RunAll executes events until the queue drains (or Stop is called).
func (s *Simulator) RunAll() float64 {
	return s.Run(math.Inf(1))
}

// Pending returns the number of queued events in O(1). Cancelled events are
// removed eagerly, so the heap holds exactly the live events — except that
// a live series holds only its next event, so it counts as one.
func (s *Simulator) Pending() int {
	return len(s.queue)
}
