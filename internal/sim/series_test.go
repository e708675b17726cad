package sim

import (
	"math"
	"math/rand"
	"testing"
)

// firing is one logged event: its id and the clock when it ran.
type firing struct {
	id  int
	now float64
}

// schedOp is one scheduling call of a random schedule: a single At event
// (times == nil) or a run of events meant for Series.
type schedOp struct {
	at    float64
	times []float64
}

// childBase offsets the ids of events that callbacks schedule while running.
const childBase = 1 << 20

// randomSchedule builds one schedule mixing series with equal times, sorted
// series with ties, unsorted series longer than the insertion-sort cutoff
// of the standard sort (so an unstable sort would reorder their ties), and
// At events before, between and after them. Times come from a small grid so
// ties are common.
func randomSchedule(rng *rand.Rand) []schedOp {
	grid := func() float64 { return float64(rng.Intn(12)) / 2 }
	var ops []schedOp
	at := func() { ops = append(ops, schedOp{at: grid()}) }
	for k := rng.Intn(3); k > 0; k-- {
		at()
	}
	for s := 2 + rng.Intn(4); s > 0; s-- {
		n := 1 + rng.Intn(40)
		times := make([]float64, n)
		switch rng.Intn(3) {
		case 0: // equal times
			t := grid()
			for i := range times {
				times[i] = t
			}
		case 1: // nondecreasing with ties
			t := 0.0
			for i := range times {
				t += float64(rng.Intn(2)) / 2
				times[i] = t
			}
		default: // unsorted
			times = make([]float64, 13+rng.Intn(40))
			for i := range times {
				times[i] = grid()
			}
		}
		ops = append(ops, schedOp{times: times})
		for k := rng.Intn(3); k > 0; k-- {
			at()
		}
	}
	return ops
}

// runSchedule plays ops through a fresh simulator, as individual At calls
// or through Series, and returns the firing log and Steps. Callbacks react
// by id only, so both modes see the same reactions: some schedule a child
// at now (tying with later members of a series), some a child one second
// later, and one launches a nested series mid-run. The run advances in
// chunks, then drains.
func runSchedule(ops []schedOp, useSeries bool, chunks []float64) ([]firing, uint64) {
	s := New()
	var log []firing
	schedule := func(times []float64, fn func(i int)) {
		if useSeries {
			s.Series(len(times), func(i int) float64 { return times[i] }, fn)
			return
		}
		for i, t := range times {
			i := i
			s.At(t, func() { fn(i) })
		}
	}
	var fire func(id int)
	fire = func(id int) {
		log = append(log, firing{id, s.Now()})
		if id >= childBase {
			return
		}
		switch id % 7 {
		case 0, 3:
			s.At(s.Now(), func() { fire(childBase + id) })
		case 5:
			s.After(1, func() { fire(childBase + id) })
		}
		if id == 11 {
			now := s.Now()
			nested := []float64{now + 1, now, now + 0.5, now, now + 1}
			schedule(nested, func(i int) { fire(2*childBase + i) })
		}
	}
	id := 0
	for _, op := range ops {
		if op.times == nil {
			k := id
			s.At(op.at, func() { fire(k) })
			id++
			continue
		}
		base := id
		schedule(op.times, func(i int) { fire(base + i) })
		id += len(op.times)
	}
	for _, until := range chunks {
		s.Run(until)
	}
	s.RunAll()
	return log, s.Steps()
}

// TestSeriesMatchesAt is the oracle for Series: over random schedules, it
// must fire the same events at the same times, in the same order, as one At
// call per member made at the Series call.
func TestSeriesMatchesAt(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := randomSchedule(rng)
		var chunks []float64
		for until := 0.0; until < 12; until += float64(rng.Intn(4)) / 2 {
			chunks = append(chunks, until)
		}
		want, wantSteps := runSchedule(ops, false, chunks)
		got, gotSteps := runSchedule(ops, true, chunks)
		if gotSteps != wantSteps {
			t.Fatalf("seed %d: Steps = %d with Series, %d with At", seed, gotSteps, wantSteps)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d firings with Series, %d with At", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d = %+v with Series, %+v with At", seed, i, got[i], want[i])
			}
		}
	}
}

// TestSeriesPendingAndStop checks that a live series counts as one pending
// event, that Stop inside a member leaves its successor queued, and that an
// empty series schedules nothing.
func TestSeriesPendingAndStop(t *testing.T) {
	s := New()
	s.Series(0, func(int) float64 { return 0 }, func(int) { t.Fatal("empty series fired") })
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after an empty series", s.Pending())
	}
	var got []int
	s.Series(4, func(i int) float64 { return float64(i) }, func(i int) {
		got = append(got, i)
		if i == 1 {
			s.Stop()
		}
	})
	h := s.At(10, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2 (the series counts once)", s.Pending())
	}
	s.RunAll()
	if len(got) != 2 || s.Pending() != 2 {
		t.Fatalf("after Stop: fired %v, Pending = %d; want [0 1] and 2", got, s.Pending())
	}
	s.Run(2.5)
	if len(got) != 3 || s.Pending() != 2 || s.Now() != 2 {
		t.Fatalf("after Run(2.5): fired %v, Pending = %d, Now = %v", got, s.Pending(), s.Now())
	}
	s.RunAll()
	if len(got) != 4 || s.Pending() != 0 || h.Pending() {
		t.Fatalf("after RunAll: fired %v, Pending = %d", got, s.Pending())
	}
}

// TestSeriesRejectsBadTimes checks that Series panics, as At does, on a NaN
// time or one in the past, whichever member carries it.
func TestSeriesRejectsBadTimes(t *testing.T) {
	for _, c := range []struct {
		name string
		bad  float64
	}{{"nan", math.NaN()}, {"past", 4}} {
		name, bad := c.name, c.bad
		s := New()
		s.Run(5)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Series did not panic", name)
				}
			}()
			s.Series(3, func(i int) float64 {
				if i == 2 {
					return bad
				}
				return 6
			}, func(int) {})
		}()
	}
}
