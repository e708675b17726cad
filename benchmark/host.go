package main

import (
	"slices"
	"time"
)

// The benchmark's reference machine is a shared VM whose speed drifts by
// ±20% over seconds as other tenants come and go, more than any bound a
// comparison could use. So every timing metric is host-normalized: the
// measured time divided by the host's slowdown during the run. The slowdown
// is read from a calibration unit, a fixed piece of CPU and cache work that
// calls no code of the repository, run between ops for about 3% of the
// run: the mean unit time over calNominal. A code change cannot move the
// unit; a slow host moves both. The unit allocates nothing and touches no
// pointers, so the garbage collector's state does not move it, and it runs
// twice with only the second run timed, so the cache state an op leaves
// behind does not move it either. The units are spread evenly in time, so
// their mean also counts the stalls in which the hypervisor takes the CPU
// away, which slow the ops as much.
const (
	// calKeys is the unit's working set (16 KB of keys, 8 KB of table).
	calKeys      = 4096
	calTableBits = 11
	// calNominal is about the unit's mean time on the reference machine;
	// it only scales normalized times back to roughly that machine's
	// seconds.
	calNominal = 300 * time.Microsecond
	// calEvery is the op time between calibration units.
	calEvery = 20 * time.Millisecond
	// calBurst is how many units run before and after each timed set-up.
	calBurst = 8
)

// hostMeter runs calibration units and keeps their times.
type hostMeter struct {
	keys, table []uint32
	last        time.Time
	slow        []float64 // per unit: its time / calNominal
	sink        uint32
}

func newHostMeter() *hostMeter {
	return &hostMeter{keys: make([]uint32, calKeys), table: make([]uint32, 1<<calTableBits), last: time.Now()}
}

// unit runs one calibration unit and records its time.
func (h *hostMeter) unit() {
	h.work()
	t := time.Now()
	h.work()
	d := time.Since(t)
	h.slow = append(h.slow, float64(d)/float64(calNominal))
	h.last = time.Now()
}

// work fills the keys from a fixed xorshift sequence, sorts them, and
// counts them into a hash table.
func (h *hostMeter) work() {
	x := uint32(2463534242)
	for i := range h.keys {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		h.keys[i] = x
	}
	slices.Sort(h.keys)
	clear(h.table)
	for _, k := range h.keys {
		h.table[(k*2654435761)>>(32-calTableBits)]++
	}
	h.sink += h.table[x>>(32-calTableBits)]
}

// tick runs one unit per calEvery elapsed since the last one, so the units
// sample the host evenly in time however long the ops between them take.
func (h *hostMeter) tick() {
	for n := time.Since(h.last) / calEvery; n > 0; n-- {
		h.unit()
	}
}

// burst runs calBurst units.
func (h *hostMeter) burst() {
	for i := 0; i < calBurst; i++ {
		h.unit()
	}
}

// slowdown is the mean unit time over calNominal since the meter was made:
// above 1 the host ran slower than the reference machine usually does.
func (h *hostMeter) slowdown() float64 {
	if len(h.slow) == 0 {
		h.unit()
	}
	return mean(h.slow)
}
