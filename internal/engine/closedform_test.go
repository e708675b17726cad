package engine

import (
	"math"
	"math/rand"
	"testing"

	"spotserve/internal/config"
	"spotserve/internal/cost"
	"spotserve/internal/model"
)

// Closed-form span times against the sequential loop they replace. Every
// check is bit for bit (math.Float64bits), over segment ends, every interior
// boundary, and the bisection sync runs; and the closed form must be taken
// exactly when it is exact: no length of the segment is a tie and the loop
// ends inside the start's binade.

// loopSpan returns a segment's boundary times the way per-iteration
// stepping produces them: t_k = t_{k-1} + δ(max(la+k, ld)).
func loopSpan(t0 float64, delta func(l int) float64, la, ld, n int) []float64 {
	out := make([]float64, n)
	cur := t0
	for k := range out {
		l := la + k
		if ld > l {
			l = ld
		}
		cur += delta(l)
		out[k] = cur
	}
	return out
}

// segLengths returns the lengths [lo, hi] a segment's iterations run at.
func segLengths(la, ld, n int) (lo, hi int) {
	return max(la, ld), max(ld, la+n-1)
}

// closedExpected reports whether the closed form must hold: t0 is a normal
// float, no length in [lo, hi] is a tie, and the loop stays in t0's binade.
func closedExpected(t0 float64, delta func(int) float64, lo, hi int, loop []float64) bool {
	u, ok := cost.Spacing(t0)
	if !ok || loop[len(loop)-1] >= math.Ldexp(u, 53) {
		return false
	}
	for l := lo; l <= hi; l++ {
		if _, ok := cost.Units(delta(l), u); !ok {
			return false
		}
	}
	return true
}

// checkSeg compares a closed-form segment's boundaries, end and sync
// bisection with the loop's times.
func checkSeg(t *testing.T, p *Pipeline, s *ffSeg, loop []float64) {
	t.Helper()
	for j := 1; j <= s.n; j++ {
		if got := p.boundary(s, j); math.Float64bits(got) != math.Float64bits(loop[j-1]) {
			t.Fatalf("boundary %d of %d: closed form %x, loop %x", j, s.n, got, loop[j-1])
		}
	}
	if math.Float64bits(s.stop) != math.Float64bits(loop[s.n-1]) {
		t.Fatalf("end: closed form %x, loop %x", s.stop, loop[s.n-1])
	}
	// sync at, just before and just after each boundary commits exactly
	// the boundaries the loop's times have passed.
	for j := 0; j < s.n; j++ {
		for _, now := range []float64{math.Nextafter(loop[j], 0), loop[j], math.Nextafter(loop[j], math.Inf(1))} {
			if now < s.start || now > s.stop {
				continue
			}
			want := 0
			for want < s.n-1 && loop[want] <= now {
				want++
			}
			if got := p.passed(s, 0, now); got != want {
				t.Fatalf("passed at %x = %d, loop %d", now, got, want)
			}
		}
	}
}

// spanShape is one estimator and pipeline shape the real-model checks use.
type spanShape struct {
	est  *cost.Estimator
	P, M int
}

func spanShapes() []spanShape {
	var out []spanShape
	for _, c := range []struct {
		spec model.Spec
		P, M int
	}{{model.OPT6B7, 1, 4}, {model.GPT20B, 2, 8}, {model.GPT20B, 3, 4}, {model.LLaMA30B, 2, 8}, {model.LLaMA30B, 4, 4}} {
		out = append(out, spanShape{cost.NewEstimator(cost.DefaultParams(), c.spec), c.P, c.M})
	}
	return out
}

// checkReal prices one segment of a real shape both ways through the
// engine's own planning code. It returns whether the closed form was taken.
func checkReal(t *testing.T, sh spanShape, B int, slowdown, t0 float64, la, ld, n int) bool {
	t.Helper()
	p := &Pipeline{eng: &Engine{Est: sh.est}, Cfg: config.Config{D: 1, P: sh.P, M: sh.M, B: B}}
	p.SetSlowdown(slowdown)
	delta := func(l int) float64 { return p.scaled(sh.est.DecodeIter(sh.P, sh.M, B, l)) }
	lo, hi := segLengths(la, ld, n)
	loop := loopSpan(t0, delta, la, ld, n)
	s := ffSeg{end: n, bsz: B, n: n, la: la, ld: ld, start: t0}
	got := p.closedForm(&s, lo, hi)
	if want := closedExpected(t0, delta, lo, hi, loop); got != want {
		t.Fatalf("t0=%x B=%d slowdown=%v la=%d ld=%d n=%d: closed form taken %v, want %v", t0, B, slowdown, la, ld, n, got, want)
	}
	if got {
		checkSeg(t, p, &s, loop)
	}
	return got
}

// checkSynthetic runs the closed form over a synthetic δ table — steps
// drawn around the binade's spacing, with forced ties and sums that cross
// the binade — through the same prefix arithmetic the engine uses. It
// returns whether the closed form applied.
func checkSynthetic(t *testing.T, t0 float64, rng *rand.Rand, la, ld, n int) bool {
	t.Helper()
	u, ok := cost.Spacing(t0)
	if !ok {
		return false
	}
	lo, hi := segLengths(la, ld, n)
	// Steps of up to about twice the room left in the binade, over the
	// segment's iterations, so some segments cross and some do not.
	room := (math.Ldexp(u, 53) - t0) / u
	scale := 2 * room / float64(n)
	deltas := make([]float64, hi-lo+1)
	for i := range deltas {
		r := math.Floor(rng.Float64() * scale)
		switch rng.Intn(8) {
		case 0:
			deltas[i] = (r + 0.5) * u // a tie
		case 1:
			deltas[i] = r * u // an exact multiple
		default:
			deltas[i] = float64(rng.Float64()*scale) * u
		}
	}
	delta := func(l int) float64 { return deltas[l-lo] }
	pre := cost.UnitPrefix{Lo: lo, Sum: make([]int64, hi-lo+2)}
	tie := false
	for l := lo; l <= hi; l++ {
		r, ok := cost.Units(delta(l), u)
		tie = tie || !ok
		pre.Sum[l-lo+1] = pre.Sum[l-lo] + r
	}
	loop := loopSpan(t0, delta, la, ld, n)
	want := closedExpected(t0, delta, lo, hi, loop)
	if tie {
		if want {
			t.Fatalf("a tie among the lengths, yet the closed form is expected")
		}
		return false
	}
	k, got := unitsAfter(pre, la, ld, n, 1<<53-1-int64(t0/u))
	if got != want {
		t.Fatalf("t0=%x la=%d ld=%d n=%d: closed form applies %v (K_n=%d), want %v", t0, la, ld, n, got, k, want)
	}
	if got {
		p := &Pipeline{}
		s := ffSeg{end: n, n: n, la: la, ld: ld, start: t0, units: pre, u: u, stop: spanTime(t0, u, k)}
		checkSeg(t, p, &s, loop)
	}
	return got
}

// TestSpanClosedFormMatchesLoop is the oracle: random starts in every
// binade from 2^-8 to 2^24 s, five model shapes, every batch size, four
// slowdowns, plateau (ld > la) and plain segments; then synthetic δ tables
// with forced ties and binade crossings. Both the closed form and the
// fallback must be exercised.
func TestSpanClosedFormMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := spanShapes()
	slowdowns := []float64{1, 1 / 0.7, 1.25, 3}
	taken, refused := 0, 0
	for e := -8; e <= 24; e++ {
		for i := 0; i < 24; i++ {
			t0 := math.Ldexp(1+rng.Float64(), e-1)
			if i == 0 {
				t0 = math.Ldexp(1, e-1) // the binade's bottom
			}
			la := 1 + rng.Intn(1500)
			ld := 0
			if rng.Intn(3) == 0 {
				ld = la + rng.Intn(200)
			}
			n := 1 + rng.Intn(300)
			sh := shapes[rng.Intn(len(shapes))]
			if checkReal(t, sh, 1+rng.Intn(8), slowdowns[rng.Intn(len(slowdowns))], t0, la, ld, n) {
				taken++
			} else {
				refused++
			}
		}
	}
	if taken == 0 || refused == 0 {
		t.Fatalf("real shapes: closed form taken %d times, refused %d; both must occur", taken, refused)
	}
	taken, refused = 0, 0
	for i := 0; i < 3000; i++ {
		t0 := math.Ldexp(1+rng.Float64(), rng.Intn(60)-20)
		la := 1 + rng.Intn(200)
		ld := 0
		if rng.Intn(3) == 0 {
			ld = la + rng.Intn(50)
		}
		if checkSynthetic(t, t0, rng, la, ld, 1+rng.Intn(200)) {
			taken++
		} else {
			refused++
		}
	}
	if taken == 0 || refused == 0 {
		t.Fatalf("synthetic tables: closed form applied %d times, refused %d; both must occur", taken, refused)
	}
}

// FuzzSpanClosedForm decodes its input into a segment — start time (a
// binade and a mantissa), shape, batch size, slowdown, la, ld and n — and
// checks the closed form against the loop bit for bit, through the
// engine's planning code on a real model or, when synthetic is set, over a
// synthetic δ table with forced ties drawn from seed.
func FuzzSpanClosedForm(f *testing.F) {
	f.Add(false, int8(10), uint64(0x8000000000000), uint8(0), uint16(0), uint16(513), uint16(0), uint16(127), int64(0))
	f.Add(false, int8(11), uint64(0xfffffffffff00), uint8(0x21), uint16(429), uint16(600), uint16(640), uint16(90), int64(0))
	f.Add(false, int8(3), uint64(1), uint8(0x73), uint16(250), uint16(513), uint16(0), uint16(128), int64(0))
	f.Add(true, int8(7), uint64(0x1234567890abc), uint8(0), uint16(0), uint16(40), uint16(55), uint16(100), int64(42))
	f.Add(true, int8(-4), uint64(0), uint8(0), uint16(0), uint16(1), uint16(0), uint16(1), int64(7))
	shapes := spanShapes()
	f.Fuzz(func(t *testing.T, synthetic bool, exp int8, mant uint64, shape uint8, slow uint16, la, ld, n uint16, seed int64) {
		t0 := math.Ldexp(1+float64(mant&(1<<52-1))/(1<<52), int(exp)-1)
		la16, n16 := 1+int(la%2048), 1+int(n%1024)
		ld16 := int(ld % 3072)
		if ld16 > la16+1024 {
			ld16 = la16 + 1024
		}
		if synthetic {
			checkSynthetic(t, t0, rand.New(rand.NewSource(seed)), la16, ld16, n16)
			return
		}
		sh := shapes[int(shape)%len(shapes)]
		slowdown := 1 + float64(slow)/1000
		checkReal(t, sh, 1+int(shape>>4)%8, slowdown, t0, la16, ld16, n16)
	})
}

// BenchmarkSpanPlan plans the whole remaining life of a batch starting at
// t = 1000 s: one fresh request (a single 127-iteration segment, the
// average od-steady segment), or eight requests with staggered progress
// (eight segments of 16 iterations on average). Warm reuses one estimator,
// so its tables are filled once; cold plans on a fresh estimator every
// time, so each plan also fills the DecodeIter memo and the prefix tables
// it reads.
func BenchmarkSpanPlan(b *testing.B) {
	for _, bt := range []struct {
		name      string
		committed []int
	}{
		{"1x127", []int{1}},
		{"8x16", []int{1, 12, 23, 34, 45, 56, 67, 78}},
	} {
		for _, mode := range []string{"warm", "cold"} {
			b.Run(bt.name+"/"+mode, func(b *testing.B) {
				f := newFixture(b, model.GPT20B, 4)
				f.sim.At(1000, func() {})
				f.sim.RunAll()
				cfg := config.Config{D: 1, P: 2, M: 8, B: 8}
				p, err := f.eng.NewPipeline(0, cfg, f.bind(0, cfg))
				if err != nil {
					b.Fatal(err)
				}
				batch := mkBatch(len(bt.committed), 512, 128)
				for i, r := range batch.Requests {
					r.Committed = bt.committed[i]
				}
				p.batch = batch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "cold" {
						f.eng.Est = cost.NewEstimator(cost.DefaultParams(), model.GPT20B)
					}
					p.buildSpan()
				}
			})
		}
	}
}
