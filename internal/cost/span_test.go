package cost

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"spotserve/internal/model"
)

func TestSpacing(t *testing.T) {
	cases := []struct {
		t  float64
		e  int
		ok bool
	}{
		{1, 1, true},
		{0.75, 0, true},
		{1000, 10, true},
		{1024, 11, true},
		{0x1p-1022, -1021, true},
		{math.MaxFloat64, 1024, true},
		{0, 0, false},
		{-1, 0, false},
		{0x1p-1030, 0, false}, // subnormal
		{math.Inf(1), 0, false},
		{math.NaN(), 0, false},
	}
	for _, c := range cases {
		u, ok := Spacing(c.t)
		if ok != c.ok || (ok && u != math.Ldexp(1, c.e-53)) {
			t.Errorf("Spacing(%v) = %v, %v; want 2^(%d-53), %v", c.t, u, ok, c.e, c.ok)
			continue
		}
		// Every float of the binade is a multiple of u, and u is its spacing.
		if ok && (math.Mod(c.t, u) != 0 || math.Nextafter(c.t, math.Inf(1))-c.t != u && c.t != math.MaxFloat64) {
			t.Errorf("Spacing(%v) = %v does not match the float grid", c.t, u)
		}
	}
}

func TestUnits(t *testing.T) {
	u := 0x1p-42
	cases := []struct {
		d  float64
		r  int64
		ok bool
	}{
		{0, 0, true},
		{2.4 * u, 2, true},
		{2.6 * u, 3, true},
		{2.5 * u, 2, false}, // a tie: the running sum's last bit decides
		{3.5 * u, 3, false},
		{0.25 * u, 0, true},
		{0.5 * u, 0, false},
		{(1<<52 - 1) * u, 1<<52 - 1, true},
		{0x1.fffffffffffffp51 * u, 1<<52 - 1, false}, // 2^52 − ½: a tie
		{0x1p52 * u, maxUnits, false},
		{-u, maxUnits, false},
		{math.NaN(), maxUnits, false},
		{math.Inf(1), maxUnits, false},
	}
	for _, c := range cases {
		r, ok := Units(c.d, u)
		if r != c.r || ok != c.ok {
			t.Errorf("Units(%v·u) = %d, %v; want %d, %v", c.d/u, r, ok, c.r, c.ok)
		}
	}
}

// TestUnitsIsTheRoundedSum pins the identity the span tables rest on: for
// every float x of u's binade and a step d that is not a tie, x + d rounds
// to x + u·Units(d, u) as long as the sum stays in the binade.
func TestUnitsIsTheRoundedSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		e := rng.Intn(40) - 10
		x := math.Ldexp(1+rng.Float64(), e-1) // in [2^(e-1), 2^e)
		u, _ := Spacing(x)
		d := math.Ldexp(rng.Float64(), e-1-rng.Intn(30))
		if i%5 == 0 { // a step that is a multiple of u/2: ties and exact steps
			d = float64(rng.Intn(1<<20)) * u / 2
		}
		r, ok := Units(d, u)
		sum := x + d
		if !ok || sum >= math.Ldexp(1, e) {
			continue
		}
		if want := x + float64(u*float64(r)); sum != want {
			t.Fatalf("x=%x d=%x: x+d = %x, x + u·Units = %x", x, d, sum, want)
		}
	}
}

// unitsDirect sums Units over [lo, hi] one length at a time, the way the
// tables must (false on a tie or an unusable step).
func unitsDirect(e *Estimator, P, M, B int, scale, u float64, lo, hi int) (int64, bool) {
	var k int64
	for l := lo; l <= hi; l++ {
		r, ok := Units(float64(e.DecodeIter(P, M, B, l)*scale), u)
		if !ok {
			return 0, false
		}
		k += r
	}
	return k, true
}

// spanRequest is one SpanUnits call.
type spanRequest struct {
	p, m, b int
	scale   float64
	u       float64 // the binade's spacing
	lo, hi  int
	budget  int64
}

// spanRequests draws overlapping requests over a few shapes, slowdowns and
// binades: ranges that extend tables up and down, leave gaps, repeat, and
// budgets that cut growth short.
func spanRequests(seed int64, n int) []spanRequest {
	rng := rand.New(rand.NewSource(seed))
	shapes := [][2]int{{1, 1}, {1, 4}, {2, 8}, {3, 4}}
	scales := []float64{1, 1.25, 1 / 0.7}
	out := make([]spanRequest, n)
	for i := range out {
		s := shapes[rng.Intn(len(shapes))]
		lo := 400 + rng.Intn(400)
		u := math.Ldexp(1, rng.Intn(16)-55)
		budget := int64(1) << 52
		if rng.Intn(3) == 0 {
			budget = rng.Int63n(1 << 50)
		}
		out[i] = spanRequest{s[0], s[1], 1 + rng.Intn(8), scales[rng.Intn(len(scales))],
			u, lo, lo + rng.Intn(200), budget}
	}
	return out
}

// checkSpanRequest compares one SpanUnits answer with the direct sums: an
// ok answer must give every partial sum over [lo, hi] exactly, and a refusal
// needs a tie among the lengths or a sum above the budget.
func checkSpanRequest(e *Estimator, q spanRequest) error {
	u := q.u
	pre, ok := e.SpanUnits(q.p, q.m, q.b, q.scale, q.u, q.lo, q.hi, q.budget)
	if !ok {
		if k, direct := unitsDirect(e, q.p, q.m, q.b, q.scale, u, q.lo, q.hi); direct && k <= q.budget {
			return fmt.Errorf("%+v refused, but the direct sum %d fits the budget with no tie", q, k)
		}
		return nil
	}
	for l := q.lo; l <= q.hi; l++ {
		want, direct := unitsDirect(e, q.p, q.m, q.b, q.scale, u, q.lo, l)
		if got := pre.At(l+1) - pre.At(q.lo); !direct || got != want {
			return fmt.Errorf("%+v: sum over [%d, %d] = %d, direct %d (usable %v)", q, q.lo, l, got, want, direct)
		}
	}
	if k := pre.At(q.hi+1) - pre.At(q.lo); k > q.budget {
		return fmt.Errorf("%+v served, but its sum %d exceeds the budget", q, k)
	}
	return nil
}

// TestSpanUnitsKeepsTiesWhenLowered builds a tie on purpose — the spacing
// twice the lowest set bit of δ(L) makes δ(L)/u an odd multiple of ½ — and
// checks that ranges holding L are refused before and after the table is
// rebuilt to start lower, while ranges beside it are served.
func TestSpanUnitsKeepsTiesWhenLowered(t *testing.T) {
	e := est(t, model.OPT6B7)
	const budget = 1 << 62
	for L := 600; L < 700; L++ {
		d := e.DecodeIter(1, 4, 1, L)
		u := math.Ldexp(1, -1074) // the lowest set bit of d, doubled below
		for math.Mod(d, 2*u) == 0 {
			u *= 2
		}
		u *= 2
		if _, ok := Units(d, u); ok {
			t.Fatalf("δ(%d)/u = %v is not a tie", L, d/u)
		}
		clean := true // the neighbours are usable steps
		for l := L - 30; l <= L+10; l++ {
			if _, ok := Units(e.DecodeIter(1, 4, 1, l), u); !ok && l != L {
				clean = false
			}
		}
		if !clean {
			continue
		}
		for i, q := range []struct {
			lo, hi int
			ok     bool
		}{{L - 10, L + 10, false}, {L - 30, L - 20, true}, {L - 5, L + 5, false}, {L + 1, L + 10, true}, {L, L, false}} {
			if _, ok := e.SpanUnits(1, 4, 1, 1, u, q.lo, q.hi, budget); ok != q.ok {
				t.Fatalf("L=%d request %d [%d, %d]: ok %v, want %v", L, i, q.lo, q.hi, ok, q.ok)
			}
			if err := checkSpanRequest(e, spanRequest{1, 4, 1, 1, u, q.lo, q.hi, budget}); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	t.Fatal("no length in [600, 700) with usable neighbours around its tie")
}

// TestSpanUnitsSaturates grows a table across more than 2^11 lengths whose
// steps are just under 2^52 units, so its prefix sums pass MaxInt64: a
// request over the saturated part must be refused, not answered with the
// difference of two saturated sums.
func TestSpanUnitsSaturates(t *testing.T) {
	e := est(t, model.OPT6B7)
	const lo, far = 500, 6000
	_, exp := math.Frexp(e.DecodeIter(1, 1, 1, far))
	u := math.Ldexp(1, exp-52) // δ/u in [2^51, 2^52) at far, and δ grows with the length
	if r, ok := Units(e.DecodeIter(1, 1, 1, lo), u); !ok || r < 1<<50 {
		t.Fatalf("steps fall below 2^50 units after length %d; pick another shape", lo)
	}
	if _, ok := e.SpanUnits(1, 1, 1, 1, u, lo, lo, 1<<52); !ok {
		t.Fatal("one step refused")
	}
	// The first request fills the table up to far; the second reads two
	// entries it already holds, both saturated.
	for _, q := range []spanRequest{{1, 1, 1, 1, u, far, far + 1, 1 << 52}, {1, 1, 1, 1, u, far - 1, far - 1, 1 << 52}} {
		if pre, ok := e.SpanUnits(q.p, q.m, q.b, q.scale, q.u, q.lo, q.hi, q.budget); ok || pre.At(far) != math.MaxInt64 {
			t.Fatalf("%+v: served %v over a saturated prefix (At(%d) = %d)", q, ok, far, pre.At(far))
		}
	}
}

func TestSpanUnitsMatchesDirectSums(t *testing.T) {
	memo := est(t, model.GPT20B)
	fresh := &Estimator{Params: DefaultParams(), Spec: model.GPT20B}
	var handed []UnitPrefix
	var snap [][]int64
	reqs := spanRequests(1, 600)
	served := 0
	for i, q := range reqs {
		for _, e := range []*Estimator{memo, fresh} {
			if err := checkSpanRequest(e, q); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		}
		pre, ok := memo.SpanUnits(q.p, q.m, q.b, q.scale, q.u, q.lo, q.hi, q.budget)
		if ok {
			served++
		}
		handed = append(handed, pre)
		snap = append(snap, append([]int64(nil), pre.Sum...))
	}
	if served < len(reqs)/4 || served > len(reqs)*3/4 {
		t.Fatalf("%d of %d requests served in closed form; the draw should exercise both answers", served, len(reqs))
	}
	// Growing a table never rewrites what an earlier caller holds.
	for i, pre := range handed {
		for j, v := range pre.Sum {
			if v != snap[i][j] {
				t.Fatalf("prefix %d entry %d changed from %d to %d", i, j, snap[i][j], v)
			}
		}
	}
}

// TestDecodeMemoCoversLengthsUsed pins the rebased DecodeIter memo: values
// equal the unmemoized model whichever way the table grew (up, down, across
// gaps), slices DecodeRange handed out never change, and the table holds
// only the lengths asked for.
func TestDecodeMemoCoversLengthsUsed(t *testing.T) {
	e := est(t, model.LLaMA30B)
	rng := rand.New(rand.NewSource(3))
	var handed [][]float64
	var snap [][]float64
	for i := 0; i < 300; i++ {
		B := 1 + rng.Intn(4)
		lo := 300 + rng.Intn(500)
		hi := lo + rng.Intn(100)
		if i%3 == 0 {
			if got, want := e.DecodeIter(2, 4, B, lo), e.decodeIterRaw(2, 4, B, lo); got != want {
				t.Fatalf("DecodeIter(%d, %d) = %v, raw %v", B, lo, got, want)
			}
			continue
		}
		r := e.DecodeRange(2, 4, B, lo, hi)
		for j, v := range r {
			if want := e.decodeIterRaw(2, 4, B, lo+j); v != want {
				t.Fatalf("DecodeRange(%d, %d..%d)[%d] = %v, raw %v", B, lo, hi, j, v, want)
			}
		}
		handed = append(handed, r)
		snap = append(snap, append([]float64(nil), r...))
	}
	for i, r := range handed {
		for j := range r {
			if r[j] != snap[i][j] {
				t.Fatalf("DecodeRange slice %d changed at %d", i, j)
			}
		}
	}
	for key, tab := range e.memo.decode {
		if tab.lo < 300 || tab.lo+len(tab.v) > 900 {
			t.Errorf("%v: table covers [%d, %d), want within the lengths asked for", key, tab.lo, tab.lo+len(tab.v))
		}
	}
}

// TestConcurrentSpanUnitsMatchesSerial shares one estimator between
// goroutines that build and read span tables and DecodeRange slices for
// overlapping shapes at once; every answer must equal a serial run on a
// fresh estimator. Under `make race-engine` this is the race gate for the
// process-wide tables the sweep workers share.
func TestConcurrentSpanUnitsMatchesSerial(t *testing.T) {
	reqs := spanRequests(2, 400)
	answer := func(e *Estimator, q spanRequest) string {
		var b strings.Builder
		pre, ok := e.SpanUnits(q.p, q.m, q.b, q.scale, q.u, q.lo, q.hi, q.budget)
		fmt.Fprintf(&b, "%v", ok)
		if ok {
			for l := q.lo; l <= q.hi+1; l++ {
				fmt.Fprintf(&b, " %d", pre.At(l)-pre.At(q.lo))
			}
		}
		for _, v := range e.DecodeRange(q.p, q.m, q.b, q.lo, q.hi) {
			fmt.Fprintf(&b, " %x", v)
		}
		return b.String()
	}
	serial := est(t, model.GPT20B)
	want := make([]string, len(reqs))
	for i, q := range reqs {
		want[i] = answer(serial, q)
	}

	shared := est(t, model.GPT20B)
	const workers = 4
	errs := make(chan error, workers*len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Goroutines start at different requests, so overlapping
			// tables grow (up and down) while others read them.
			for r := range reqs {
				i := (r + w*len(reqs)/workers) % len(reqs)
				if got := answer(shared, reqs[i]); got != want[i] {
					errs <- fmt.Errorf("goroutine %d, request %d %+v: %s, serial %s", w, i, reqs[i], got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
