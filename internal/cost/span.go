package cost

import (
	"math"
	"sort"
)

// Closed-form span times.
//
// The engine commits a fast-forward segment's iteration boundaries at the
// running float sums t_k = t_{k-1} + δ(len_k), starting from t0 > 0. Inside
// t0's binade [2^(e-1), 2^e) every float64 is a multiple of the spacing
// u = 2^(e-53), so each addition rounds δ to a multiple of u independently of
// the running sum — unless δ/u is a tie (fractional part exactly ½), which
// the sum's last bit breaks. With no tie and a final sum below 2^e,
//
//	t_k = t0 + u·Σ_{i≤k} rne(δ(len_i)/u)
//
// exactly: an integer sum scaled by a power of two, which no rounding (and
// no fused multiply-add) can change. SpanUnits keeps prefix sums of
// rne(δ/u) over sequence length, so a segment's end time costs two table
// reads whatever its length.

// Spacing returns the spacing u = 2^(e-53) of the float64 values in t's
// binade [2^(e-1), 2^e); t/u is then an integer in [2^52, 2^53). ok is
// false unless t is a positive, finite, normal float64.
func Spacing(t float64) (u float64, ok bool) {
	x := int(math.Float64bits(t) >> 52) // sign and biased exponent e+1022
	if x == 0 || x >= 0x7ff {           // zero or subnormal; Inf, NaN or negative
		return 0, false
	}
	if x > 52 {
		return math.Float64frombits(uint64(x-52) << 52), true
	}
	return math.Ldexp(1, x-1075), true // u is subnormal
}

// maxUnits bounds one step: a float of u's binade is at least 2^52·u and
// below 2^53·u, so no step of 2^52 units or more stays inside the binade.
const maxUnits = 1 << 52

// Units returns rne(d/u): the number of spacings u by which adding d moves
// any float64 of u's binade, as long as the sum stays in that binade. ok is
// false when the answer depends on the running sum (d/u is a tie) or when no
// sum in the binade can take the step (d/u is 2^52 or more, NaN or
// negative).
func Units(d, u float64) (int64, bool) {
	x := d / u // exact: u is a power of two
	if !(x >= 0 && x < maxUnits) {
		return maxUnits, false
	}
	f := math.Floor(x)
	if x-f == 0.5 {
		return int64(f), false
	}
	return int64(math.RoundToEven(x)), true
}

// UnitPrefix is a read-only prefix table of Units over consecutive sequence
// lengths: At(l) is the sum over lengths Lo ≤ x < l.
type UnitPrefix struct {
	Lo  int
	Sum []int64
}

// At returns the sum of Units over lengths [Lo, l).
func (t UnitPrefix) At(l int) int64 { return t.Sum[l-t.Lo] }

// spanKey identifies one prefix table: the (P, M, B) shape and the bits of
// the slowdown factor and of the binade's spacing.
type spanKey struct {
	p, m, b  int
	scale, u uint64
}

// unitTable is one prefix table. It covers only the lengths segments asked
// for: it grows upward by appending and downward by rebuilding into a new
// array, and never rewrites an entry, so every UnitPrefix handed out stays
// valid while other goroutines extend the table.
type unitTable struct {
	key spanKey
	lo  int
	sum []int64 // sum[i] = Σ Units over [lo, lo+i), saturating at MaxInt64
	// ties lists, in ascending order, the lengths whose Units is not ok.
	ties []int
}

// SpanUnits returns the prefix table of Units(δ(l), u) for the (P, M, B)
// shape and a binade's spacing u (see Spacing), where δ(l) =
// DecodeIter(P, M, B, l)·scale rounded to float64, covering lengths lo..hi
// (At is defined up to hi+1). ok is false when a length in [lo, hi] has no
// usable Units, or when their sum exceeds budget — the most units a run
// over them may advance without leaving its binade. Then the closed form
// does not hold over those lengths, and the table is not grown past the
// length where the sum first exceeded budget.
//
// Tables are process-wide per Estimator, filled under the DecodeIter memo's
// lock, so sweep workers share them.
func (e *Estimator) SpanUnits(P, M, B int, scale, u float64, lo, hi int, budget int64) (UnitPrefix, bool) {
	key := spanKey{P, M, B, math.Float64bits(scale), math.Float64bits(u)}
	if e.memo == nil {
		return e.spanUnits(&unitTable{key: key, lo: lo, sum: []int64{0}}, lo, hi, budget)
	}
	e.memo.mu.Lock()
	defer e.memo.mu.Unlock()
	t := e.memo.spans[key]
	if t == nil {
		t = &unitTable{key: key, lo: lo, sum: []int64{0}}
		e.memo.spans[key] = t
	} else if lo < t.lo {
		e.lowerUnits(t, lo)
	}
	return e.spanUnits(t, lo, hi, budget)
}

// spanUnits grows t (which starts at or below lo) up to hi, stopping once
// the sum from lo exceeds budget, and reports whether the closed form holds
// over [lo, hi].
func (e *Estimator) spanUnits(t *unitTable, lo, hi int, budget int64) (UnitPrefix, bool) {
	for t.next() < lo {
		e.appendUnits(t)
	}
	base := t.sum[lo-t.lo]
	for t.next() <= hi {
		if last := t.sum[len(t.sum)-1]; last == math.MaxInt64 || last-base > budget {
			break
		}
		e.appendUnits(t)
	}
	p := UnitPrefix{Lo: t.lo, Sum: t.sum[:len(t.sum):len(t.sum)]}
	if t.next() <= hi {
		return p, false
	}
	if top := p.At(hi + 1); top == math.MaxInt64 || top-base > budget {
		return p, false
	}
	i := sort.SearchInts(t.ties, lo)
	return p, i == len(t.ties) || t.ties[i] > hi
}

// next returns the length whose Units the next appended entry adds.
func (t *unitTable) next() int { return t.lo + len(t.sum) - 1 }

// appendUnits extends t by one length: Units of the scaled decode iteration
// there. The caller holds memo.mu when the Estimator is memoized.
func (e *Estimator) appendUnits(t *unitTable) {
	l, k := t.next(), t.key
	var d float64
	if e.memo != nil {
		d = e.decodeLocked(k.p, k.m, k.b, l)
	} else {
		d = e.decodeIterRaw(k.p, k.m, k.b, l)
	}
	r, ok := Units(float64(d*math.Float64frombits(k.scale)), math.Float64frombits(k.u))
	if !ok {
		t.ties = append(t.ties, l)
	}
	t.sum = append(t.sum, satAdd(t.sum[len(t.sum)-1], r))
}

// lowerUnits rebuilds t into a new array that starts at lo < t.lo: the
// lengths below t.lo, then t's sums shifted by theirs.
func (e *Estimator) lowerUnits(t *unitTable, lo int) {
	low := &unitTable{key: t.key, lo: lo, sum: make([]int64, 1, t.lo-lo+len(t.sum))}
	for low.next() < t.lo {
		e.appendUnits(low)
	}
	s := low.sum[len(low.sum)-1]
	for _, v := range t.sum[1:] {
		low.sum = append(low.sum, satAdd(s, v))
	}
	low.ties = append(low.ties, t.ties...)
	*t = *low
}

// satAdd returns a+b for non-negative a and b, saturating at MaxInt64.
func satAdd(a, b int64) int64 {
	if b > math.MaxInt64-a {
		return math.MaxInt64
	}
	return a + b
}
