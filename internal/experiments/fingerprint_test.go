package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"spotserve/internal/core"
	"spotserve/internal/metrics"
	"spotserve/internal/model"
	"spotserve/internal/trace"
)

// fingerprintOracle is the fmt-built Fingerprint that the streaming one
// replaced: every line formatted into a strings.Builder, then hashed whole.
// The streaming version must produce the same digest for every Result.
func fingerprintOracle(r Result) string {
	var b strings.Builder
	sc := r.Scenario
	fmt.Fprintf(&b, "sys=%s spec=%s trace=%s odn=%d rate=%g cv=%g mix=%v drain=%g seed=%d\n",
		sc.System, sc.Spec.Name, sc.Trace.Name, sc.OnDemandN, sc.Rate, sc.CV,
		sc.AllowOnDemand, sc.Drain, sc.Seed)
	if sc.Features != nil {
		fmt.Fprintf(&b, "features=%+v\n", *sc.Features)
	}
	if sc.AvailModel != "" || sc.Fleet != "" || sc.Policy != "" || sc.Market != "" {
		fmt.Fprintf(&b, "avail=%s fleet=%s policy=%s market=%s\n",
			sc.AvailModel, sc.Fleet, sc.Policy, sc.Market)
	}
	st := r.Stats
	fmt.Fprintf(&b, "sub=%d done=%d cost=%x lat=%+v mig=%d rel=%d give=%d rec=%d od=%d\n",
		st.Submitted, st.Completed, st.CostUSD, st.Latency,
		st.Migrations, st.Reloads, st.CacheGiveUps, st.TokensRecovered, st.OnDemandAllocated)
	if st.Latencies != nil {
		for _, v := range st.Latencies.Values() {
			fmt.Fprintf(&b, "%x ", v)
		}
		b.WriteString("\n")
	}
	for _, s := range st.PerRequest.Samples {
		fmt.Fprintf(&b, "pr %x %x\n", s.At, s.Value)
	}
	for _, c := range st.ConfigLog {
		fmt.Fprintf(&b, "cfg %x %v %s\n", c.At, c.Config, c.Reason)
	}
	for _, s := range r.SpotCount.Samples {
		fmt.Fprintf(&b, "spot %x %x\n", s.At, s.Value)
	}
	for _, s := range r.OnDemandCount.Samples {
		fmt.Fprintf(&b, "od %x %x\n", s.At, s.Value)
	}
	fmt.Fprintf(&b, "final=%v\n", r.FinalConfig)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// FingerprintOracle lets the external tests check scenario-library results.
var FingerprintOracle = fingerprintOracle

// checkOracle fails the test on any Result whose streamed fingerprint
// differs from the oracle's.
func checkOracle(t *testing.T, name string, r Result) {
	t.Helper()
	if got, want := r.Fingerprint(), fingerprintOracle(r); got != want {
		t.Errorf("%s: Fingerprint %s, oracle %s", name, got, want)
	}
}

// TestFingerprintMatchesOracle compares the streamed fingerprint with the
// oracle on every Figure 6 cell at two seeds (all three systems, with and
// without on-demand mixing), on an ablation result, on a fleet-sampled
// result, and on hand-built results whose buffers spill several times and
// whose floats include ±Inf, NaN, −0 and subnormals.
func TestFingerprintMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		for _, spec := range model.All() {
			for _, tr := range []trace.Trace{trace.AS(), trace.BS()} {
				for _, mix := range []bool{false, true} {
					for _, sys := range Systems() {
						sc := DefaultScenario(sys, spec, tr, seed)
						sc.AllowOnDemand = mix
						checkOracle(t, fmt.Sprintf("%s/%s/%v/%s/%d", spec.Name, tr.Name, mix, sys, seed), Run(sc))
					}
				}
			}
		}
	}
	sc := DefaultScenario(SpotServe, model.GPT20B, trace.BS(), 3)
	f := core.AllFeatures()
	f.Arranger = false
	sc.Features = &f
	sc.SampleFleet = true
	checkOracle(t, "ablation+fleet", Run(sc))

	odd := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0x1p-1030, math.MaxFloat64, 1.5, -2.25}
	r := Result{Scenario: DefaultScenario(Reroute, model.OPT6B7, trace.AS(), 9)}
	r.Scenario.AvailModel, r.Scenario.Market = "bursty", "ou"
	r.Stats.Latencies = &metrics.Latencies{}
	for i := 0; i < 2000; i++ {
		v := odd[i%len(odd)]
		if i%len(odd) == 4 {
			v = float64(i) / 7
		}
		if !math.IsNaN(v) {
			r.Stats.Latencies.Add(v)
		}
		r.Stats.PerRequest.Add(float64(i), v)
		r.SpotCount.Add(v, float64(i%5))
		r.OnDemandCount.Add(float64(i)*0.25, v)
	}
	checkOracle(t, "hand-built", r)
	checkOracle(t, "zero", Result{})
}

// TestAppendFloatMatchesFmtHex pins the formatter Fingerprint streams
// floats with: strconv.AppendFloat(…, 'x', -1, 64) must print the bytes of
// fmt's %x for every float64, over random bit patterns (so every exponent,
// subnormals and NaN payloads included) and the special values.
func TestAppendFloatMatchesFmtHex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1.fffffffffffffp-1023,
		math.MaxFloat64, -math.MaxFloat64, 1, 0.1}
	for i := 0; i < 200000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	var buf []byte
	for _, v := range vals {
		buf = strconv.AppendFloat(buf[:0], v, 'x', -1, 64)
		if want := fmt.Sprintf("%x", v); string(buf) != want {
			t.Fatalf("bits %#016x: AppendFloat %q, fmt %%x %q", math.Float64bits(v), buf, want)
		}
	}
}
