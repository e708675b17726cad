package experiments

import (
	"math"
	"testing"

	"spotserve/internal/model"
	"spotserve/internal/trace"
)

// The golden values below pin the paper's reproduced numbers at fixed
// inputs. They are exact outputs of the current planner/mapper/engine
// stack: a diff here means a refactor changed the simulated physics, not
// just the code — update the goldens only with a justification in the
// commit message.

// TestGoldenTable1 pins Table 1 exactly (the cost model is closed-form, so
// full float precision is stable across platforms).
func TestGoldenTable1(t *testing.T) {
	want := []Table1Row{
		{Model: "OPT-6.7B", SizeGB: 25, MinGPUs: 4, P: 1, M: 4,
			LexeB1: 5.601637292729671, PaperMinGPUs: 4, PaperLexe: 5.447},
		{Model: "GPT-20B", SizeGB: 74.5, MinGPUs: 12, P: 3, M: 4,
			LexeB1: 15.873804396260805, PaperMinGPUs: 12, PaperLexe: 14.373},
		{Model: "LLaMA-30B", SizeGB: 111.8, MinGPUs: 16, P: 2, M: 8,
			LexeB1: 17.755876809192014, PaperMinGPUs: 16, PaperLexe: 17.540},
	}
	got := Table1()
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Model != w.Model || g.SizeGB != w.SizeGB || g.MinGPUs != w.MinGPUs ||
			g.P != w.P || g.M != w.M ||
			g.PaperMinGPUs != w.PaperMinGPUs || g.PaperLexe != w.PaperLexe {
			t.Errorf("row %d: %+v, want %+v", i, g, w)
		}
		if math.Abs(g.LexeB1-w.LexeB1) > 1e-12 {
			t.Errorf("%s: lexe %v, want golden %v", g.Model, g.LexeB1, w.LexeB1)
		}
	}
}

// TestGoldenFigure6Cell pins full end-to-end simulations — GPT-20B on
// trace B_S at seed 42 under all three systems, plus Reparallelization on
// B_S+O, the one baseline path that allocates on-demand instances — down to
// their result fingerprints, so refactors of the planner, mapper, engine or
// serving shell cannot silently shift the reproduced figures.
func TestGoldenFigure6Cell(t *testing.T) {
	cells := []struct {
		sys                          System
		mix                          bool
		completed, reloads, onDemand int
		fp                           string
	}{
		{SpotServe, false, 349, 0, 0, "331a3221e335d60394908415b1612d05389e8109584eb012ba99efaa11a323fc"},
		{Reparallel, false, 349, 15, 0, "d097f77f4ee2b192e9268c9a8ef73064383be789ed9f1a0b7faa34f48ad8ce0f"},
		{Reroute, false, 348, 6, 0, "71a48c5b714279ebca431c2e72d32118ab88871eb1a5ca1e7824a1e10851033b"},
		{Reparallel, true, 349, 19, 9, "07eb5c6095fd9b169b2c16b0dcd6605a161c14a126c86edbb74306c1fce47c25"},
	}
	for _, c := range cells {
		name := string(c.sys) + "/B_S"
		if c.mix {
			name += "+O"
		}
		t.Run(name, func(t *testing.T) {
			sc := DefaultScenario(c.sys, model.GPT20B, trace.BS(), 42)
			sc.AllowOnDemand = c.mix
			res := Run(sc)
			st := res.Stats
			if st.Submitted != 349 || st.Completed != c.completed {
				t.Errorf("requests = %d/%d, want %d/349", st.Completed, st.Submitted, c.completed)
			}
			if st.Reloads != c.reloads || st.OnDemandAllocated != c.onDemand {
				t.Errorf("reloads, on-demand allocations = %d, %d; want %d, %d",
					st.Reloads, st.OnDemandAllocated, c.reloads, c.onDemand)
			}
			if c.sys == SpotServe {
				s := st.Latency
				checks := []struct {
					name      string
					got, want float64
				}{
					{"avg", s.Avg, 112.63390625800362},
					{"p90", s.P90, 220.89634896344853},
					{"p95", s.P95, 235.4528080911166},
					{"p98", s.P98, 242.87151726058596},
					{"p99", s.P99, 243.11806914117574},
					{"costUSD", st.CostUSD, 6.064166666666667},
				}
				for _, ck := range checks {
					if math.Abs(ck.got-ck.want) > 1e-9 {
						t.Errorf("%s = %v, want golden %v", ck.name, ck.got, ck.want)
					}
				}
			}
			if fp := res.Fingerprint(); fp != c.fp {
				t.Errorf("fingerprint %s, want golden %s", fp, c.fp)
			}
		})
	}
}
