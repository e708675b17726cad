package analysis_test

import (
	"strings"
	"testing"

	"spotserve/internal/analysis"
	"spotserve/internal/analysis/analysistest"
)

func TestMapRange(t *testing.T)   { analysistest.Run(t, analysis.MapRange) }
func TestWallClock(t *testing.T)  { analysistest.Run(t, analysis.WallClock) }
func TestGlobalRand(t *testing.T) { analysistest.Run(t, analysis.GlobalRand) }
func TestFPDigest(t *testing.T)   { analysistest.Run(t, analysis.FPDigest) }

func TestByName(t *testing.T) {
	all, err := analysis.ByName("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("suite has %d analyzers, want 4", len(all))
	}
	sub, err := analysis.ByName("fpdigest, maprange")
	if err != nil {
		t.Fatal(err)
	}
	// Suite order is preserved regardless of the -run list's order.
	if len(sub) != 2 || sub[0].Name != "maprange" || sub[1].Name != "fpdigest" {
		t.Fatalf("ByName(fpdigest, maprange) = %v", names(sub))
	}
	if _, err := analysis.ByName("maprange,nosuch"); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("unknown analyzer error = %v, want mention of nosuch", err)
	}
}

func names(as []*analysis.Analyzer) []string {
	var out []string
	for _, a := range as {
		out = append(out, a.Name)
	}
	return out
}

func TestKernelPackages(t *testing.T) {
	for _, p := range []string{
		"spotserve/internal/engine", "spotserve/internal/sim", "spotserve/internal/core",
		"spotserve/internal/reconfig", "spotserve/internal/km", "spotserve/internal/cost",
		"spotserve/internal/market", "spotserve/internal/scenario", "spotserve/internal/metrics",
		"spotserve/internal/experiments", "spotserve/internal/cloud", "spotserve/internal/workload",
	} {
		if !analysis.IsKernelPackage(p) {
			t.Errorf("IsKernelPackage(%s) = false", p)
		}
	}
	for _, p := range []string{"spotserve/internal/serve", "spotserve/cmd/spotserve", "spotserve/internal/trace"} {
		if analysis.IsKernelPackage(p) {
			t.Errorf("IsKernelPackage(%s) = true", p)
		}
	}
	if !analysis.IsInternalPackage("spotserve/internal/serve") {
		t.Error("IsInternalPackage(spotserve/internal/serve) = false")
	}
	if analysis.IsInternalPackage("spotserve/cmd/spotserve") {
		t.Error("IsInternalPackage(spotserve/cmd/spotserve) = true")
	}
	ks := analysis.KernelPackages()
	if len(ks) != 12 {
		t.Fatalf("KernelPackages() has %d entries, want 12", len(ks))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Fatalf("KernelPackages() not sorted: %v", ks)
		}
	}
}
