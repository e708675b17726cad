// Package analysis is detlint's determinism-linter suite: a set of
// static analyzers that enforce, at compile time, the byte-identity
// contract the runtime equivalence tests pin (parallel==serial,
// cache-on==cache-off, fault-injected==fault-free fingerprints).
//
// The framework deliberately mirrors the shape of golang.org/x/tools
// go/analysis (Analyzer / Pass / Diagnostic, testdata fixtures with
// `// want` expectations, a multichecker driver in cmd/detlint that also
// speaks the `go vet -vettool` protocol) but is built entirely on the
// standard library — go/ast, go/types and `go list -export` export data —
// so the module stays dependency-free. See docs/ANALYSIS.md for the
// invariant catalog and the `//detlint:allow` annotation grammar.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one determinism invariant and the function that
// checks it over a single type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in findings, `-run` filters and
	// `//detlint:allow <name> — <reason>` annotations.
	Name string
	// Doc is a one-paragraph description of the invariant, shown by
	// `detlint help`.
	Doc string
	// Run reports findings on pass via pass.Reportf. Suppression by
	// annotation is applied by the framework after Run returns, so
	// analyzers report unconditionally.
	Run func(pass *Pass)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Path     string // import path of the package under analysis
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when the type checker recorded
// none (analyzers treat nil conservatively: unknown types are not
// flagged, matching go/analysis convention for robustness).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// A Diagnostic is one finding, already resolved to a file position so it
// renders as the clickable `file:line:col: analyzer: message` form.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// kernelPackages are the deterministic simulation kernel: every line in
// these packages feeds, directly or transitively, the fingerprints the
// equivalence tests compare, so the strict analyzers (maprange,
// wallclock, fpdigest) apply. The daemon/CLI layers (serve, cmd/...) and
// the ingest/support packages are exempt from the strict set but still
// covered by globalrand, which applies to all of internal/.
var kernelPackages = map[string]bool{
	"spotserve/internal/engine":      true,
	"spotserve/internal/sim":         true,
	"spotserve/internal/core":        true,
	"spotserve/internal/reconfig":    true,
	"spotserve/internal/km":          true,
	"spotserve/internal/cost":        true,
	"spotserve/internal/market":      true,
	"spotserve/internal/scenario":    true,
	"spotserve/internal/metrics":     true,
	"spotserve/internal/experiments": true,
	"spotserve/internal/cloud":       true,
	"spotserve/internal/workload":    true,
}

// IsKernelPackage reports whether path is one of the deterministic
// kernel packages the strict analyzers police.
func IsKernelPackage(path string) bool { return kernelPackages[path] }

// KernelPackages returns the sorted kernel package list (for docs and
// the driver's help output).
func KernelPackages() []string {
	out := make([]string, 0, len(kernelPackages))
	for p := range kernelPackages {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// IsInternalPackage reports whether path lies in this module's internal/
// tree, the scope of the globalrand analyzer.
func IsInternalPackage(path string) bool {
	return strings.HasPrefix(path, "spotserve/internal/")
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{MapRange, WallClock, GlobalRand, FPDigest}
}

// ByName resolves a comma-separated `-run` list against All, preserving
// suite order. Unknown names are an error, not a silent no-op: a typo'd
// filter must not pass CI by running nothing.
func ByName(list string) ([]*Analyzer, error) {
	if list == "" {
		return All(), nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		want[name] = true
	}
	var out []*Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown analyzer(s): %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// RunAnalyzers runs the given analyzers over one loaded package and
// returns the surviving findings sorted by position. Suppression
// semantics live here, in one place, rather than in each analyzer:
// a finding is dropped when an in-scope `//detlint:allow` annotation
// names its analyzer and carries a non-empty reason; an annotation that
// names an analyzer but omits the reason is itself a finding of that
// analyzer ("allow annotations must explain themselves").
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	annots := collectAnnotations(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		var raw []Diagnostic
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Path:     pkg.Path,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &raw,
		}
		a.Run(pass)
		for _, d := range raw {
			if annots.allows(a.Name, d.Pos) {
				continue
			}
			out = append(out, d)
		}
		// Malformed annotations are findings even when nothing was
		// suppressed: an empty reason silently rots into "nobody knows
		// why this is exempt".
		for _, bad := range annots.missingReason(a.Name) {
			out = append(out, Diagnostic{
				Pos:      bad,
				Analyzer: a.Name,
				Message:  "//detlint:allow " + a.Name + " annotation is missing its reason (write `//detlint:allow " + a.Name + " — <why this is order-insensitive/safe>`)",
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}
