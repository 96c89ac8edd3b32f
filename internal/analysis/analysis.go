// Package analysis implements chollint, a domain-specific static-analysis
// suite enforcing at compile time the invariants this reproduction otherwise
// guards only dynamically (golden digests, pinned benchmarks, -race runs):
//
//   - bit-identical schedules across runs — the paper's SimGrid-vs-native
//     ≤1% fidelity argument (§V) collapses if a simulated makespan depends
//     on Go map iteration order, wall-clock reads, or unseeded randomness;
//   - allocation-free simulator/LP hot paths — the PR2 perf wins pinned in
//     BENCH_PR*.json;
//   - context and nil-recorder plumbing — gaps here cancel nothing and
//     panic at the first recorded event, respectively.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf) so the analyzers could be ported to a stock
// multichecker later, but is built only on the standard library: the suite
// must run in hermetic build environments with no module downloads.
//
// Suppression: a diagnostic is silenced by a `//chollint:<word>` comment on
// the flagged line or the line above, where <word> is the analyzer's escape
// hatch (e.g. //chollint:ordered for detranged). Escapes are deliberately
// per-analyzer: a line excused from one invariant stays subject to the rest.
package analysis

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string // lowercase identifier, used in output and flag names
	Doc  string // one-paragraph description of the invariant enforced

	// Suppress is the //chollint:<word> directive that silences this
	// analyzer on a line (empty: no escape hatch).
	Suppress string

	Run func(*Pass) error
}

// A Pass is one analyzer's view of one package. Prog is the whole-program
// context shared by every pass of one Run: the interprocedural analyzers
// (puremark, hotcall, leakguard) read call-graph summaries from it, scoped
// to the pass's own package so each diagnostic is reported exactly once.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Prog      *Program

	diags []Diagnostic
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// All returns the full chollint suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Detranged,
		Noclock,
		Hotpathalloc,
		Ctxflow,
		Floateq,
		Recnil,
		Puremark,
		Hotcall,
		Leakguard,
	}
}

// ByName resolves a comma-separated analyzer list; an empty string selects
// the full suite.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("chollint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies the analyzers to one type-checked package and returns the
// surviving diagnostics (suppressed ones removed), sorted by position. The
// package is treated as a single-unit Program, so the interprocedural
// analyzers work (with whole-program strength only for in-package call
// chains — external callees fall back to the optimistic effect tables).
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	unit := &PackageUnit{Fset: fset, Files: files, Pkg: pkg, Info: info}
	return RunProgram(analyzers, NewProgram(fset, []*PackageUnit{unit}))
}

// RunProgram applies the analyzers to every unit of a whole program — the
// full-strength mode `chollint ./...` runs, where cross-package call chains
// are summarized from source rather than assumed.
func RunProgram(analyzers []*Analyzer, prog *Program) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, u := range prog.Units {
		sup := collectSuppressions(u.Fset, u.Files)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: u.Fset, Files: u.Files, Pkg: u.Pkg, TypesInfo: u.Info, Prog: prog}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			for _, d := range pass.diags {
				if a.Suppress != "" && sup.matches(d.Pos, a.Suppress) {
					continue
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// suppressions maps file → line → set of //chollint: directives.
type suppressions map[string]map[int]map[string]bool

func (s suppressions) matches(pos token.Position, word string) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	return lines[pos.Line][word] || lines[pos.Line-1][word]
}

func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	s := suppressions{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//chollint:")
				if !ok {
					continue
				}
				word, _, _ := strings.Cut(text, " ")
				if word == "" {
					continue
				}
				p := fset.Position(c.Pos())
				if s[p.Filename] == nil {
					s[p.Filename] = map[int]map[string]bool{}
				}
				if s[p.Filename][p.Line] == nil {
					s[p.Filename][p.Line] = map[string]bool{}
				}
				s[p.Filename][p.Line][word] = true
			}
		}
	}
	return s
}

// deterministicCore lists the package-path suffixes forming the simulator's
// deterministic core: everything whose output feeds a golden digest or a
// bound comparison. detranged and noclock apply only here.
var deterministicCore = []string{
	"internal/graph",
	"internal/simulator",
	"internal/sched",
	"internal/bounds",
	"internal/lp",
	"internal/cpsolve",
	"internal/sweep",
}

func isDeterministicCore(path string) bool {
	for _, s := range deterministicCore {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file node comes from a _test.go file.
// chollint enforces production invariants; tests intentionally compare
// exact floats (golden digests) and read wall clocks (benchmarks).
func (p *Pass) isTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// render returns a compact source rendering of an expression, used both in
// messages and to match guard expressions (e.g. "st.rec") textually.
func render(fset *token.FileSet, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return render(fset, e.X) + "." + e.Sel.Name
	}
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, e); err != nil {
		return "<expr>"
	}
	return sb.String()
}

// funcDirective reports whether the doc comment carries the given
// machine-readable directive. Directive comments follow the go:generate
// convention: they start immediately after // with no space, and trailing
// prose after a space is allowed ("//chol:hotpath event loop").
func funcDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//"+directive)
		if !ok {
			continue
		}
		if rest == "" || strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, "\t") {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call expression to the package-level function or
// method it invokes, or nil (builtins, conversions, function values).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether the call invokes the package-level function
// pkgPath.name. Methods never match: rng.Float64() on a seeded *rand.Rand
// is fine where rand.Float64() is not.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string, names map[string]bool) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false
	}
	if fn.Pkg().Path() == pkgPath && names[fn.Name()] {
		return fn.Name(), true
	}
	return "", false
}
