// Package analysis implements the nostop determinism contract as a suite of
// static analyzers, plus the small framework that runs them.
//
// The simulator's headline guarantee — a fixed seed reproduces byte-identical
// batch histories and fault timelines — is only as strong as the conventions
// the code follows: no wall-clock reads inside the simulation, all randomness
// through named rng.Streams, no ordered output derived from map iteration, no
// exact float comparisons steering control flow, and a single-threaded event
// loop. Each convention is enforced by one analyzer:
//
//	wallclock    — bans time.Now/Since/Sleep/After/... in internal packages
//	randsource   — bans math/rand and crypto/rand imports outside internal/rng
//	               and the global (implicitly seeded) rand functions everywhere
//	maporder     — flags map iteration whose body feeds order-sensitive sinks
//	floateq      — flags ==/!= between floats in control-flow conditions
//	simgoroutine — flags go statements and sync imports in simulation packages
//
// Three further analyzers protect the performance and observability
// contracts layered on top of determinism, and one keeps the code lean:
//
//	hotalloc     — rejects allocation-shaped constructs in //nostop:hotpath
//	               functions and their same-package callees
//	lockguard    — fields annotated '// guarded by <mu>' may only be
//	               accessed while the named sibling mutex is held
//	obscontract  — metric/span names must be compile-time constants;
//	               Observer implementations keep nil-safe receivers
//	deadapi      — internal functions, methods and types need a caller
//	               outside the tests (interface dispatch counts)
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, Reportf) but is built on the standard library alone:
// the repository has no external dependencies, and the vet tool must not be
// the first thing to break that.
//
// # Annotation grammar
//
// A finding can be suppressed where the code is deliberately outside the
// contract with a comment on the flagged line or the line above it:
//
//	//nostop:allow <analyzer>[,<analyzer>...] -- <reason>
//
// An allow covers exactly its own source line and the one below it — a
// finding positioned deeper inside a multi-line expression is not covered
// (see TestSuppressionEdgeCases, which pins this). The same comment in a
// function's *doc comment* exempts the whole function for the hotalloc and
// lockguard analyzers; for hotalloc it also stops hot-path propagation
// through that function.
//
// Two marker annotations extend the contract rather than suppress it:
//
//	//nostop:hotpath        (function doc comment) — the function and its
//	                        same-package callees must not allocate
//	// guarded by <mu>      (struct field comment) — accesses require the
//	                        named sibling mutex to be held
//
// Package-level exemptions (e.g. internal/listener may use sync) live in the
// Config allowlists; see DefaultConfig.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer checks one invariant of the determinism contract.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, suppression comments,
	// and the Config maps.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// SkipTestFiles excludes _test.go files from this analyzer. Tests are
	// allowed exact float assertions, for example, but not wall-clock reads.
	SkipTestFiles bool
	// Run reports findings on the pass's files via pass.Reportf.
	Run func(*Pass)
}

// A Pass is one analyzer applied to one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Path is the package's import path; scope and allowlist decisions key
	// off it.
	Path string

	cfg      *Config
	suppress suppressions
	sink     *[]Diagnostic
	// module is every package of this Check, for passes that need the
	// whole module's references (deadapi).
	module *moduleView
}

// Reportf records a finding at pos unless a //nostop:allow comment covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppress.allows(p.Analyzer.Name, position) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// List returns the configured package-path allowlist for this analyzer under
// the given key (e.g. the randsource analyzer's "imports" list).
func (p *Pass) List(key string) []string {
	return p.cfg.List(p.Analyzer.Name + "." + key)
}

// A Diagnostic is one finding, addressed by source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the position-first form the CLI prints.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Check runs the analyzers over the packages under cfg and returns every
// unsuppressed finding in deterministic (position-sorted) order. A nil cfg
// runs every analyzer on every package with empty allowlists.
func Check(pkgs []*Package, analyzers []*Analyzer, cfg *Config) []Diagnostic {
	var diags []Diagnostic
	module := &moduleView{pkgs: pkgs}
	for _, pkg := range pkgs {
		sup := buildSuppressions(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			if !cfg.Applies(a.Name, pkg.Path) {
				continue
			}
			files := pkg.Files
			if a.SkipTestFiles {
				files = nonTestFiles(pkg.Fset, files)
			}
			if len(files) == 0 {
				continue
			}
			a.Run(&Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Path:      pkg.Path,
				cfg:       cfg,
				suppress:  sup,
				sink:      &diags,
				module:    module,
			})
		}
	}
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders findings by (file, line, column, analyzer, message)
// so repeated runs emit byte-identical reports.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

func nonTestFiles(fset *token.FileSet, files []*ast.File) []*ast.File {
	var out []*ast.File
	for _, f := range files {
		if !strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// suppressions maps filename -> line -> analyzer names allowed on that line.
// A //nostop:allow comment covers its own line and the line below it, so it
// works both as a trailing comment and on a line of its own above the finding.
type suppressions map[string]map[int][]string

const allowPrefix = "//nostop:allow"

func buildSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	sup := suppressions{}
	for _, f := range files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				text, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				// Everything after "--" is a free-form reason.
				names, _, _ := strings.Cut(text, "--")
				pos := fset.Position(c.Pos())
				lines := sup[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					sup[pos.Filename] = lines
				}
				for _, name := range strings.FieldsFunc(names, func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				}) {
					lines[pos.Line] = append(lines[pos.Line], name)
					lines[pos.Line+1] = append(lines[pos.Line+1], name)
				}
			}
		}
	}
	return sup
}

func (s suppressions) allows(analyzer string, pos token.Position) bool {
	for _, name := range s[pos.Filename][pos.Line] {
		if name == analyzer || name == "all" {
			return true
		}
	}
	return false
}
