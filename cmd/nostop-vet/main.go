// Command nostop-vet checks the repository against the determinism contract:
// the nine custom static analyzers in internal/analysis, run over every
// package in the module (tests included) with the repository's default
// package allowlists.
//
//	nostop-vet [./...]        check the whole module (the only supported scope)
//	nostop-vet -list          list analyzers and exit
//	nostop-vet -analyzers a,b run a subset
//	nostop-vet -tests=false   skip _test.go files
//	nostop-vet -time          report per-analyzer wall time on stderr
//
// Findings print one per line, position-sorted, and the exit status is 1 when
// there are any — so CI can gate on it. Suppress an individual finding with a
// trailing "//nostop:allow <analyzer> -- reason" comment; package-level
// exemptions live in internal/analysis.DefaultConfig.
//
// (The standard go vet -vettool protocol requires the x/tools unitchecker;
// this repository is dependency-free by design, so nostop-vet is a standalone
// whole-module checker instead. `make vet` runs both go vet and nostop-vet.)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nostop/internal/analysis"
)

func main() {
	tests := flag.Bool("tests", true, "also analyze _test.go files")
	list := flag.Bool("list", false, "list analyzers and exit")
	names := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	timed := flag.Bool("time", false, "report load and per-analyzer wall time on stderr")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "..." {
			fmt.Fprintf(os.Stderr, "nostop-vet: unsupported package pattern %q (the whole module is always checked; use ./...)\n", arg)
			os.Exit(2)
		}
	}

	analyzers := analysis.All()
	if *names != "" {
		analyzers = nil
		for _, name := range strings.Split(*names, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "nostop-vet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := findModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	loadStart := time.Now()
	pkgs, err := analysis.LoadModule(root, analysis.LoadOptions{Tests: *tests})
	if err != nil {
		fatal(err)
	}
	if *timed {
		fmt.Fprintf(os.Stderr, "nostop-vet: load+typecheck %v\n", time.Since(loadStart).Round(time.Millisecond))
	}
	diags := check(pkgs, analyzers, *timed)
	for _, d := range diags {
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "nostop-vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "nostop-vet: %d packages, %d analyzers, no findings\n", len(pkgs), len(analyzers))
}

// check runs the analyzers, one Check call per analyzer when timing is on so
// each pass's wall time can be attributed, then restores the global
// position-sorted order the single-call path produces.
func check(pkgs []*analysis.Package, analyzers []*analysis.Analyzer, timed bool) []analysis.Diagnostic {
	cfg := analysis.DefaultConfig()
	if !timed {
		return analysis.Check(pkgs, analyzers, cfg)
	}
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		start := time.Now()
		diags = append(diags, analysis.Check(pkgs, []*analysis.Analyzer{a}, cfg)...)
		fmt.Fprintf(os.Stderr, "nostop-vet: %-14s %v\n", a.Name, time.Since(start).Round(time.Millisecond))
	}
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
	return diags
}

func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("nostop-vet: no go.mod above %s", dir)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
