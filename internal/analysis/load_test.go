package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nostop/internal/analysis"
)

func loadRepo(t *testing.T, tests bool) []*analysis.Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.LoadModule(root, analysis.LoadOptions{Tests: tests})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func TestLoadModule(t *testing.T) {
	pkgs := loadRepo(t, true)
	byPath := map[string]*analysis.Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	for _, path := range []string{
		"nostop/internal/sim",
		"nostop/internal/engine",
		"nostop/internal/rng",
		"nostop/internal/experiments",
		"nostop/cmd/nostop-vet",
		"nostop",           // root package exists only as its bench _test files
		"nostop/perfbench", // its own module, but its references keep APIs alive for deadapi
	} {
		pkg, ok := byPath[path]
		if !ok {
			t.Errorf("module load missing package %s", path)
			continue
		}
		if pkg.Types == nil || pkg.Info == nil || len(pkg.Files) == 0 {
			t.Errorf("%s loaded without types or files", path)
		}
	}
	for i := 1; i < len(pkgs); i++ {
		if pkgs[i-1].Path >= pkgs[i].Path {
			t.Fatalf("packages not sorted: %s before %s", pkgs[i-1].Path, pkgs[i].Path)
		}
	}
	for _, p := range pkgs {
		if strings.Contains(p.Dir, "testdata") {
			t.Errorf("testdata package leaked into module load: %s", p.Path)
		}
	}
}

// TestLoadErrors pins the loader's failure modes: each broken input must
// surface a descriptive error, not a panic or a silently empty package list.
func TestLoadErrors(t *testing.T) {
	write := func(t *testing.T, dir, name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("unparseable file", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, "bad.go", "package bad\nfunc {\n")
		if _, err := analysis.LoadDir(dir, "fixture/bad"); err == nil {
			t.Fatal("LoadDir accepted a file with a syntax error")
		}
	})

	t.Run("type-check failure", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, "broken.go", "package broken\nvar v = undefinedSymbol\n")
		_, err := analysis.LoadDir(dir, "fixture/broken")
		if err == nil || !strings.Contains(err.Error(), "type-checking") {
			t.Fatalf("want a type-checking error naming the package, got %v", err)
		}
	})

	t.Run("no Go files", func(t *testing.T) {
		dir := t.TempDir()
		_, err := analysis.LoadDir(dir, "fixture/empty")
		if err == nil || !strings.Contains(err.Error(), "no Go files") {
			t.Fatalf("want a no-Go-files error, got %v", err)
		}
	})

	t.Run("missing go.mod", func(t *testing.T) {
		if _, err := analysis.LoadModule(t.TempDir(), analysis.LoadOptions{}); err == nil {
			t.Fatal("LoadModule accepted a directory without go.mod")
		}
	})

	t.Run("no module directive", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, "go.mod", "// a go.mod with no module line\ngo 1.22\n")
		_, err := analysis.LoadModule(dir, analysis.LoadOptions{})
		if err == nil || !strings.Contains(err.Error(), "no module directive") {
			t.Fatalf("want a no-module-directive error, got %v", err)
		}
	})
}

// TestRepoIsContractClean is the acceptance gate, in-process: the full
// analyzer suite over the whole module (tests included) under the default
// allowlists must report nothing. This is exactly what cmd/nostop-vet runs,
// so `go test ./...` fails the moment a wall-clock read, stray rand import,
// unsorted map iteration, float == guard, goroutine, hot-path allocation,
// unlocked guarded-field access, dynamic metric/span name, or declaration
// only tests reach slips into the tree. It also pins the catalog: exactly
// these nine analyzers, in order.
func TestRepoIsContractClean(t *testing.T) {
	want := []string{"deadapi", "floateq", "hotalloc", "lockguard", "maporder", "obscontract", "randsource", "simgoroutine", "wallclock"}
	all := analysis.All()
	if len(all) != len(want) {
		t.Fatalf("analyzer catalog has %d entries, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %s, want %s", i, a.Name, want[i])
		}
	}
	pkgs := loadRepo(t, true)
	diags := analysis.Check(pkgs, all, analysis.DefaultConfig())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
