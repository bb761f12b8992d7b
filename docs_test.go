package nostop

// Documentation lint: every markdown file in the repo must stay true.
// Relative links must resolve (file and anchor), every `make <target>`
// mentioned in code must exist in the Makefile, and every nostop-<x>
// command mentioned must exist under cmd/. The reference-material files
// (PAPER.md, PAPERS.md, SNIPPETS.md, ISSUE.md) are quoted source text,
// not maintained docs, and are excluded.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docSkip lists markdown files that are quoted reference material rather
// than maintained documentation.
var docSkip = map[string]bool{
	"PAPER.md":    true,
	"PAPERS.md":   true,
	"SNIPPETS.md": true,
	"ISSUE.md":    true,
}

// cmdAllowlist names nostop-<x> tokens that are not commands: trace
// process-lane names documented in docs/METRICS.md.
var cmdAllowlist = map[string]bool{
	"nostop-controller": true,
}

// retiredCmds names commands that were deleted: two folded into
// nostop-bench, and a live listener demo that nostop-serve's wall mode
// replaces. CHANGES.md records history and may still name them; no
// maintained doc may.
var retiredCmds = map[string]bool{
	"nostop-chaos":  true,
	"nostop-listen": true,
	"nostop-zoo":    true,
}

// docFiles walks the repo for maintained markdown files.
func docFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") && !docSkip[filepath.Base(path)] {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("docs walk found only %d markdown files: %v", len(files), files)
	}
	return files
}

var (
	linkRe    = regexp.MustCompile(`\[[^\[\]]*\]\(([^()\s]+)\)`)
	headingRe = regexp.MustCompile(`^(#{1,6})\s+(.*?)\s*$`)
	fenceRe   = regexp.MustCompile("^\\s*```")
	// slugDropRe removes the characters GitHub drops when slugifying a
	// heading (everything but word characters, spaces, and hyphens).
	slugDropRe = regexp.MustCompile(`[^\p{L}\p{N} _-]`)
	makeRe     = regexp.MustCompile(`(?:^|[\s` + "`" + `])make\s+([a-z][a-z0-9_-]*)`)
	nostopRe   = regexp.MustCompile(`nostop-[a-z][a-z-]*`)
	targetRe   = regexp.MustCompile(`(?m)^([A-Za-z][A-Za-z0-9_-]*):`)
)

// slugify approximates GitHub's heading-anchor algorithm: lowercase, drop
// punctuation, spaces to hyphens, duplicates suffixed -1, -2, …
func slugify(heading string, seen map[string]int) string {
	s := strings.ToLower(heading)
	s = strings.ReplaceAll(slugDropRe.ReplaceAllString(s, ""), " ", "-")
	n := seen[s]
	seen[s]++
	if n > 0 {
		return s + "-" + string(rune('0'+n))
	}
	return s
}

// anchorsOf collects the heading anchors of one markdown file, skipping
// fenced code blocks (a `# comment` inside ```sh is not a heading).
func anchorsOf(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	anchors := map[string]bool{}
	seen := map[string]int{}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if fenceRe.MatchString(line) {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		if m := headingRe.FindStringSubmatch(line); m != nil {
			anchors[slugify(m[2], seen)] = true
		}
	}
	return anchors
}

// TestDocsLinksResolve checks every relative markdown link: the target
// file must exist, and a #fragment must name a heading in the target.
func TestDocsLinksResolve(t *testing.T) {
	for _, path := range docFiles(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			file, anchor, _ := strings.Cut(target, "#")
			resolved := path
			if file != "" {
				resolved = filepath.Join(filepath.Dir(path), file)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: link %q: target does not exist", path, target)
					continue
				}
			}
			if anchor != "" && strings.HasSuffix(resolved, ".md") {
				if !anchorsOf(t, resolved)[anchor] {
					t.Errorf("%s: link %q: no heading with anchor %q in %s", path, target, anchor, resolved)
				}
			}
		}
	}
}

// codeSegments extracts the code portions of a markdown file: fenced
// blocks plus inline backtick spans. Command references are only linted
// there — prose like "the semantic implementations make examples real"
// must not trip the make-target check.
func codeSegments(data string) []string {
	var segs []string
	var fence []string
	inFence := false
	for _, line := range strings.Split(data, "\n") {
		if fenceRe.MatchString(line) {
			if inFence {
				segs = append(segs, strings.Join(fence, "\n"))
				fence = fence[:0]
			}
			inFence = !inFence
			continue
		}
		if inFence {
			fence = append(fence, line)
			continue
		}
		// Inline spans on prose lines.
		for {
			open := strings.IndexByte(line, '`')
			if open < 0 {
				break
			}
			rest := line[open+1:]
			close := strings.IndexByte(rest, '`')
			if close < 0 {
				break
			}
			segs = append(segs, rest[:close])
			line = rest[close+1:]
		}
	}
	return segs
}

// makefileTargets parses the Makefile's rule names.
func makefileTargets(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range targetRe.FindAllStringSubmatch(string(data), -1) {
		targets[m[1]] = true
	}
	if len(targets) == 0 {
		t.Fatal("no targets parsed from Makefile")
	}
	return targets
}

// TestDocsMakeTargetsExist: every `make <target>` in doc code must name a
// real Makefile rule.
func TestDocsMakeTargetsExist(t *testing.T) {
	targets := makefileTargets(t)
	for _, path := range docFiles(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range codeSegments(string(data)) {
			for _, m := range makeRe.FindAllStringSubmatch(seg, -1) {
				if !targets[m[1]] {
					t.Errorf("%s: mentions `make %s` but the Makefile has no such target", path, m[1])
				}
			}
		}
	}
}

// TestDocsCommandsExist: every nostop-<x> token must be a command under
// cmd/ (or an allowlisted trace-lane name, or in CHANGES.md a retired
// command). Tokens immediately followed by a dot are file names (scenario
// specs, artifacts), not commands.
func TestDocsCommandsExist(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	cmds := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			cmds[e.Name()] = true
		}
	}
	for _, path := range docFiles(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		content := string(data)
		for _, idx := range nostopRe.FindAllStringIndex(content, -1) {
			token := content[idx[0]:idx[1]]
			if idx[1] < len(content) && content[idx[1]] == '.' {
				continue // file name, e.g. nostop-absorbs-surge.json
			}
			if !cmds[token] && !cmdAllowlist[token] && !(path == "CHANGES.md" && retiredCmds[token]) {
				t.Errorf("%s: mentions %q but cmd/%s does not exist", path, token, token)
			}
		}
	}
}
