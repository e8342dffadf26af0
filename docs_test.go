package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docs are the hand-written documents whose path references are held to
// the tree. cmd/bench/README.md belongs to the benchmark and is not
// scanned.
var docs = []string{"README.md", "docs/ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"}

// scratchFiles are named in the verify skill's commands, which write
// them under /tmp/vrf; they are not meant to exist in the tree.
var scratchFiles = map[string]bool{"m.json": true}

var (
	// pathToken is a run of path characters; a {a,b} group counts as
	// one so that internal/{lp,dfs} stays whole.
	pathToken = regexp.MustCompile(`(?:[A-Za-z0-9_.*<>/-]|\{[A-Za-z0-9_,.-]+\})+`)
	treeRoot  = regexp.MustCompile(`^(cmd|internal|examples|scenarios)(/|$)`)
	braces    = regexp.MustCompile(`\{([^{}]*)\}`)
	// upperDoc is an upper-case document name such as docs/ARCHITECTURE.md.
	upperDoc = regexp.MustCompile(`[A-Za-z0-9_./-]*\b[A-Z][A-Z_]+\.md\b`)
)

// docPaths returns the paths a line of documentation names: everything
// under cmd/, internal/, examples/ and scenarios/, cut before the first
// segment that is a placeholder (<name>, *, ...), and every .json or .md
// file.
func docPaths(line string) []string {
	var out []string
	for _, raw := range pathToken.FindAllString(line, -1) {
		raw = strings.TrimPrefix(strings.TrimPrefix(raw, "./"), "repro/")
		raw = strings.TrimRight(raw, "./-")
		// Judged before expansion: rpc.place.{json,stream} is a pair of
		// span names, not a .json file.
		if !treeRoot.MatchString(raw) && !strings.HasSuffix(raw, ".json") && !strings.HasSuffix(raw, ".md") {
			continue
		}
		toks := []string{raw}
		if m := braces.FindStringSubmatchIndex(raw); m != nil {
			toks = toks[:0]
			for _, alt := range strings.Split(raw[m[2]:m[3]], ",") {
				toks = append(toks, raw[:m[0]]+alt+raw[m[1]:])
			}
		}
		for _, tok := range toks {
			segs := strings.Split(tok, "/")
			for i, s := range segs {
				if strings.ContainsAny(s, "<>*") || s == ".." || s == "" {
					segs = segs[:i]
					break
				}
			}
			if len(segs) > 0 {
				out = append(out, strings.Join(segs, "/"))
			}
		}
	}
	return out
}

// TestDocsNameOnlyExistingPaths holds the documents to the tree: a
// package, command, example, scenario, .json or .md file they name must
// exist, and so must every upper-case .md a Go file points at, in a
// comment or a usage string. It is what keeps a deletion from leaving a
// pointer behind.
func TestDocsNameOnlyExistingPaths(t *testing.T) {
	// The extractor first, on one line of every shape the documents use.
	got := docPaths("see `internal/{lp,dfs}`, ./cmd/bench/README.md, scenarios/<name>/report.golden, " +
		"`go build ./examples/...`, BENCHMARK.json and repro/internal/rpc/wire/json.go.")
	want := []string{"internal/lp", "internal/dfs", "cmd/bench/README.md", "scenarios", "examples",
		"BENCHMARK.json", "internal/rpc/wire/json.go"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("docPaths:\n got %q\nwant %q", got, want)
	}

	// Base names of every file in the tree: a bare scenario.json is a
	// file of that name somewhere, not one at the root.
	base := map[string]bool{}
	var goFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") && d.Name() != ".claude" {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			base[d.Name()] = true
			if strings.HasSuffix(path, ".go") {
				goFiles = append(goFiles, path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(p string) bool {
		_, err := os.Stat(p)
		return err == nil
	}
	lines := func(path string) []string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(string(b), "\n")
	}

	for _, doc := range docs {
		for n, line := range lines(doc) {
			for _, p := range docPaths(line) {
				bare := !strings.Contains(p, "/")
				if !exists(p) && !(bare && (base[p] || scratchFiles[p])) {
					t.Errorf("%s:%d names %s, which does not exist", doc, n+1, p)
				}
			}
		}
	}
	for _, src := range goFiles {
		for n, line := range lines(src) {
			for _, p := range upperDoc.FindAllString(line, -1) {
				if !exists(p) && !exists(filepath.Join(filepath.Dir(src), p)) {
					t.Errorf("%s:%d names %s, which does not exist", src, n+1, p)
				}
			}
		}
	}
}
