// Package golden is the repository's golden-file machinery: byte-exact
// comparison, rewrite, a small line diff, and the one switch that turns
// a comparison into a rewrite. It does not import testing, so the
// golden tests (through Check) and production tooling — the
// cmd/scenario runner diffing scenarios/<name>/report.golden — share
// one implementation and one set of semantics.
//
// Golden content must be deterministic: fixed ordering, fixed float
// precision, no wall-clock values.
package golden

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
)

// updateEnv is the environment variable that makes Check rewrite golden
// files instead of comparing against them:
//
//	UPDATE_GOLDEN=1 go test ./...
//
// An environment variable reaches every test binary whether or not its
// package has golden files; a test flag fails the packages that never
// defined it.
const updateEnv = "UPDATE_GOLDEN"

// T is the part of *testing.T that Check uses.
type T interface {
	Helper()
	Logf(format string, args ...any)
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// Check compares got against the golden file at path (relative to the
// test's working directory, conventionally testdata/<name>.golden) and
// reports a mismatch on t. With UPDATE_GOLDEN set (to anything
// non-empty) it rewrites the file instead and logs the change.
func Check(t T, path string, got []byte) {
	t.Helper()
	if os.Getenv(updateEnv) != "" {
		if err := Write(path, got); err != nil {
			t.Fatalf("golden: %v", err)
		}
		t.Logf("golden: rewrote %s (%d bytes)", path, len(got))
		return
	}
	if err := Compare(path, got); err != nil {
		t.Errorf("%v", err)
	}
}

// Write (re)writes the golden file at path, creating parent
// directories as needed.
func Write(path string, got []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, got, 0o644)
}

// howToUpdate names both switches: Compare serves the golden tests and
// the scenario runner alike.
const howToUpdate = "UPDATE_GOLDEN=1 go test, or scenario -update for a scenario report"

// Compare compares got against the golden file at path and returns a
// descriptive error (including a line diff) on mismatch, or when the
// golden file is missing.
func Compare(path string, got []byte) error {
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golden: %v (create it with %s)", err, howToUpdate)
	}
	if bytes.Equal(want, got) {
		return nil
	}
	return fmt.Errorf("golden: output differs from %s (if the change is intended, rewrite it with %s)\n%s",
		path, howToUpdate, Diff(want, got))
}

// Diff renders a line-oriented first-divergence report: full diffs
// need no dependency for the small reports golden tests pin.
func Diff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	var out bytes.Buffer
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if bytes.Equal(w, g) {
			continue
		}
		fmt.Fprintf(&out, "line %d:\n  want: %s\n  got:  %s\n", i+1, clip(w), clip(g))
		if out.Len() > 2000 {
			fmt.Fprintln(&out, "  ... (truncated)")
			break
		}
	}
	return out.String()
}

// clip bounds one diff line so a single huge line cannot flood the
// error message.
func clip(b []byte) []byte {
	const max = 200
	if len(b) <= max {
		return b
	}
	return append(append([]byte{}, b[:max]...), "..."...)
}
