package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteCompareDiff(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "out.golden")

	// Compare against a missing golden points at -update.
	if err := Compare(path, []byte("a\n")); err == nil ||
		!strings.Contains(err.Error(), "-update") {
		t.Fatalf("missing golden: %v", err)
	}

	// Write creates parent directories.
	if err := Write(path, []byte("a\nb\n")); err != nil {
		t.Fatal(err)
	}
	if err := Compare(path, []byte("a\nb\n")); err != nil {
		t.Fatalf("clean compare: %v", err)
	}

	// A mismatch names the first diverging line in the error.
	err := Compare(path, []byte("a\nc\n"))
	if err == nil || !strings.Contains(err.Error(), "c") {
		t.Fatalf("mismatch: %v", err)
	}

	// Unreadable path surfaces the underlying error.
	if err := os.Chmod(filepath.Dir(path), 0o000); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(filepath.Dir(path), 0o755)
	if os.Getuid() != 0 { // root ignores modes; skip the bit under root
		if err := Compare(path, []byte("a\n")); err == nil {
			t.Fatal("unreadable golden accepted")
		}
	}
}

func TestDiffTruncates(t *testing.T) {
	want := []byte(strings.Repeat("same\n", 10) + strings.Repeat("x", 5000) + "\n")
	got := []byte(strings.Repeat("same\n", 10) + strings.Repeat("y", 5000) + "\n")
	d := Diff(want, got)
	if d == "" {
		t.Fatal("no diff for differing inputs")
	}
	if len(d) > 6000 {
		t.Fatalf("diff not truncated: %d bytes", len(d))
	}
	if Diff(want, want) != "" {
		t.Fatal("diff for identical inputs")
	}
}

// recorder stands in for *testing.T so a failing Check can be observed
// without failing the test that provokes it.
type recorder struct {
	logs, errors, fatals []string
}

func (r *recorder) Helper() {}
func (r *recorder) Logf(format string, args ...any) {
	r.logs = append(r.logs, fmt.Sprintf(format, args...))
}
func (r *recorder) Errorf(format string, args ...any) {
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}
func (r *recorder) Fatalf(format string, args ...any) {
	r.fatals = append(r.fatals, fmt.Sprintf(format, args...))
}

func TestCheckHonoursUpdateGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.golden")
	if err := Write(path, []byte("old\n")); err != nil {
		t.Fatal(err)
	}
	read := func() string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// Unset: a differing file is reported and left untouched.
	t.Setenv(updateEnv, "")
	r := &recorder{}
	Check(r, path, []byte("new\n"))
	if len(r.errors) != 1 || !strings.Contains(r.errors[0], updateEnv) || len(r.fatals) != 0 {
		t.Fatalf("compare mode: errors %q, fatals %q", r.errors, r.fatals)
	}
	if got := read(); got != "old\n" {
		t.Fatalf("compare mode rewrote the golden: %q", got)
	}

	// Set: rewritten and logged, then compares clean.
	t.Setenv(updateEnv, "1")
	r = &recorder{}
	Check(r, path, []byte("new\n"))
	if len(r.errors)+len(r.fatals) != 0 || len(r.logs) != 1 {
		t.Fatalf("update mode: %+v", r)
	}
	if got := read(); got != "new\n" {
		t.Fatalf("update mode left %q", got)
	}
	t.Setenv(updateEnv, "")
	r = &recorder{}
	Check(r, path, []byte("new\n"))
	if len(r.errors)+len(r.fatals)+len(r.logs) != 0 {
		t.Fatalf("clean compare after update: %+v", r)
	}

	// An unwritable path under update is fatal, not silently skipped.
	t.Setenv(updateEnv, "1")
	r = &recorder{}
	Check(r, filepath.Join(path, "below-a-file.golden"), []byte("x"))
	if len(r.fatals) != 1 {
		t.Fatalf("unwritable golden: %+v", r)
	}
}
