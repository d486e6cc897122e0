package driver

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixtureTreeFails is the negative smoke test: the multichecker
// must exit non-zero on the fixture module, which is built to violate
// every analyzer.
func TestFixtureTreeFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Run(&stdout, &stderr, []string{"-C", "../testdata/fixture", "./..."})
	if code != ExitFindings {
		t.Fatalf("exit code %d on fixture tree, want %d\nstdout:\n%s\nstderr:\n%s",
			code, ExitFindings, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, a := range All {
		if !strings.Contains(out, "["+a.Name+"]") {
			t.Errorf("no %s finding on the fixture tree", a.Name)
		}
	}
}

// TestRealTreeClean is the positive smoke test and the gate that keeps
// the repository lint-clean: every analyzer over the whole module, zero
// findings.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree lint skipped in -short mode")
	}
	var stdout, stderr bytes.Buffer
	code := Run(&stdout, &stderr, []string{"-C", "../../..", "./..."})
	if code != ExitClean {
		t.Fatalf("udmlint on the real tree exited %d, want clean\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}

// TestOnlyFilter restricts the run to one analyzer.
func TestOnlyFilter(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Run(&stdout, &stderr, []string{"-C", "../testdata/fixture", "-only", "nakedgo", "./..."})
	if code != ExitFindings {
		t.Fatalf("exit code %d, want %d (stderr: %s)", code, ExitFindings, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[nakedgo]") {
		t.Error("no nakedgo findings under -only nakedgo")
	}
	for _, a := range All {
		if a.Name != "nakedgo" && strings.Contains(out, "["+a.Name+"]") {
			t.Errorf("-only nakedgo leaked %s findings", a.Name)
		}
	}
}

// TestUnknownAnalyzer exercises the registry error path.
func TestUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Run(&stdout, &stderr, []string{"-only", "nosuch"}); code != ExitError {
		t.Fatalf("exit code %d for unknown analyzer, want %d", code, ExitError)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("missing error message, got: %s", stderr.String())
	}
}

// TestList prints the registry.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Run(&stdout, &stderr, []string{"-list"}); code != ExitClean {
		t.Fatalf("exit code %d for -list, want %d", code, ExitClean)
	}
	for _, a := range All {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output missing %s", a.Name)
		}
	}
}

// copyFixture clones the fixture module into a temp dir so -fix can
// mutate it without touching testdata.
func copyFixture(t *testing.T) string {
	t.Helper()
	src := "../testdata/fixture"
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying fixture tree: %v", err)
	}
	return dst
}

// TestFixConvergesAndIsIdempotent drives -fix over a fixture copy: the
// first run applies fixes and converges, every touched file is
// gofmt-clean, and a second -fix run has nothing left to apply.
func TestFixConvergesAndIsIdempotent(t *testing.T) {
	dir := copyFixture(t)
	before := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		before[path] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	var stdout1, stderr1 bytes.Buffer
	if code := Run(&stdout1, &stderr1, []string{"-C", dir, "-fix", "./..."}); code != ExitFindings {
		t.Fatalf("first -fix run exit %d, want %d (unfixable findings remain)\nstdout:\n%s\nstderr:\n%s",
			code, ExitFindings, stdout1.String(), stderr1.String())
	}
	if !strings.Contains(stderr1.String(), "applied") {
		t.Fatalf("first -fix run applied nothing: %s", stderr1.String())
	}

	changed := 0
	for path, orig := range before {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(data, orig) {
			continue
		}
		changed++
		formatted, err := format.Source(data)
		if err != nil {
			t.Errorf("%s does not parse after -fix: %v", path, err)
			continue
		}
		if !bytes.Equal(formatted, data) {
			t.Errorf("%s is not gofmt-clean after -fix", path)
		}
	}
	if changed == 0 {
		t.Fatal("-fix changed no files on the fixture tree")
	}

	// The fixed findings must be gone: no fixable diagnostic survives.
	// (ctxflow's root-context findings and spanend's unbound-result
	// finding carry no fix and legitimately remain.)
	for _, line := range strings.Split(stdout1.String(), "\n") {
		for _, msg := range []string{"is never used", "must be ended by"} {
			if strings.Contains(line, msg) {
				t.Errorf("fixable finding survived -fix: %s", line)
			}
		}
	}

	var stdout2, stderr2 bytes.Buffer
	if code := Run(&stdout2, &stderr2, []string{"-C", dir, "-fix", "./..."}); code != ExitFindings {
		t.Fatalf("second -fix run exit %d, want %d\n%s", code, ExitFindings, stderr2.String())
	}
	if strings.Contains(stderr2.String(), "applied") {
		t.Errorf("second -fix run applied more fixes (not idempotent): %s", stderr2.String())
	}
	if stdout1.String() != stdout2.String() {
		t.Errorf("findings differ between -fix runs:\nfirst:\n%s\nsecond:\n%s", stdout1.String(), stdout2.String())
	}
}
