package main

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"udm/internal/datagen"
	"udm/internal/dataset"
	"udm/internal/density"
	"udm/internal/evalopt"
	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/rng"
	"udm/internal/uncertain"
)

// writeCSV saves a small seeded 2-D data set with error columns.
func writeCSV(t *testing.T) string {
	t.Helper()
	clean, err := datagen.TwoBlobs(3).Generate(300, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := uncertain.Perturb(clean, 0.3, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "blobs.csv")
	if err := noisy.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// reference evaluates the default 1-D grid over dimension x the way the
// library does, from an estimator built straight from the options.
func reference(t *testing.T, path, eval string, q int) (xs, ys []float64) {
	t.Helper()
	ds, err := dataset.LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := evalopt.Parse(eval)
	if err != nil {
		t.Fatal(err)
	}
	opt := kde.Options{ErrorAdjust: ds.HasErrors(), Eval: ev}
	var est kde.Estimator
	if q > 0 {
		est, _, err = density.FromSummarizer(microcluster.Build(ds, q, rng.New(ev.EffSeed())), opt)
	} else {
		est, _, err = density.New(ds, opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ds.MinMax()
	pad := 0.15 * (hi[0] - lo[0])
	xs, ys, err = kde.Grid1DOpts(est, 0, lo[0]-pad, hi[0]+pad, 60, kde.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return xs, ys
}

// parseRows reads the "x f(x)" rows udmkde prints, skipping comments.
func parseRows(t *testing.T, out string) (xs, ys []float64) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("row %q: want two fields", line)
		}
		x, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			t.Fatal(err)
		}
		y, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		xs, ys = append(xs, x), append(ys, y)
	}
	return xs, ys
}

// TestRunMatchesLibrary: every -eval and -q configuration prints the
// library's own grid densities, bit for bit (%g prints the shortest
// form that parses back to the same float64).
func TestRunMatchesLibrary(t *testing.T) {
	path := writeCSV(t)
	for _, c := range []struct {
		name string
		args []string
		eval string
		q    int
	}{
		{"default", nil, "", 0},
		{"micro", []string{"-eval", "micro"}, "micro", 0},
		{"grid", []string{"-eval", "grid,epsilon=0.05"}, "grid,epsilon=0.05", 0},
		{"pruned-approx", []string{"-eval", "prune=1e-6,accuracy=approx(1e-6)"}, "prune=1e-6,accuracy=approx(1e-6)", 0},
		{"summary", []string{"-q", "30"}, "", 30},
		{"summary-grid", []string{"-q", "30", "-eval", "grid"}, "grid", 30},
	} {
		var out bytes.Buffer
		if err := run(append([]string{"-in", path, "-dim", "x"}, c.args...), &out); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		gotX, gotY := parseRows(t, out.String())
		wantX, wantY := reference(t, path, c.eval, c.q)
		if len(gotY) != len(wantY) {
			t.Fatalf("%s: %d rows, want %d", c.name, len(gotY), len(wantY))
		}
		for i := range wantY {
			if math.Float64bits(gotX[i]) != math.Float64bits(wantX[i]) ||
				math.Float64bits(gotY[i]) != math.Float64bits(wantY[i]) {
				t.Fatalf("%s: row %d = (%v, %v), library (%v, %v)", c.name, i, gotX[i], gotY[i], wantX[i], wantY[i])
			}
		}
	}
}

// TestRemovedFlagsFail: the flags that repeated -eval keys are gone.
func TestRemovedFlagsFail(t *testing.T) {
	path := writeCSV(t)
	for _, name := range []string{"-prune", "-approx", "-backend", "-seed"} {
		value := "1e-6"
		if name == "-backend" {
			value = "micro"
		}
		err := run([]string{"-in", path, "-dim", "x", name, value}, &bytes.Buffer{})
		if !errors.Is(err, errUsage) {
			t.Errorf("%s %s: error %v, want a flag-parsing failure", name, value, err)
		}
	}
}
