package kde

import (
	"math"
	"testing"

	"udm/internal/dataset"
	"udm/internal/kernel"
)

func onePointKDE(t *testing.T) *PointKDE {
	t.Helper()
	d := dataset.New("a", "b")
	if err := d.Append([]float64{0, 0}, nil, dataset.Unlabeled); err != nil {
		t.Fatal(err)
	}
	k, err := NewPoint(d, Options{Bandwidth: kernel.Bandwidth{Rule: kernel.Fixed, Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestGrid1DShapeAndValues(t *testing.T) {
	k := onePointKDE(t)
	xs, ys, err := Grid1DOpts(k, 0, -2, 2, 4, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 5 || len(ys) != 5 {
		t.Fatalf("grid lengths %d/%d", len(xs), len(ys))
	}
	if xs[0] != -2 || xs[4] != 2 || xs[2] != 0 {
		t.Fatalf("grid coords %v", xs)
	}
	// Peak at the center, symmetric.
	if !(ys[2] > ys[0]) || math.Abs(ys[0]-ys[4]) > 1e-12 {
		t.Fatalf("grid values %v", ys)
	}
}

func TestMass1DNearOne(t *testing.T) {
	k := onePointKDE(t)
	if m := Mass1D(k, 0, -10, 10, 2000); math.Abs(m-1) > 1e-4 {
		t.Fatalf("mass = %v", m)
	}
}

func TestGrid2D(t *testing.T) {
	k := onePointKDE(t)
	g, err := Grid2DOpts(k, 0, 1, -1, 1, -1, 1, 2, 2, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 3 || len(g[0]) != 3 {
		t.Fatalf("grid shape %dx%d", len(g), len(g[0]))
	}
	// Center cell has the highest density.
	for iy := range g {
		for ix := range g[iy] {
			if g[iy][ix] > g[1][1] {
				t.Fatalf("cell (%d,%d) above center", iy, ix)
			}
		}
	}
	// 2-D mass via the grid ≈ product structure sanity: center equals
	// product of the 1-D peaks.
	want := k.DensitySub([]float64{0, 0}, []int{0}) * k.DensitySub([]float64{0, 0}, []int{1})
	if math.Abs(g[1][1]-want) > 1e-12 {
		t.Fatalf("center = %v, want %v", g[1][1], want)
	}
}

func TestGridPanics(t *testing.T) {
	k := onePointKDE(t)
	for name, fn := range map[string]func(){
		"n<1":      func() { _, _, _ = Grid1DOpts(k, 0, 0, 1, 0, BatchOptions{}) },
		"hi<=lo":   func() { _, _, _ = Grid1DOpts(k, 0, 1, 1, 10, BatchOptions{}) },
		"2d range": func() { _, _ = Grid2DOpts(k, 0, 1, 0, 0, 0, 1, 2, 2, BatchOptions{}) },
		"2d steps": func() { _, _ = Grid2DOpts(k, 0, 1, 0, 1, 0, 1, 0, 2, BatchOptions{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
