package kde

import (
	"math"
	"testing"

	"udm/internal/dataset"
	"udm/internal/kernel"
	"udm/internal/microcluster"
)

// singlePoint builds a dataset of one exact point at the origin.
func singlePoint(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := dataset.New("x")
	if err := d.Append([]float64{0}, []float64{0}, dataset.Unlabeled); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDensityQAnalytic(t *testing.T) {
	// One point at 0, fixed bandwidth h: DensityQ at x with query error q
	// must be exactly N(x; 0, h² + q²).
	d := singlePoint(t)
	const h = 0.8
	est, err := NewPoint(d, Options{
		ErrorAdjust: true,
		Bandwidth:   kernel.Bandwidth{Rule: kernel.Fixed, Value: h},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ x, q float64 }{{0, 0}, {1, 0.5}, {2, 3}, {-1.5, 1}} {
		got := est.DensityQ([]float64{tc.x}, []float64{tc.q}, []int{0})
		sigma := math.Sqrt(h*h + tc.q*tc.q)
		want := math.Exp(-tc.x*tc.x/(2*sigma*sigma)) / (sigma * math.Sqrt(2*math.Pi))
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("DensityQ(%v, q=%v) = %v, want %v", tc.x, tc.q, got, want)
		}
	}
	// Nil query error reduces to DensitySub.
	if got, want := est.DensityQ([]float64{1}, nil, []int{0}),
		est.DensitySub([]float64{1}, []int{0}); got != want {
		t.Fatalf("nil qerr: %v vs %v", got, want)
	}
}

func TestDensityQWideningLowersFarPenalty(t *testing.T) {
	d := gauss2(300, 0.2, 40)
	est, err := NewPoint(d, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	far := []float64{15, 0}
	exact := est.DensityQ(far, []float64{0, 0}, []int{0, 1})
	fuzzy := est.DensityQ(far, []float64{10, 10}, []int{0, 1})
	if !(fuzzy > exact) {
		t.Fatalf("uncertain query %v should have higher expected density than exact %v", fuzzy, exact)
	}
}

func TestDensityQPanics(t *testing.T) {
	d := gauss2(20, 0, 41)
	est, err := NewPoint(d, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"short qerr": func() { est.DensityQ([]float64{0, 0}, []float64{1}, []int{0}) },
		"bad dims":   func() { est.DensityQ([]float64{0, 0}, []float64{1, 1}, []int{9}) },
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

func TestLeaveOneOutDensityQDirect(t *testing.T) {
	// Three points; LOO-Q at point 0 must equal the hand-computed sum of
	// the other two kernels widened by point 0's own error.
	d := dataset.New("x")
	_ = d.Append([]float64{0}, []float64{2}, dataset.Unlabeled)
	_ = d.Append([]float64{1}, []float64{0}, dataset.Unlabeled)
	_ = d.Append([]float64{-1}, []float64{1}, dataset.Unlabeled)
	const h = 0.5
	est, err := NewPoint(d, Options{
		ErrorAdjust: true,
		Bandwidth:   kernel.Bandwidth{Rule: kernel.Fixed, Value: h},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := est.LeaveOneOutDensityQ(0, []int{0})
	norm := func(x, sigma2 float64) float64 {
		return math.Exp(-x*x/(2*sigma2)) / math.Sqrt(2*math.Pi*sigma2)
	}
	// Contribution of point 1 (ψ=0) with query error 2: var = h²+0+4.
	// Contribution of point 2 (ψ=1): var = h²+1+4.
	want := (norm(1, h*h+4) + norm(1, h*h+1+4)) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("LOO-Q = %v, want %v", got, want)
	}
}

func TestLeaveOneOutDensityQEdges(t *testing.T) {
	d := singlePoint(t)
	est, err := NewPoint(d, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := est.LeaveOneOutDensityQ(0, []int{0}); got != 0 {
		t.Fatalf("single-point LOO-Q = %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range LOO-Q did not panic")
			}
		}()
		est.LeaveOneOutDensityQ(3, []int{0})
	}()
	// Without error adjustment LOO-Q equals plain LOO.
	d2 := gauss2(50, 1, 42)
	plain, err := NewPoint(d2, Options{ErrorAdjust: false})
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{0, 1}
	if a, b := plain.LeaveOneOutDensityQ(3, dims), plain.LeaveOneOutDensity(3, dims); a != b {
		t.Fatalf("no-adjust LOO-Q %v != LOO %v", a, b)
	}
}

func TestClusterDensityQ(t *testing.T) {
	s := microcluster.NewSummarizer(2, 1)
	for _, v := range []float64{-2, -2, 2, 2} {
		s.Add([]float64{v}, []float64{0.1})
	}
	est, err := NewCluster(s, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	// Nil query error reduces to DensitySub.
	q := []float64{0}
	if got, want := est.DensityQ(q, nil, []int{0}), est.DensitySub(q, []int{0}); got != want {
		t.Fatalf("nil qerr: %v vs %v", got, want)
	}
	// A far query with huge own error sees higher expected density.
	far := []float64{20}
	if !(est.DensityQ(far, []float64{15}, []int{0}) > est.DensityQ(far, []float64{0.01}, []int{0})) {
		t.Fatal("query error did not raise the far expected density")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched qerr did not panic")
			}
		}()
		est.DensityQ([]float64{0}, []float64{1, 2}, []int{0})
	}()
}

func TestPointCountAccessor(t *testing.T) {
	d := gauss2(37, 0, 43)
	est, err := NewPoint(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Count() != 37 {
		t.Fatalf("Count = %d", est.Count())
	}
}
