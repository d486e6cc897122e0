package kde

import (
	"math"
	"testing"

	"udm/internal/dataset"
	"udm/internal/kernel"
	"udm/internal/microcluster"
	"udm/internal/rng"
)

// gauss2 builds an n-row 2-dim dataset of two Gaussian blobs with
// constant per-entry error e.
func gauss2(n int, e float64, seed int64) *dataset.Dataset {
	r := rng.New(seed)
	d := dataset.New("x", "y")
	for i := 0; i < n; i++ {
		var row []float64
		if i%2 == 0 {
			row = []float64{r.Norm(-2, 0.7), r.Norm(0, 1)}
		} else {
			row = []float64{r.Norm(2, 0.7), r.Norm(0, 1)}
		}
		var er []float64
		if e > 0 {
			er = []float64{e, e}
		}
		_ = d.Append(row, er, dataset.Unlabeled)
	}
	return d
}

func TestNewPointRejectsBadInput(t *testing.T) {
	if _, err := NewPoint(dataset.New("x"), Options{}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestPointDensityIntegratesToOne(t *testing.T) {
	d := gauss2(200, 0.5, 2)
	for _, adjust := range []bool{false, true} {
		k, err := NewPoint(d, Options{ErrorAdjust: adjust})
		if err != nil {
			t.Fatal(err)
		}
		m := Mass1D(k, 0, -40, 40, 4000)
		if math.Abs(m-1) > 1e-3 {
			t.Errorf("adjust=%v: 1-D mass = %v", adjust, m)
		}
	}
}

func TestPointDensityPeaksNearModes(t *testing.T) {
	d := gauss2(400, 0, 3)
	k, err := NewPoint(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	atMode := k.DensitySub([]float64{-2, 0}, []int{0})
	atTrough := k.DensitySub([]float64{0, 0}, []int{0})
	if atMode <= atTrough {
		t.Fatalf("density at mode %v <= trough %v", atMode, atTrough)
	}
}

func TestErrorAdjustmentSmoothsDensity(t *testing.T) {
	// With large errors the adjusted estimate must be flatter: lower at
	// the modes, higher in the trough, than the unadjusted estimate.
	d := gauss2(400, 2.0, 4)
	plain, err := NewPoint(d, Options{ErrorAdjust: false})
	if err != nil {
		t.Fatal(err)
	}
	adj, err := NewPoint(d, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	if !(adj.DensitySub([]float64{-2, 0}, []int{0}) < plain.DensitySub([]float64{-2, 0}, []int{0})) {
		t.Error("adjusted density at mode should be lower")
	}
	if !(adj.DensitySub([]float64{0, 0}, []int{0}) > plain.DensitySub([]float64{0, 0}, []int{0})) {
		t.Error("adjusted density at trough should be higher")
	}
}

func TestSubspaceProductStructure(t *testing.T) {
	// For a single point, the 2-D density is the product of the 1-D ones.
	d := dataset.New("a", "b")
	_ = d.Append([]float64{1, 2}, nil, dataset.Unlabeled)
	k, err := NewPoint(d, Options{Bandwidth: kernel.Bandwidth{Rule: kernel.Fixed, Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{1.3, 1.5}
	full := k.Density(q)
	want := k.DensitySub(q, []int{0}) * k.DensitySub(q, []int{1})
	if math.Abs(full-want) > 1e-15 {
		t.Fatalf("product structure violated: %v vs %v", full, want)
	}
}

func TestDensityNonNegativeAndFinite(t *testing.T) {
	d := gauss2(100, 1, 5)
	k, err := NewPoint(d, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]float64{{0, 0}, {-100, 100}, {3, -3}} {
		v := k.Density(q)
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("density(%v) = %v", q, v)
		}
	}
}

func TestPaperKernelLowersMass(t *testing.T) {
	d := gauss2(100, 1.5, 6)
	norm, err := NewPoint(d, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	paper, err := NewPoint(d, Options{ErrorAdjust: true, PaperKernel: true})
	if err != nil {
		t.Fatal(err)
	}
	mN := Mass1D(norm, 0, -50, 50, 4000)
	mP := Mass1D(paper, 0, -50, 50, 4000)
	if !(mP < mN) {
		t.Fatalf("paper-kernel mass %v should be below normalized %v", mP, mN)
	}
	if math.Abs(mN-1) > 1e-3 {
		t.Fatalf("normalized mass = %v", mN)
	}
}

func TestClusterKDEMatchesPointKDEWhenOneClusterPerPoint(t *testing.T) {
	// With q >= N every micro-cluster holds exactly one point, Δ = ψ, and
	// Eq. 10 degenerates to Eq. 4 (up to the shared bandwidth source).
	d := gauss2(60, 0.8, 7)
	s := microcluster.Build(d, 60, nil)
	ck, err := NewCluster(s, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	pk, err := NewPoint(d, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]float64{{-2, 0}, {0, 0}, {2, 1}} {
		a, b := ck.Density(q), pk.Density(q)
		if math.Abs(a-b) > 0.02*(a+b) {
			t.Fatalf("densities diverge at %v: cluster %v vs point %v", q, a, b)
		}
	}
}

func TestClusterKDEFidelityImprovesWithQ(t *testing.T) {
	// Average |f_q − f_exact| over probe points must shrink as q grows —
	// the granularity argument of §2.1.
	d := gauss2(500, 0.5, 8)
	pk, err := NewPoint(d, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	probes := [][]float64{{-3, 0}, {-2, 0}, {-1, 0}, {0, 0}, {1, 0}, {2, 0}, {3, 0}}
	errAt := func(q int) float64 {
		s := microcluster.Build(d, q, rng.New(9))
		ck, err := NewCluster(s, Options{ErrorAdjust: true})
		if err != nil {
			t.Fatal(err)
		}
		var tot float64
		for _, p := range probes {
			tot += math.Abs(ck.Density(p) - pk.Density(p))
		}
		return tot
	}
	e5, e100 := errAt(5), errAt(100)
	if !(e100 < e5) {
		t.Fatalf("fidelity did not improve: q=5 err %v, q=100 err %v", e5, e100)
	}
}

func TestClusterKDEWeightsBySize(t *testing.T) {
	// Two clusters, one with 9 points at -5 and one with 1 point at +5:
	// density near -5 must dominate.
	s := microcluster.NewSummarizer(2, 1)
	for i := 0; i < 9; i++ {
		s.Add([]float64{-5 + 0.01*float64(i)}, nil)
	}
	s.Add([]float64{5}, nil)
	k, err := NewCluster(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(k.Density([]float64{-5}) > 5*k.Density([]float64{5})) {
		t.Fatalf("weighting wrong: %v vs %v",
			k.Density([]float64{-5}), k.Density([]float64{5}))
	}
	if k.Clusters() != 2 || k.Count() != 10 {
		t.Fatalf("Clusters/Count = %d/%d", k.Clusters(), k.Count())
	}
}

func TestClusterKDENoAdjustStillUsesVariance(t *testing.T) {
	// Cluster spread contributes to Δ even when error adjustment is off.
	s := microcluster.NewSummarizer(1, 1)
	for _, v := range []float64{-1, 1} {
		s.Add([]float64{v}, []float64{5}) // big recorded errors
	}
	adj, err := NewCluster(s, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewCluster(s, Options{ErrorAdjust: false})
	if err != nil {
		t.Fatal(err)
	}
	// Ignoring the ψ statistics must sharpen the kernel at the centroid.
	if !(plain.Density([]float64{0}) > adj.Density([]float64{0})) {
		t.Fatal("ErrorAdjust=false did not drop the EF2 widening")
	}
}

func TestNewClusterRejectsEmpty(t *testing.T) {
	if _, err := NewCluster(microcluster.NewSummarizer(3, 1), Options{}); err == nil {
		t.Fatal("empty summarizer accepted")
	}
}

func TestDensityPanicsOnBadQuery(t *testing.T) {
	d := gauss2(10, 0, 10)
	k, err := NewPoint(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short query did not panic")
			}
		}()
		k.Density([]float64{1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad subspace did not panic")
			}
		}()
		k.DensitySub([]float64{1, 2}, []int{5})
	}()
}

func TestBandwidthForExposed(t *testing.T) {
	d := gauss2(100, 0, 11)
	k, _ := NewPoint(d, Options{})
	if k.BandwidthFor(0) <= 0 || k.BandwidthFor(1) <= 0 {
		t.Fatal("bandwidths must be positive")
	}
	s := microcluster.Build(d, 10, nil)
	ck, _ := NewCluster(s, Options{})
	if ck.BandwidthFor(0) <= 0 {
		t.Fatal("cluster bandwidth must be positive")
	}
}
