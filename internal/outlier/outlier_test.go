package outlier

import (
	"context"
	"errors"
	"math"
	"testing"

	"udm/internal/dataset"
	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/rng"
	"udm/internal/udmerr"
)

// blobWithOutliers builds a tight 2-D blob plus explicit far-away rows.
func blobWithOutliers(t *testing.T, n int, outliers [][]float64) *dataset.Dataset {
	t.Helper()
	d := dataset.New("x", "y")
	r := rng.New(1)
	for i := 0; i < n; i++ {
		if err := d.Append([]float64{r.Norm(0, 1), r.Norm(0, 1)}, nil, dataset.Unlabeled); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range outliers {
		if err := d.Append(o, nil, dataset.Unlabeled); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestDetectFlagsIsolatedPoints(t *testing.T) {
	d := blobWithOutliers(t, 200, [][]float64{{15, 15}, {-20, 5}})
	res, err := Detect(d, Options{Contamination: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly ceil(0.01 * 202) = 3 flags; both planted outliers among them.
	flagged := 0
	for _, f := range res.Outlier {
		if f {
			flagged++
		}
	}
	if flagged != 3 {
		t.Fatalf("flagged %d, want 3", flagged)
	}
	if !res.Outlier[200] || !res.Outlier[201] {
		t.Fatal("planted outliers not flagged")
	}
	// Their scores dominate the blob's.
	if !(res.Scores[200] > res.Scores[0] && res.Scores[201] > res.Scores[0]) {
		t.Fatal("outlier scores not above blob scores")
	}
}

func TestLeaveOneOutMatters(t *testing.T) {
	// Without LOO, an isolated point's own kernel gives it non-trivial
	// density; with LOO its density collapses. Check the isolated point's
	// LOO density is far below its plain density.
	d := blobWithOutliers(t, 100, [][]float64{{30, 30}})
	est, err := kde.NewPoint(d, kde.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{0, 1}
	plain := est.DensitySub(d.X[100], dims)
	loo := est.LeaveOneOutDensity(100, dims)
	if !(loo < plain/10) {
		t.Fatalf("LOO %v not far below plain %v for an isolated point", loo, plain)
	}
}

func TestErrorForgiveness(t *testing.T) {
	// Two displaced points, same position: one with a large known error
	// (its displacement is explicable), one claiming to be exact. With
	// error adjustment, the high-error point's wide kernel spreads its
	// own neighborhood — its LOO density at the blob's edge stays higher
	// relative to the exact point's.
	d := dataset.New("x")
	r := rng.New(2)
	for i := 0; i < 200; i++ {
		_ = d.Append([]float64{r.Norm(0, 1)}, []float64{0.01}, dataset.Unlabeled)
	}
	_ = d.Append([]float64{6}, []float64{6}, dataset.Unlabeled)    // noisy sensor
	_ = d.Append([]float64{6}, []float64{0.01}, dataset.Unlabeled) // claims exact
	res, err := Detect(d, Options{Contamination: 0.005, KDE: kde.Options{ErrorAdjust: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Scores[201] > res.Scores[200]) {
		t.Fatalf("exact-claim score %v should exceed noisy-sensor score %v",
			res.Scores[201], res.Scores[200])
	}
}

func TestDetectValidation(t *testing.T) {
	d := blobWithOutliers(t, 1, nil)
	if _, err := Detect(d, Options{}); err == nil {
		t.Error("single record accepted")
	}
	d2 := blobWithOutliers(t, 10, nil)
	if _, err := Detect(d2, Options{Contamination: 1}); err == nil {
		t.Error("contamination 1 accepted")
	}
	if _, err := Detect(d2, Options{Contamination: -0.1}); err == nil {
		t.Error("negative contamination accepted")
	}
}

func TestDetectDefaultContamination(t *testing.T) {
	d := blobWithOutliers(t, 100, nil)
	res, err := Detect(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	flagged := 0
	for _, f := range res.Outlier {
		if f {
			flagged++
		}
	}
	if flagged != 5 { // ceil(0.05*100)
		t.Fatalf("default contamination flagged %d, want 5", flagged)
	}
}

func TestDetectSubspace(t *testing.T) {
	// A point anomalous only in dim 1: scoring over dim 0 alone must not
	// flag it above the crowd.
	d := dataset.New("a", "b")
	r := rng.New(3)
	for i := 0; i < 100; i++ {
		_ = d.Append([]float64{r.Norm(0, 1), r.Norm(0, 1)}, nil, dataset.Unlabeled)
	}
	_ = d.Append([]float64{0, 40}, nil, dataset.Unlabeled)
	full, err := Detect(d, Options{Contamination: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Outlier[100] {
		t.Fatal("full-space detection missed the planted outlier")
	}
	sub, err := Detect(d, Options{Contamination: 0.01, Dims: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Outlier[100] && sub.Scores[100] > sub.Threshold {
		t.Fatal("dim-0-only detection should not single out a dim-1 anomaly")
	}
}

func TestDetectStream(t *testing.T) {
	s := microcluster.NewSummarizer(10, 1)
	r := rng.New(4)
	for i := 0; i < 1000; i++ {
		s.Add([]float64{r.Norm(0, 1)}, []float64{0.1})
	}
	queries := [][]float64{{0}, {0.5}, {25}}
	res, err := DetectStream(context.Background(), s, queries, nil, Options{Contamination: 0.3, KDE: kde.Options{ErrorAdjust: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outlier[2] || res.Outlier[0] || res.Outlier[1] {
		t.Fatalf("flags %v, want only the far query", res.Outlier)
	}
	if !math.IsInf(res.Scores[2], 0) && res.Scores[2] <= res.Scores[0] {
		t.Fatal("far query should score highest")
	}
	if _, err := DetectStream(context.Background(), s, nil, nil, Options{}); err == nil {
		t.Error("empty queries accepted")
	}
	if _, err := DetectStream(context.Background(), s, queries, [][]float64{{1}}, Options{}); err == nil {
		t.Error("mismatched query errors accepted")
	}
}

func TestDetectStreamQueryError(t *testing.T) {
	// Same far query twice: once exact, once with a huge own error. With
	// UseQueryError the uncertain one is judged less surprising.
	s := microcluster.NewSummarizer(10, 1)
	r := rng.New(5)
	for i := 0; i < 1000; i++ {
		s.Add([]float64{r.Norm(0, 1)}, []float64{0.1})
	}
	queries := [][]float64{{12}, {12}}
	qerrs := [][]float64{{0.01}, {12}}
	res, err := DetectStream(context.Background(), s, queries, qerrs, Options{
		Contamination: 0.5,
		UseQueryError: true,
		KDE:           kde.Options{ErrorAdjust: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Scores[0] > res.Scores[1]) {
		t.Fatalf("exact query score %v should exceed uncertain query score %v",
			res.Scores[0], res.Scores[1])
	}
}

// TestDetectStreamMalformedRows: a query row or an error row of the
// wrong width is an error wrapping ErrDimensionMismatch, not a panic.
func TestDetectStreamMalformedRows(t *testing.T) {
	s := microcluster.NewSummarizer(10, 2)
	r := rng.New(6)
	for i := 0; i < 200; i++ {
		s.Add([]float64{r.Norm(0, 1), r.Norm(0, 1)}, []float64{0.1, 0.1})
	}
	opt := Options{UseQueryError: true, KDE: kde.Options{ErrorAdjust: true}}
	for _, tc := range []struct {
		name           string
		queries, qerrs [][]float64
	}{
		{"query row", [][]float64{{0, 0}, {1}}, nil},
		{"error row", [][]float64{{0, 0}, {1, 1}}, [][]float64{nil, {0.1}}},
	} {
		_, err := DetectStream(context.Background(), s, tc.queries, tc.qerrs, opt)
		if !errors.Is(err, udmerr.ErrDimensionMismatch) {
			t.Errorf("%s: got %v, want ErrDimensionMismatch", tc.name, err)
		}
	}
}

func TestDetectQueryErrorForgivesIsolatedHighError(t *testing.T) {
	// An isolated reading with a huge OWN error is consistent with the
	// bulk once its error distribution is integrated over; an identical
	// reading claiming exactness is not. Plain LOO cannot see this (the
	// own kernel is excluded); UseQueryError can.
	d := dataset.New("x")
	r := rng.New(6)
	for i := 0; i < 300; i++ {
		_ = d.Append([]float64{r.Norm(0, 1)}, []float64{0.05}, dataset.Unlabeled)
	}
	_ = d.Append([]float64{9}, []float64{9}, dataset.Unlabeled)     // honest big error
	_ = d.Append([]float64{-9}, []float64{0.05}, dataset.Unlabeled) // claims exact
	res, err := Detect(d, Options{
		Contamination: 1.0 / 302.0,
		UseQueryError: true,
		KDE:           kde.Options{ErrorAdjust: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outlier[301] {
		t.Fatal("exact-claim reading not flagged")
	}
	if res.Outlier[300] {
		t.Fatal("honest high-error reading flagged despite UseQueryError")
	}
	if !(res.Scores[301] > res.Scores[300]+2) {
		t.Fatalf("score gap too small: exact %v vs uncertain %v",
			res.Scores[301], res.Scores[300])
	}
}

func TestUseQueryErrorRequiresErrorAdjust(t *testing.T) {
	d := blobWithOutliers(t, 10, nil)
	if _, err := Detect(d, Options{UseQueryError: true}); err == nil {
		t.Fatal("UseQueryError without ErrorAdjust accepted")
	}
}

func TestLeaveOneOutPanicsAndDegenerate(t *testing.T) {
	d := dataset.New("x")
	_ = d.Append([]float64{1}, nil, dataset.Unlabeled)
	est, err := kde.NewPoint(d, kde.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := est.LeaveOneOutDensity(0, []int{0}); got != 0 {
		t.Fatalf("single-point LOO = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index did not panic")
		}
	}()
	est.LeaveOneOutDensity(5, []int{0})
}
