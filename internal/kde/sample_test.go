package kde

import (
	"math"
	"testing"

	"udm/internal/microcluster"
	"udm/internal/num"
	"udm/internal/rng"
)

func TestPointSampleMatchesMoments(t *testing.T) {
	d := gauss2(500, 0.5, 30)
	est, err := NewPoint(d, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := est.Sample(20000, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 20000 || len(samples[0]) != 2 {
		t.Fatalf("sample shape %dx%d", len(samples), len(samples[0]))
	}
	// Mean of the samples matches the data mean (mixture is centered on
	// the data); variance matches data variance + bandwidth² + mean ψ².
	var dataM, sampM num.Moments
	for i := range d.X {
		dataM.Add(d.X[i][0])
	}
	for _, s := range samples {
		sampM.Add(s[0])
	}
	if math.Abs(dataM.Mean()-sampM.Mean()) > 0.1 {
		t.Fatalf("sample mean %v vs data mean %v", sampM.Mean(), dataM.Mean())
	}
	wantVar := dataM.Variance() + est.BandwidthFor(0)*est.BandwidthFor(0) + 0.25
	if math.Abs(sampM.Variance()-wantVar) > 0.3 {
		t.Fatalf("sample variance %v vs expected %v", sampM.Variance(), wantVar)
	}
	// Bimodality preserved: few samples in the trough.
	trough := 0
	for _, s := range samples {
		if math.Abs(s[0]) < 0.5 {
			trough++
		}
	}
	if frac := float64(trough) / float64(len(samples)); frac > 0.15 {
		t.Fatalf("trough fraction %v — modes washed out", frac)
	}
}

func TestClusterSampleMatchesDensity(t *testing.T) {
	d := gauss2(1000, 0.3, 32)
	s := microcluster.Build(d, 30, rng.New(33))
	est, err := NewCluster(s, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := est.Sample(30000, rng.New(34))
	if err != nil {
		t.Fatal(err)
	}
	// Empirical mass near each mode matches the integrated density.
	inBand := func(lo, hi float64) float64 {
		n := 0
		for _, smp := range samples {
			if smp[0] >= lo && smp[0] < hi {
				n++
			}
		}
		return float64(n) / float64(len(samples))
	}
	// Mass in the left half should be ≈ 0.5 (balanced blobs).
	if m := inBand(math.Inf(-1), 0); math.Abs(m-0.5) > 0.05 {
		t.Fatalf("left mass %v, want ≈0.5", m)
	}
	// Compare a band's empirical mass to Mass1D over the same band.
	want := Mass1D(est, 0, -3, -1, 400)
	got := inBand(-3, -1)
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("band mass %v vs density integral %v", got, want)
	}
}

func TestSampleValidation(t *testing.T) {
	d := gauss2(20, 0, 35)
	est, err := NewPoint(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Sample(0, rng.New(1)); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := est.Sample(5, nil); err == nil {
		t.Error("nil rng accepted")
	}
	paper, err := NewPoint(d, Options{ErrorAdjust: false, PaperKernel: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := paper.Sample(5, rng.New(1)); err == nil {
		t.Error("paper-kernel sampling accepted")
	}
}

func TestSampleDeterministicUnderSeed(t *testing.T) {
	d := gauss2(50, 0.2, 36)
	est, err := NewPoint(d, Options{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := est.Sample(10, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := est.Sample(10, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i][0] != b[i][0] || a[i][1] != b[i][1] {
			t.Fatal("sampling not deterministic under fixed seed")
		}
	}
}
