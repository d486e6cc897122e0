package kernel

import "testing"

func BenchmarkGaussianEval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Gaussian(1.3, 0.2, 0.8)
	}
}

func BenchmarkErrAdjustedNormalized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = ErrAdjustedNormalized(1.3, 0.2, 0.8, 0.5)
	}
}

func BenchmarkErrAdjustedPaper(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = ErrAdjustedPaper(1.3, 0.2, 0.8, 0.5)
	}
}

func BenchmarkSilvermanFromValues(b *testing.B) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i%17) * 0.3
	}
	rule := Bandwidth{Rule: Silverman}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rule.FromValues(v, 4)
	}
}
