package outlier

import (
	"context"
	"testing"

	"udm/internal/dataset"
	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/rng"
)

func benchData(n int) *dataset.Dataset {
	d := dataset.New("a", "b")
	r := rng.New(1)
	for i := 0; i < n; i++ {
		_ = d.Append([]float64{r.Norm(0, 1), r.Norm(0, 1)},
			[]float64{0.1, 0.1}, dataset.Unlabeled)
	}
	return d
}

func BenchmarkDetect(b *testing.B) {
	d := benchData(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(d, Options{KDE: kde.Options{ErrorAdjust: true}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectQueryError(b *testing.B) {
	d := benchData(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(d, Options{
			UseQueryError: true,
			KDE:           kde.Options{ErrorAdjust: true},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectStream(b *testing.B) {
	s := microcluster.NewSummarizer(100, 2)
	r := rng.New(2)
	for i := 0; i < 5000; i++ {
		s.Add([]float64{r.Norm(0, 1), r.Norm(0, 1)}, []float64{0.1, 0.1})
	}
	queries := make([][]float64, 200)
	for i := range queries {
		queries[i] = []float64{r.Norm(0, 2), r.Norm(0, 2)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DetectStream(context.Background(), s, queries, nil, Options{
			KDE: kde.Options{ErrorAdjust: true},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExplain(b *testing.B) {
	d := benchData(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Explain(d, 42, Options{KDE: kde.Options{ErrorAdjust: true}}); err != nil {
			b.Fatal(err)
		}
	}
}
