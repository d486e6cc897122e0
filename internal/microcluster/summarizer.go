package microcluster

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"udm/internal/dataset"
	"udm/internal/rng"
)

// Summarizer condenses a stream of error-bearing records into at most q
// error-based micro-clusters, following the maintenance policy of §2.1:
// the first q distinct records seed the q clusters, every later record is
// assigned to its nearest centroid under the error-adjusted distance of
// Eq. (5), and clusters are never created beyond q nor discarded, so
// every record is reflected in the statistics.
//
// A Summarizer is not safe for concurrent mutation: Add/AddAt must be
// serialized by the caller. Once construction is finished, the
// read-only methods (Nearest, Feature, Centroid, Sigmas, Density
// consumers, Save) are safe to call from any number of goroutines
// concurrently — this is the contract the parallel batch-evaluation
// engine (internal/parallel, kde.DensityBatchOpts) relies on, and it is
// exercised under the race detector in race_test.go.
type Summarizer struct {
	q     int
	d     int
	feats []*Feature
	cents [][]float64 // cached centroids, updated on every Add
	clock int64       // auto-timestamp when AddAt is not used
}

// NewSummarizer returns a Summarizer holding at most q micro-clusters
// over d-dimensional records. It panics if q < 1 or d < 1.
func NewSummarizer(q, d int) *Summarizer {
	if q < 1 {
		panic(fmt.Sprintf("microcluster: q=%d clusters", q))
	}
	if d < 1 {
		panic(fmt.Sprintf("microcluster: d=%d dimensions", d))
	}
	return &Summarizer{q: q, d: d}
}

// MaxClusters returns the configured maximum number of micro-clusters q.
func (s *Summarizer) MaxClusters() int { return s.q }

// Dims returns the record dimensionality.
func (s *Summarizer) Dims() int { return s.d }

// Len returns the number of micro-clusters currently in use (≤ q).
func (s *Summarizer) Len() int { return len(s.feats) }

// Count returns the total number of records summarized.
func (s *Summarizer) Count() int {
	n := 0
	for _, f := range s.feats {
		n += f.N
	}
	return n
}

// Add folds one record into the summary using an automatic timestamp
// (one tick per record).
func (s *Summarizer) Add(x, err []float64) {
	s.clock++
	s.AddAt(x, err, s.clock)
}

// AddAt folds one record with an explicit timestamp.
func (s *Summarizer) AddAt(x, err []float64, ts int64) {
	if len(x) != s.d {
		panic(fmt.Sprintf("microcluster: record has %d dims, summarizer has %d", len(x), s.d))
	}
	if len(s.feats) < s.q {
		f := NewFeature(s.d)
		f.Add(x, err, ts)
		s.feats = append(s.feats, f)
		s.cents = append(s.cents, f.Centroid(nil))
		return
	}
	best := s.Nearest(x, err)
	s.feats[best].Add(x, err, ts)
	s.feats[best].Centroid(s.cents[best])
}

// Nearest returns the index of the centroid nearest to x under the
// error-adjusted distance of Eq. (5). It panics when the summarizer is
// empty.
func (s *Summarizer) Nearest(x, err []float64) int {
	if len(s.feats) == 0 {
		panic("microcluster: Nearest on empty summarizer")
	}
	best, bestD := 0, Dist2(x, s.cents[0], err)
	for i := 1; i < len(s.cents); i++ {
		if d := Dist2(x, s.cents[i], err); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Feature returns the i-th micro-cluster summary (not a copy).
func (s *Summarizer) Feature(i int) *Feature { return s.feats[i] }

// Features returns the underlying micro-cluster summaries (not copies).
func (s *Summarizer) Features() []*Feature { return s.feats }

// Centroid returns the cached centroid of cluster i (not a copy).
func (s *Summarizer) Centroid(i int) []float64 { return s.cents[i] }

// Build summarizes an entire dataset into at most q micro-clusters. Rows
// are streamed in a random order drawn from r, which realizes the paper's
// "q centroids are chosen randomly" seeding: the first q rows of the
// shuffle become the seeds. A nil r streams rows in dataset order.
func Build(ds *dataset.Dataset, q int, r *rng.Source) *Summarizer {
	s := NewSummarizer(q, ds.Dims())
	order := make([]int, ds.Len())
	for i := range order {
		order[i] = i
	}
	if r != nil {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, i := range order {
		s.Add(ds.X[i], ds.ErrRow(i))
	}
	return s
}

// snapshot is the gob wire form of a Summarizer.
type snapshot struct {
	Q, D  int
	Feats []Feature
	Clock int64
}

// Save serializes the summarizer to w with encoding/gob.
func (s *Summarizer) Save(w io.Writer) error {
	snap := snapshot{Q: s.q, D: s.d, Clock: s.clock}
	snap.Feats = make([]Feature, len(s.feats))
	for i, f := range s.feats {
		snap.Feats[i] = *f
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("microcluster: encoding summarizer: %w", err)
	}
	return nil
}

// Load deserializes a summarizer previously written by Save.
func Load(r io.Reader) (*Summarizer, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("microcluster: decoding summarizer: %w", err)
	}
	if snap.Q < 1 || snap.D < 1 {
		return nil, fmt.Errorf("microcluster: corrupt snapshot (q=%d, d=%d)", snap.Q, snap.D)
	}
	s := NewSummarizer(snap.Q, snap.D)
	s.clock = snap.Clock
	for i := range snap.Feats {
		f := snap.Feats[i].Clone()
		if f.Dims() != snap.D || f.N == 0 {
			return nil, fmt.Errorf("microcluster: corrupt feature %d in snapshot", i)
		}
		s.feats = append(s.feats, f)
		s.cents = append(s.cents, f.Centroid(nil))
	}
	return s, nil
}

// FromFeatures builds a read-mostly Summarizer view over existing
// feature summaries (deep-copied; empty features are dropped). Useful
// for analyzing a time window extracted by Feature.Sub. It returns an
// error when the features disagree on dimensionality or none is
// non-empty.
func FromFeatures(feats []*Feature) (*Summarizer, error) {
	var kept []*Feature
	d := 0
	for i, f := range feats {
		if f == nil {
			return nil, fmt.Errorf("microcluster: nil feature %d", i)
		}
		if d == 0 {
			d = f.Dims()
		}
		if f.Dims() != d {
			return nil, fmt.Errorf("microcluster: feature %d has %d dims, want %d", i, f.Dims(), d)
		}
		if f.N > 0 {
			kept = append(kept, f.Clone())
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("microcluster: no non-empty features")
	}
	s := NewSummarizer(len(kept), d)
	for _, f := range kept {
		s.feats = append(s.feats, f)
		s.cents = append(s.cents, f.Centroid(nil))
	}
	return s, nil
}

// TotalFeature returns the merge of all micro-clusters: the summary the
// whole data set would have as a single cluster. Useful for global
// statistics (per-dimension σ for bandwidth selection).
func (s *Summarizer) TotalFeature() *Feature {
	total := NewFeature(s.d)
	for _, f := range s.feats {
		total.Merge(f)
	}
	return total
}

// Sigmas returns the per-dimension standard deviations of all summarized
// records, computed from the merged feature.
func (s *Summarizer) Sigmas() []float64 {
	total := s.TotalFeature()
	if total.N == 0 {
		return make([]float64, s.d)
	}
	out := make([]float64, s.d)
	for j := range out {
		out[j] = math.Sqrt(total.Variance(j))
	}
	return out
}
