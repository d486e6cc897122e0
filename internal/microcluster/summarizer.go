package microcluster

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"udm/internal/dataset"
	"udm/internal/num"
	"udm/internal/rng"
	"udm/internal/udmerr"
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

// Load deserializes a summarizer previously written by Save and checks
// Definition 1's invariants, which every summary Add or FromFeatures
// builds holds: q, d ≥ 1; at most q features; each feature d wide with
// n ≥ 1; finite CF1x, CF2x and EF2x; non-negative CF2x and EF2x. Every
// error wraps udmerr.ErrBadData: the bytes often cross a trust boundary
// (uploads, shard pulls, checkpoints), and a summary that broke an
// invariant would answer NaN densities.
func Load(r io.Reader) (*Summarizer, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("microcluster: decoding summarizer: %w: %w", err, udmerr.ErrBadData)
	}
	if snap.Q < 1 || snap.D < 1 || len(snap.Feats) > snap.Q {
		return nil, fmt.Errorf("microcluster: corrupt snapshot (q=%d, d=%d, %d features): %w",
			snap.Q, snap.D, len(snap.Feats), udmerr.ErrBadData)
	}
	s := NewSummarizer(snap.Q, snap.D)
	s.clock = snap.Clock
	for i := range snap.Feats {
		f := snap.Feats[i].Clone()
		if err := f.check(snap.D); err != nil {
			return nil, fmt.Errorf("microcluster: corrupt feature %d in snapshot: %w: %w", i, err, udmerr.ErrBadData)
		}
		s.feats = append(s.feats, f)
		s.cents = append(s.cents, f.Centroid(nil))
	}
	return s, nil
}

// check reports the first Definition-1 invariant a decoded feature
// breaks, for a summary d wide.
func (f *Feature) check(d int) error {
	if len(f.CF1) != d || len(f.CF2) != d || len(f.EF2) != d || f.N < 1 {
		return fmt.Errorf("widths %d/%d/%d for %d dims, n=%d", len(f.CF1), len(f.CF2), len(f.EF2), d, f.N)
	}
	if !num.AllFinite(f.CF1) || !num.AllFinite(f.CF2) || !num.AllFinite(f.EF2) {
		return fmt.Errorf("non-finite sum")
	}
	for j := 0; j < d; j++ {
		if f.CF2[j] < 0 || f.EF2[j] < 0 {
			return fmt.Errorf("negative sum of squares at dimension %d", j)
		}
	}
	return nil
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
