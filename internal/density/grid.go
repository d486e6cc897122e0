package density

import (
	"fmt"
	"math"
	"sort"

	"udm/internal/dataset"
	"udm/internal/evalopt"
	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/udmerr"
)

// The grid backend bins the input into an axis-aligned cell grid and
// evaluates KDE over one pseudo-point per occupied cell — the low-
// dimensional fast rung in the spirit of Wells & Ting
// (arXiv:1707.00783), built on this repo's own primitives: each cell
// accumulates the additive (CF2x, EF2x, CF1x, n) statistics of
// Definition 1 (microcluster.Feature), so the pseudo-point carries the
// cell centroid (exact first moment) and a per-dimension widening Δ
// that matches the within-cell second moment, and evaluation reuses
// the ClusterKDE SoA engine (including pruning) unchanged.
//
// Accuracy: a cell of width w_j holds points at most w_j/2 from its
// centroid, so the within-cell standard deviation obeys s_j ≤ w_j/2.
// Replacing a cell's kernels by one moment-matched widened kernel
// perturbs the density by a relative O((s_j/h_j)²) term per dimension
// (the first two moments cancel exactly), giving the advertised bound
//
//	ε = Σ_j w_j² / (8 h_j²)
//
// for queries inside the data's bounding box. Cell widths are sized
// from Options.Eval's ε budget (w_j = h_j·√(8ε/d), so each dimension
// contributes ε/d), or fixed by the GridCells knob; either way the
// advertised bound is recomputed from the actual widths, so Info is
// honest even when the per-dimension cap bites. Dimensionality is
// limited to evalopt.MaxGridDims — beyond that occupied-cell counts
// approach N and the micro rung is the scalable one.

// newGridFromRows bins raw rows into cells.
func newGridFromRows(ds *dataset.Dataset, opt kde.Options) (*kde.ClusterKDE, Info, error) {
	// Bandwidths must match the exact estimator the bound is stated
	// against, and are passed on explicitly so sizing and evaluation
	// agree.
	h, err := kde.RowBandwidths(ds, opt)
	if err != nil {
		return nil, Info{}, err
	}
	d := ds.Dims()
	lo, hi := ds.MinMax()
	geom, err := gridGeometry(opt.Eval, h, lo, hi)
	if err != nil {
		return nil, Info{}, err
	}
	feats := make(map[uint64]*microcluster.Feature)
	for i, x := range ds.X {
		var er []float64
		if ds.Err != nil {
			er = ds.Err[i]
		}
		key := geom.cell(x)
		f := feats[key]
		if f == nil {
			f = microcluster.NewFeature(d)
			feats[key] = f
		}
		f.Add(x, er, 0)
	}
	return finishGrid(feats, h, geom, opt)
}

// newGridFromSummarizer bins a summary's features into cells by
// centroid, merging their additive statistics — coarser cells over an
// already-compressed input.
func newGridFromSummarizer(s *microcluster.Summarizer, opt kde.Options) (*kde.ClusterKDE, Info, error) {
	h, err := kde.SummaryBandwidths(s, opt)
	if err != nil {
		return nil, Info{}, err
	}
	d := s.Dims()
	lo := make([]float64, d)
	hi := make([]float64, d)
	for j := 0; j < d; j++ {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	cents := make([][]float64, s.Len())
	for i := 0; i < s.Len(); i++ {
		c := s.Feature(i).Centroid(nil)
		cents[i] = c
		for j := 0; j < d; j++ {
			lo[j] = math.Min(lo[j], c[j])
			hi[j] = math.Max(hi[j], c[j])
		}
	}
	geom, err := gridGeometry(opt.Eval, h, lo, hi)
	if err != nil {
		return nil, Info{}, err
	}
	feats := make(map[uint64]*microcluster.Feature)
	for i := 0; i < s.Len(); i++ {
		key := geom.cell(cents[i])
		f := feats[key]
		if f == nil {
			f = microcluster.NewFeature(d)
			feats[key] = f
		}
		f.Merge(s.Feature(i))
	}
	return finishGrid(feats, h, geom, opt)
}

// finishGrid assembles the cell features (in deterministic key order)
// into a ClusterKDE with the explicit bandwidths the sizing used.
func finishGrid(feats map[uint64]*microcluster.Feature, h []float64, geom gridGeom, opt kde.Options) (*kde.ClusterKDE, Info, error) {
	keys := make([]uint64, 0, len(feats))
	for k := range feats {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	ordered := make([]*microcluster.Feature, len(keys))
	for i, k := range keys {
		ordered[i] = feats[k]
	}
	s, err := microcluster.FromFeatures(ordered)
	if err != nil {
		return nil, Info{}, fmt.Errorf("density: assembling grid cells: %w", err)
	}
	inner := opt
	inner.Bandwidths = h
	est, err := kde.NewCluster(s, inner)
	if err != nil {
		return nil, Info{}, err
	}
	eps := geom.epsilon + opt.Eval.Prune + opt.Eval.Accuracy.Epsilon()
	return est, Info{
		Backend: evalopt.BackendGrid,
		Epsilon: eps,
		Contract: fmt.Sprintf("deterministic rel err ≤ %g for in-box queries "+
			"(moment-matched cells, %d occupied)", eps, len(ordered)),
	}, nil
}

// gridGeom is the cell layout: per-dimension origin, width, count, and
// the advertised bound the actual widths imply.
type gridGeom struct {
	lo      []float64
	w       []float64 // cell width; 0 for degenerate (constant) dims
	cells   []int
	stride  []uint64
	epsilon float64
}

// gridGeometry sizes the cells from the evaluation options: GridCells
// fixes the per-dimension resolution, otherwise the ε budget does
// (w_j = h_j·√(8ε/d)), capped at evalopt.MaxGridCells per dimension.
func gridGeometry(eval evalopt.Options, h, lo, hi []float64) (gridGeom, error) {
	d := len(h)
	if d > evalopt.MaxGridDims {
		return gridGeom{}, fmt.Errorf("density: grid backend supports at most %d dimensions, data has %d (use micro): %w",
			evalopt.MaxGridDims, d, udmerr.ErrBadOption)
	}
	g := gridGeom{lo: lo, w: make([]float64, d), cells: make([]int, d), stride: make([]uint64, d)}
	targetW := 0.0
	if eval.GridCells == 0 {
		targetW = math.Sqrt(8 * eval.EffEpsilon() / float64(d))
	}
	stride := uint64(1)
	for j := 0; j < d; j++ {
		span := hi[j] - lo[j]
		cells := 1
		if span > 0 {
			if eval.GridCells > 0 {
				cells = eval.GridCells
			} else {
				cells = int(math.Ceil(span / (targetW * h[j])))
				if cells < 1 {
					cells = 1
				}
				if cells > evalopt.MaxGridCells {
					cells = evalopt.MaxGridCells
				}
			}
			g.w[j] = span / float64(cells)
			g.epsilon += g.w[j] * g.w[j] / (8 * h[j] * h[j])
		}
		g.cells[j] = cells
		g.stride[j] = stride
		stride *= uint64(cells)
	}
	return g, nil
}

// cell maps a point to its linear cell key, clamping out-of-box
// coordinates to the boundary cells.
func (g gridGeom) cell(x []float64) uint64 {
	var key uint64
	for j, w := range g.w {
		if w == 0 {
			continue
		}
		c := int(math.Floor((x[j] - g.lo[j]) / w))
		if c < 0 {
			c = 0
		}
		if c >= g.cells[j] {
			c = g.cells[j] - 1
		}
		key += uint64(c) * g.stride[j]
	}
	return key
}
