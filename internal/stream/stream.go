// Package stream generalizes the micro-cluster transform to unbounded
// data streams, the setting §2.1 of the paper targets: records arrive
// with timestamps, are folded into a fixed set of error-based
// micro-clusters in O(q·d) per record, and periodic snapshots of the
// additive statistics enable offline analysis over arbitrary time
// windows by subtraction (the CluStream-style tilted-time design, valid
// here because clusters are never created past q nor discarded).
//
// The Engine is safe for concurrent producers.
package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"udm/internal/faultinject"
	"udm/internal/microcluster"
	"udm/internal/udmerr"
)

// checkpointFault guards the engine-checkpoint encoder: armed with an
// error it fails the Save outright, armed with truncation it produces a
// deterministically torn checkpoint (which LoadEngine must then reject
// as ErrBadData). Disarmed it costs one atomic load per Save.
var checkpointFault = faultinject.NewPoint("stream.checkpoint.encode")

// Snapshot is the full micro-cluster state at one instant.
type Snapshot struct {
	// At is the timestamp of the last record included.
	At int64
	// Count is the number of records summarized up to At.
	Count int
	// Feats deep-copies the per-cluster summaries.
	Feats []*microcluster.Feature
}

// Options configure a stream Engine.
type Options struct {
	// MicroClusters is the number q of micro-clusters (required ≥ 1).
	MicroClusters int
	// Dims is the record dimensionality (required ≥ 1).
	Dims int
	// SnapshotEvery takes a snapshot after every that-many records
	// (default 1000).
	SnapshotEvery int
	// MaxSnapshots bounds retained snapshots (default 64). When full,
	// retention thins geometrically: every other snapshot in the oldest
	// half is dropped, so recent history stays fine-grained and old
	// history coarse — a simplified pyramidal time frame.
	MaxSnapshots int
	// TailWindow bounds the in-memory ring of recent raw records kept
	// for replica catch-up (TailSince): default 4096, negative disables
	// tailing. The ring is volatile — it is not part of the checkpoint
	// wire format — so a restarted engine serves catch-up only from its
	// checkpoint onward.
	TailWindow int
}

// defaultTailWindow is the records retained for TailSince when
// Options.TailWindow is zero, and the capacity a checkpoint-restored
// engine starts with (the option is not persisted).
const defaultTailWindow = 4096

// Engine ingests a stream of error-bearing records.
type Engine struct {
	mu      sync.Mutex
	s       *microcluster.Summarizer
	every   int
	maxKeep int
	snaps   []Snapshot
	n       int
	lastTS  int64
	tail    *tailRing // recent raw records for replica catch-up; nil = disabled
}

// NewEngine returns an Engine with the given options.
func NewEngine(opt Options) (*Engine, error) {
	if opt.MicroClusters < 1 {
		return nil, fmt.Errorf("stream: %d micro-clusters: %w", opt.MicroClusters, udmerr.ErrBadOption)
	}
	if opt.Dims < 1 {
		return nil, fmt.Errorf("stream: %d dims: %w", opt.Dims, udmerr.ErrBadOption)
	}
	if opt.SnapshotEvery == 0 {
		opt.SnapshotEvery = 1000
	}
	if opt.SnapshotEvery < 1 {
		return nil, fmt.Errorf("stream: snapshot cadence %d: %w", opt.SnapshotEvery, udmerr.ErrBadOption)
	}
	if opt.MaxSnapshots == 0 {
		opt.MaxSnapshots = 64
	}
	if opt.MaxSnapshots < 2 {
		return nil, fmt.Errorf("stream: MaxSnapshots %d, need ≥ 2: %w", opt.MaxSnapshots, udmerr.ErrBadOption)
	}
	if opt.TailWindow == 0 {
		opt.TailWindow = defaultTailWindow
	}
	return &Engine{
		s:       microcluster.NewSummarizer(opt.MicroClusters, opt.Dims),
		every:   opt.SnapshotEvery,
		maxKeep: opt.MaxSnapshots,
		tail:    newTailRing(opt.TailWindow),
	}, nil
}

// Add folds one record with timestamp ts into the stream summary. err
// may be nil. Timestamps should be non-decreasing; regressions are
// tolerated but make window queries approximate.
func (e *Engine) Add(x, err []float64, ts int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.addLocked(x, err, ts)
}

// AddBatch folds a batch of records into the stream summary, all or
// nothing. errs may be nil, as may any of its rows; ts gives each
// record's timestamp, and a nil ts stamps each record with its ingest
// ordinal. The engine refuses the whole batch, applying none of it,
// when the batch would make its total CF2x or EF2x non-finite along any
// dimension: those totals bound every cluster's sums and feed the
// bandwidth rule, so one overflow would poison every later density.
// The error wraps udmerr.ErrBadData.
func (e *Engine) AddBatch(xs, errs [][]float64, ts []int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	total := e.s.TotalFeature()
	for i, x := range xs {
		total.Add(x, row(errs, i), 0)
	}
	for j := range total.CF2 {
		if math.IsInf(total.CF2[j], 0) || math.IsNaN(total.CF2[j]) ||
			math.IsInf(total.EF2[j], 0) || math.IsNaN(total.EF2[j]) {
			return fmt.Errorf("stream: batch of %d records would make total CF2x/EF2x along dimension %d non-finite (%v/%v): %w",
				len(xs), j, total.CF2[j], total.EF2[j], udmerr.ErrBadData)
		}
	}
	for i, x := range xs {
		t := int64(e.n) + 1
		if ts != nil {
			t = ts[i]
		}
		e.addLocked(x, row(errs, i), t)
	}
	return nil
}

// row returns rows[i], or nil when rows is nil.
func row(rows [][]float64, i int) []float64 {
	if rows == nil {
		return nil
	}
	return rows[i]
}

// addLocked folds one record in; the caller holds e.mu.
func (e *Engine) addLocked(x, err []float64, ts int64) {
	e.s.AddAt(x, err, ts)
	e.n++
	e.lastTS = ts
	if e.tail != nil {
		// Deep-copy: callers may reuse their row buffers between Adds.
		rec := Record{TS: ts, Seq: int64(e.n), X: append([]float64(nil), x...)}
		if err != nil {
			rec.Err = append([]float64(nil), err...)
		}
		e.tail.add(rec)
	}
	recordsIngested.Inc()
	if e.n%e.every == 0 {
		e.takeSnapshotLocked()
	}
}

// Dims returns the record dimensionality the engine was created with.
func (e *Engine) Dims() int { return e.s.Dims() }

// Count returns the number of records ingested.
func (e *Engine) Count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// Snapshot forces a snapshot of the current state and returns it.
func (e *Engine) Snapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.takeSnapshotLocked()
	return e.snaps[len(e.snaps)-1]
}

// Snapshots returns the retained snapshots, oldest first (copies of the
// headers; feature slices are shared with the retained snapshots and
// must be treated as read-only).
func (e *Engine) Snapshots() []Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Snapshot, len(e.snaps))
	copy(out, e.snaps)
	return out
}

// Summarizer returns a deep snapshot of the current micro-cluster state
// as a standalone Summarizer, ready for density estimation or
// clustering. An engine that holds no records yet has nothing to
// summarize: the error wraps udmerr.ErrUntrained.
func (e *Engine) Summarizer() (*microcluster.Summarizer, error) {
	e.mu.Lock()
	n := e.n
	feats := e.featsCopyLocked()
	e.mu.Unlock()
	if n == 0 {
		return nil, fmt.Errorf("stream: engine holds no records: %w", udmerr.ErrUntrained)
	}
	return microcluster.FromFeatures(feats)
}

// Window returns per-cluster summaries of exactly the records that
// arrived in the half-open time interval (from, to]: the difference of
// the newest snapshot at or before `from` and the newest snapshot at or
// before `to` (the live state is used when `to` is beyond the last
// snapshot). It returns an error when no snapshot precedes `from`;
// a from < the first snapshot means "since the beginning" only when
// from < 0, which is accepted and uses an empty baseline.
func (e *Engine) Window(from, to int64) ([]*microcluster.Feature, error) {
	if to <= from {
		return nil, fmt.Errorf("stream: window (%d, %d] is empty: %w", from, to, udmerr.ErrBadOption)
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	hi, err := e.stateAtLocked(to)
	if err != nil {
		return nil, err
	}
	var lo []*microcluster.Feature
	if from < 0 {
		lo = emptyFeats(len(hi), e.s.Dims())
	} else {
		lo, err = e.stateAtLocked(from)
		if err != nil {
			return nil, err
		}
	}
	// Snapshots can differ in length while the summarizer is still
	// seeding clusters; pad the older one with empties.
	for len(lo) < len(hi) {
		lo = append(lo, microcluster.NewFeature(e.s.Dims()))
	}
	out := make([]*microcluster.Feature, len(hi))
	for i := range hi {
		out[i], err = hi[i].Sub(lo[i])
		if err != nil {
			return nil, fmt.Errorf("stream: cluster %d: %w", i, err)
		}
	}
	return out, nil
}

// EqualWindows splits the engine's ingested timestamp range [0, lastTS]
// into k consecutive windows of (approximately) equal record count,
// assuming the auto-timestamp convention of Add (one tick per record,
// starting at 1) or externally supplied dense timestamps. It returns the
// per-window feature summaries. Fails when k < 1 or exceeds the record
// count, or when a window boundary predates the oldest retained
// snapshot.
func (e *Engine) EqualWindows(k int) ([][]*microcluster.Feature, error) {
	e.mu.Lock()
	n := e.n
	last := e.lastTS
	e.mu.Unlock()
	if k < 1 || k > n {
		return nil, fmt.Errorf("stream: %d windows for %d records: %w", k, n, udmerr.ErrBadOption)
	}
	out := make([][]*microcluster.Feature, k)
	var from int64 = -1
	for w := 0; w < k; w++ {
		to := last
		if w < k-1 {
			// Boundary timestamps proportional to record share.
			to = last * int64(w+1) / int64(k)
		}
		feats, err := e.Window(from, to)
		if err != nil {
			return nil, fmt.Errorf("stream: window %d: %w", w, err)
		}
		out[w] = feats
		from = to
	}
	return out, nil
}

// engineSnapshot is the gob wire form of an Engine checkpoint.
type engineSnapshot struct {
	Summarizer []byte
	Every      int
	MaxKeep    int
	N          int
	LastTS     int64
	Snaps      []snapshotWire
}

type snapshotWire struct {
	At    int64
	Count int
	Feats []microcluster.Feature
}

// Save checkpoints the engine — live summarizer, counters and retained
// snapshots — so a stream consumer can restart without losing window
// history. Safe to call concurrently with Add.
func (e *Engine) Save(w io.Writer) error {
	began := time.Now()
	defer func() { checkpointSeconds.Observe(time.Since(began).Seconds()) }()
	e.mu.Lock()
	defer e.mu.Unlock()
	var buf bytes.Buffer
	if err := e.s.Save(&buf); err != nil {
		return fmt.Errorf("stream: encoding summarizer: %w", err)
	}
	snap := engineSnapshot{
		Summarizer: buf.Bytes(),
		Every:      e.every,
		MaxKeep:    e.maxKeep,
		N:          e.n,
		LastTS:     e.lastTS,
	}
	for _, s := range e.snaps {
		wire := snapshotWire{At: s.At, Count: s.Count}
		for _, f := range s.Feats {
			wire.Feats = append(wire.Feats, *f)
		}
		snap.Snaps = append(snap.Snaps, wire)
	}
	out, err := checkpointFault.Writer(nil, w)
	if err != nil {
		return fmt.Errorf("stream: encoding engine: %w", err)
	}
	if err := gob.NewEncoder(out).Encode(snap); err != nil {
		return fmt.Errorf("stream: encoding engine: %w", err)
	}
	return nil
}

// LoadEngine restores an engine checkpoint written by Save.
func LoadEngine(r io.Reader) (*Engine, error) {
	var snap engineSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("stream: decoding engine: %w", err)
	}
	if snap.Every < 1 || snap.MaxKeep < 2 || snap.N < 0 {
		return nil, fmt.Errorf("stream: corrupt engine checkpoint (every=%d, keep=%d, n=%d): %w",
			snap.Every, snap.MaxKeep, snap.N, udmerr.ErrBadData)
	}
	s, err := microcluster.Load(bytes.NewReader(snap.Summarizer))
	if err != nil {
		return nil, fmt.Errorf("stream: decoding summarizer: %w", err)
	}
	e := &Engine{
		s:       s,
		every:   snap.Every,
		maxKeep: snap.MaxKeep,
		n:       snap.N,
		lastTS:  snap.LastTS,
		// The tail ring is not checkpointed; a restored engine starts
		// with an empty default-capacity window.
		tail: newTailRing(defaultTailWindow),
	}
	var prevAt int64
	for i, wire := range snap.Snaps {
		restored := Snapshot{At: wire.At, Count: wire.Count}
		if i > 0 && wire.At <= prevAt {
			return nil, fmt.Errorf("stream: checkpoint snapshots out of order at %d: %w", i, udmerr.ErrBadData)
		}
		prevAt = wire.At
		for j := range wire.Feats {
			f := wire.Feats[j].Clone()
			if f.Dims() != s.Dims() {
				return nil, fmt.Errorf("stream: snapshot %d feature %d has %d dims, want %d: %w",
					i, j, f.Dims(), s.Dims(), udmerr.ErrDimensionMismatch)
			}
			restored.Feats = append(restored.Feats, f)
		}
		e.snaps = append(e.snaps, restored)
	}
	return e, nil
}

// stateAtLocked returns the cluster features as of the newest snapshot
// with At <= ts, or the live state when ts >= lastTS.
func (e *Engine) stateAtLocked(ts int64) ([]*microcluster.Feature, error) {
	if ts >= e.lastTS {
		return e.featsCopyLocked(), nil
	}
	// snaps are ordered by At; find the last one ≤ ts.
	i := sort.Search(len(e.snaps), func(i int) bool { return e.snaps[i].At > ts })
	if i == 0 {
		return nil, fmt.Errorf("stream: no snapshot at or before t=%d (oldest retained: %d): %w", ts, e.oldestAt(), udmerr.ErrBadOption)
	}
	return e.snaps[i-1].Feats, nil
}

func (e *Engine) oldestAt() int64 {
	if len(e.snaps) == 0 {
		return -1
	}
	return e.snaps[0].At
}

func (e *Engine) featsCopyLocked() []*microcluster.Feature {
	out := make([]*microcluster.Feature, e.s.Len())
	for i := 0; i < e.s.Len(); i++ {
		out[i] = e.s.Feature(i).Clone()
	}
	return out
}

func (e *Engine) takeSnapshotLocked() {
	snapshotsTaken.Inc()
	e.snaps = append(e.snaps, Snapshot{
		At:    e.lastTS,
		Count: e.n,
		Feats: e.featsCopyLocked(),
	})
	if len(e.snaps) > e.maxKeep {
		// Thin the oldest half: keep every other snapshot there, so
		// resolution decays geometrically with age.
		half := len(e.snaps) / 2
		kept := e.snaps[:0]
		for i, s := range e.snaps {
			if i < half && i%2 == 1 {
				continue
			}
			kept = append(kept, s)
		}
		e.snaps = kept
	}
}

func emptyFeats(n, d int) []*microcluster.Feature {
	out := make([]*microcluster.Feature, n)
	for i := range out {
		out[i] = microcluster.NewFeature(d)
	}
	return out
}
