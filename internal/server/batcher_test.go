package server

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedRun is a batch function for the group-commit tests. It records
// every batch it receives, in call order; a batch led by a negative item
// blocks until release is closed, which holds later submissions in the
// queue. Every item v maps to 10*v.
type gatedRun struct {
	release chan struct{}

	mu      sync.Mutex
	batches [][]int
}

func newGatedRun() *gatedRun { return &gatedRun{release: make(chan struct{})} }

func (g *gatedRun) run(_ context.Context, reqs []int) ([]int, error) {
	g.mu.Lock()
	g.batches = append(g.batches, append([]int(nil), reqs...))
	g.mu.Unlock()
	if reqs[0] < 0 {
		<-g.release
	}
	out := make([]int, len(reqs))
	for i, r := range reqs {
		out[i] = 10 * r
	}
	return out, nil
}

// seen returns a copy of the batches run has received so far.
func (g *gatedRun) seen() [][]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([][]int(nil), g.batches...)
}

// hold submits a blocking item to an idle batcher and waits until its
// batch is running; the returned channel yields that item's error once
// g.release is closed.
func (g *gatedRun) hold(t *testing.T, b *batcher[int, int]) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := b.do(context.Background(), -1)
		done <- err
	}()
	waitFor(t, "the blocking batch to start", func() bool { return len(g.seen()) == 1 })
	return done
}

// queued reports how many submissions wait behind the running batch.
func queued[Req, Res any](b *batcher[Req, Res]) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// idle reports whether no lead goroutine is flushing and nothing waits.
func idle[Req, Res any](b *batcher[Req, Res]) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.busy && len(b.pending) == 0
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitGroup waits for wg, failing the test after 5s instead of hanging
// when a coalescer strands a waiter.
func waitGroup(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// testMetrics builds a server's metrics on a throwaway front.
func testMetrics() *Metrics { return newMetrics(NewFront("server", Options{}, nil)) }

// TestBatcherIdleFlushesAtOnce checks that a lone submission to an idle
// coalescer reaches run with no other event: no second arrival, no
// timer, no drain.
func TestBatcherIdleFlushesAtOnce(t *testing.T) {
	m := testMetrics()
	g := newGatedRun()
	b := newBatcher(context.Background(), 64, m, g.run)
	done := make(chan int, 1)
	go func() {
		v, err := b.do(context.Background(), 7)
		if err != nil {
			t.Errorf("do: %v", err)
		}
		done <- v
	}()
	select {
	case v := <-done:
		if v != 70 {
			t.Errorf("do(7) = %d, want 70", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lone submission to an idle coalescer never reached run")
	}
	if got := g.seen(); !reflect.DeepEqual(got, [][]int{{7}}) {
		t.Errorf("run saw batches %v, want [[7]]", got)
	}
	if f, n := m.BatchFlushes.Load(), m.BatchedItems.Load(); f != 1 || n != 1 {
		t.Errorf("metrics: %d flushes of %d items, want 1 of 1", f, n)
	}
	waitFor(t, "the coalescer to go idle", func() bool { return idle(b) })
}

// TestBatcherCoalesces checks that submissions arriving while a batch
// runs ride one batched call when it finishes, and every waiter gets
// its own positional result.
func TestBatcherCoalesces(t *testing.T) {
	g := newGatedRun()
	b := newBatcher(context.Background(), 64, nil, g.run)
	held := g.hold(t, b)

	const n = 16
	results := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := b.do(context.Background(), i)
			if err != nil {
				t.Errorf("do(%d): %v", i, err)
				return
			}
			results[i] = res
		}()
	}
	waitFor(t, "every submission to queue", func() bool { return queued(b) == n })
	close(g.release)
	waitGroup(t, &wg, "the queued batch")
	if err := <-held; err != nil {
		t.Fatalf("blocking item: %v", err)
	}
	for i, r := range results {
		if r != 10*i {
			t.Errorf("result[%d] = %d, want %d (positional mixup)", i, r, 10*i)
		}
	}
	batches := g.seen()
	if len(batches) != 2 || len(batches[1]) != n {
		t.Errorf("run saw batches %v, want the blocking item then one batch of %d", batches, n)
	}
}

// TestBatcherFlushesAtMaxBatch checks that a queue reaching MaxBatch
// flushes at once instead of waiting for the running batch to finish.
func TestBatcherFlushesAtMaxBatch(t *testing.T) {
	g := newGatedRun()
	b := newBatcher(context.Background(), 4, nil, g.run)
	held := g.hold(t, b)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := b.do(context.Background(), i); err != nil || v != 10*i {
				t.Errorf("do(%d) = %d, %v; want %d", i, v, err, 10*i)
			}
		}()
	}
	waitGroup(t, &wg, "the full batch, which must not wait for the running one")
	if got := g.seen(); len(got) != 2 || len(got[1]) != 4 {
		t.Errorf("run saw batches %v, want the blocking item then one full batch of 4", got)
	}
	close(g.release)
	if err := <-held; err != nil {
		t.Fatalf("blocking item: %v", err)
	}
}

// TestBatcherGroupCommitBatches checks the batch boundaries: K
// submissions queued one at a time behind a blocked batch leave in
// exactly ceil(K/MaxBatch) batches, in arrival order — the full ones as
// soon as they fill, the remainder when the blocked batch finishes —
// and each waiter gets its own positional result.
func TestBatcherGroupCommitBatches(t *testing.T) {
	const maxBatch, k = 4, 10
	g := newGatedRun()
	b := newBatcher(context.Background(), maxBatch, nil, g.run)
	held := g.hold(t, b)
	// flushed counts the queued items run has received so far.
	flushed := func() int {
		n := 0
		for _, batch := range g.seen()[1:] {
			n += len(batch)
		}
		return n
	}
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := b.do(context.Background(), i); err != nil || v != 10*i {
				t.Errorf("do(%d) = %d, %v; want %d", i, v, err, 10*i)
			}
		}()
		waitFor(t, fmt.Sprintf("submission %d to queue or flush", i),
			func() bool { return queued(b)+flushed() == i+1 })
	}
	close(g.release)
	waitGroup(t, &wg, "every queued submission")
	if err := <-held; err != nil {
		t.Fatalf("blocking item: %v", err)
	}
	want := [][]int{{-1}, {0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}}
	if got := g.seen(); !reflect.DeepEqual(got, want) {
		t.Errorf("run saw batches %v, want %v", got, want)
	}
	waitFor(t, "the coalescer to go idle", func() bool { return idle(b) })
}

// TestBatcherConcurrentDo drives do from many goroutines at once and
// checks every result, the batch size cap, and that the item count
// adds up — the race-detector test of the lead handoff.
func TestBatcherConcurrentDo(t *testing.T) {
	const goroutines, perG, maxBatch = 32, 100, 8
	m := testMetrics()
	var over atomic.Int32
	b := newBatcher(context.Background(), maxBatch, m,
		func(_ context.Context, reqs []int) ([]int, error) {
			if len(reqs) > maxBatch {
				over.Add(1)
			}
			out := make([]int, len(reqs))
			for i, r := range reqs {
				out[i] = 10 * r
			}
			return out, nil
		})
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				v := gi*perG + j
				if got, err := b.do(context.Background(), v); err != nil || got != 10*v {
					t.Errorf("do(%d) = %d, %v; want %d", v, got, err, 10*v)
				}
			}
		}()
	}
	waitGroup(t, &wg, "every submission")
	if n := over.Load(); n != 0 {
		t.Errorf("%d batches exceeded MaxBatch %d", n, maxBatch)
	}
	if got := m.BatchedItems.Load(); got != goroutines*perG {
		t.Errorf("batched items = %d, want %d", got, goroutines*perG)
	}
	waitFor(t, "the coalescer to go idle", func() bool { return idle(b) })
}

// TestBatcherErrorFansOut checks every member of a failed batch sees
// the batch error.
func TestBatcherErrorFansOut(t *testing.T) {
	boom := errors.New("boom")
	b := newBatcher(context.Background(), 8, nil,
		func(_ context.Context, reqs []int) ([]int, error) { return nil, boom })
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.do(context.Background(), i); !errors.Is(err, boom) {
				t.Errorf("do(%d) err = %v, want boom", i, err)
			}
		}()
	}
	wg.Wait()
}

// TestBatcherCancellationPropagates checks the acceptance criterion
// that a client disconnect cancels the underlying batch work: when
// every member's context ends, the batch context is canceled and the
// worker-pool computation stops.
func TestBatcherCancellationPropagates(t *testing.T) {
	running := make(chan struct{})
	runCanceled := make(chan struct{})
	b := newBatcher(context.Background(), 64, nil,
		func(ctx context.Context, reqs []int) ([]int, error) {
			close(running)
			select {
			case <-ctx.Done():
				close(runCanceled)
				return nil, ctx.Err()
			case <-time.After(30 * time.Second):
				return reqs, nil
			}
		})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.do(ctx, 1)
		done <- err
	}()
	<-running
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("do returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter did not return after cancel")
	}
	select {
	case <-runCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("batch computation was not canceled after its only client left")
	}
}

// TestBatcherSurvivingWaiterKeepsBatchAlive checks the flip side: a
// batch with one live waiter runs to completion even when another
// member of the same batch disconnects.
func TestBatcherSurvivingWaiterKeepsBatchAlive(t *testing.T) {
	release := make(chan struct{}) // frees the blocking batch
	proceed := make(chan struct{}) // lets the shared batch finish
	started := make(chan []int, 2) // each batch's items, as run receives them
	b := newBatcher(context.Background(), 64, nil,
		func(ctx context.Context, reqs []int) ([]int, error) {
			started <- append([]int(nil), reqs...)
			if reqs[0] < 0 {
				<-release
				return reqs, nil
			}
			<-proceed
			// A cancellation fired by the departed member lands
			// asynchronously; give a wrong one time to show.
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(20 * time.Millisecond):
			}
			out := make([]int, len(reqs))
			for i, r := range reqs {
				out[i] = r * 10
			}
			return out, nil
		})

	held := make(chan error, 1)
	go func() {
		_, err := b.do(context.Background(), -1)
		held <- err
	}()
	<-started // the blocking batch runs; later submissions queue
	ctx1, cancel1 := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		_, err := b.do(ctx1, 1)
		gone <- err
	}()
	waitFor(t, "the first member to queue", func() bool { return queued(b) == 1 })
	live := make(chan int, 1)
	go func() {
		v, err := b.do(context.Background(), 2)
		if err != nil {
			t.Errorf("live waiter: %v", err)
		}
		live <- v
	}()
	waitFor(t, "the second member to queue", func() bool { return queued(b) == 2 })
	close(release)
	select {
	case batch := <-started:
		if !reflect.DeepEqual(batch, []int{1, 2}) {
			t.Fatalf("run received %v, want both members in one batch [1 2]", batch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the queued members never flushed")
	}
	cancel1() // first member disconnects mid-batch

	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled waiter got %v, want context.Canceled", err)
	}
	close(proceed)
	select {
	case v := <-live:
		if v != 20 {
			t.Errorf("surviving waiter got %d, want 20", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("surviving waiter starved — batch was canceled despite a live member")
	}
	if err := <-held; err != nil {
		t.Errorf("blocking item: %v", err)
	}
}

func TestLRUCache(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", 1)
	c.put("b", 2)
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Fatalf("get a = %v/%v", v, ok)
	}
	c.put("c", 3) // evicts b (least recently used after the get of a)
	if _, ok := c.get("b"); ok {
		t.Error("b survived past capacity")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s evicted wrongly", k)
		}
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}

	var nilCache *lruCache
	nilCache.put("x", 1) // must not panic
	if _, ok := nilCache.get("x"); ok {
		t.Error("nil cache returned a hit")
	}
}

func TestCacheKey(t *testing.T) {
	x := []float64{1.25, -3.5}
	exact1 := cacheKey("default", "m", 1, 0, "exact", nil, x)
	exact2 := cacheKey("default", "m", 1, 0, "exact", nil, []float64{1.25, -3.5})
	if exact1 != exact2 {
		t.Error("identical points produced different exact keys")
	}
	if cacheKey("default", "m", 1, 0, "exact", nil, []float64{1.25, -3.5000001}) == exact1 {
		t.Error("distinct points collided under exact keying")
	}
	if cacheKey("default", "m", 1, 1, "exact", nil, x) == exact1 {
		t.Error("model version not part of the key (stale cache after ingest)")
	}
	if cacheKey("default", "m", 2, 0, "exact", nil, x) == exact1 {
		t.Error("activation generation not part of the key (stale cache after hot-swap)")
	}
	if cacheKey("tenant-b", "m", 1, 0, "exact", nil, x) == exact1 {
		t.Error("tenant not part of the key (tenants would alias each other's densities)")
	}
	if cacheKey("default", "m", 1, 0, "exact", []int{0}, x) == exact1 {
		t.Error("subspace dims not part of the key")
	}
	if cacheKey("default", "other", 1, 0, "exact", nil, x) == exact1 {
		t.Error("model name not part of the key")
	}
	if cacheKey("default", "m", 1, 0, "approx(1e-06)", nil, x) == exact1 {
		t.Error("accuracy mode not part of the key (approx answers would alias exact)")
	}
	if cacheKey("default", "m", 1, 0, "approx(1e-06)", nil, x) == cacheKey("default", "m", 1, 0, "approx(1e-03)", nil, x) {
		t.Error("distinct epsilon budgets shared a key")
	}
}
