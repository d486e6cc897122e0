package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"udm/internal/core"
	"udm/internal/microcluster"
)

// putArtifact PUTs a serialized model artifact and returns the status
// and decoded body.
func putArtifact(t testing.TB, url string, artifact []byte) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("undecodable PUT response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, out
}

// saveTransform serializes a transform into an artifact body.
func saveTransform(t testing.TB, tr *core.Transform) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// densityProbe posts the fixed probe and returns (status, gen from the
// X-UDM-Model-Version header, density bits).
func densityProbe(t testing.TB, base string) (int, uint64, uint64) {
	t.Helper()
	st, hdr, body := postRaw(t, base+"/density", `{"point":[0.5,-0.5]}`)
	if st != http.StatusOK {
		return st, 0, 0
	}
	gen, err := strconv.ParseUint(hdr.Get(ModelVersionHeader), 10, 64)
	if err != nil {
		t.Fatalf("bad %s header %q: %v", ModelVersionHeader, hdr.Get(ModelVersionHeader), err)
	}
	return st, gen, densityBits(t, body)
}

// TestHotSwapLifecycle drives stage → promote → rollback end to end:
// staged versions serve nothing until promoted, promote flips answers
// and bumps the generation, rollback restores the old answers under a
// fresh generation, and the failure modes 409 cleanly.
func TestHotSwapLifecycle(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	base := ts.URL + "/v1/models/blobs"

	st, gen1, oldBits := densityProbe(t, base)
	if st != http.StatusOK || gen1 != 1 {
		t.Fatalf("initial probe: status %d gen %d, want 200 gen 1", st, gen1)
	}

	// Stage a replacement trained on different data.
	artifact := saveTransform(t, altTransform(t))
	st, put := putArtifact(t, base+"?kind=transform", artifact)
	if st != http.StatusOK || put["staged"] != true {
		t.Fatalf("stage: %d %v", st, put)
	}
	if !s.reg.Staged(DefaultTenant, "blobs") {
		t.Fatal("registry does not report a staged version")
	}

	// Staging changes nothing observable: same gen, same bits.
	st, gen, bits := densityProbe(t, base)
	if st != http.StatusOK || gen != gen1 || bits != oldBits {
		t.Fatalf("probe after stage: status %d gen %d, want unchanged gen %d", st, gen, gen1)
	}
	// The listing flags the staged upgrade.
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	listing, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(listing), `"staged":true`) {
		t.Fatalf("listing does not flag the staged version: %s", listing)
	}

	// Promote: answers flip, generation bumps.
	st, _, promoteBody := postRaw(t, base+"/promote", "")
	if st != http.StatusOK {
		t.Fatalf("promote: %d %s", st, promoteBody)
	}
	st, gen2, newBits := densityProbe(t, base)
	if st != http.StatusOK || gen2 != gen1+1 {
		t.Fatalf("probe after promote: status %d gen %d, want gen %d", st, gen2, gen1+1)
	}
	if newBits == oldBits {
		t.Fatal("promote did not change the served model")
	}

	// Rollback: old answers return under a fresh generation (never a
	// reused one — the density cache keys on the generation).
	st, _, _ = postRaw(t, base+"/rollback", "")
	if st != http.StatusOK {
		t.Fatalf("rollback: %d", st)
	}
	st, gen3, bits3 := densityProbe(t, base)
	if st != http.StatusOK || gen3 != gen2+1 || bits3 != oldBits {
		t.Fatalf("probe after rollback: status %d gen %d bits match %v, want gen %d and old bits",
			st, gen3, bits3 == oldBits, gen2+1)
	}

	// Promote with nothing staged: 409 no_staged.
	st, _, body := postRaw(t, base+"/promote", "")
	if st != http.StatusConflict || !strings.Contains(body, "no_staged") {
		t.Fatalf("promote with nothing staged -> %d %q, want 409 no_staged", st, body)
	}
	// Rollback a model that never swapped: 409 no_previous.
	st, _, body = postRaw(t, ts.URL+"/v1/models/live/rollback", "")
	if st != http.StatusConflict || !strings.Contains(body, "no_previous") {
		t.Fatalf("rollback without history -> %d %q, want 409 no_previous", st, body)
	}

	// Garbage artifacts and unknown kinds are rejected.
	st, _ = putArtifact(t, base+"?kind=transform", []byte("not a gob"))
	if st != http.StatusBadRequest {
		t.Fatalf("garbage artifact -> %d, want 400", st)
	}
	st, _ = putArtifact(t, base+"?kind=sorcery", artifact)
	if st != http.StatusBadRequest {
		t.Fatalf("unknown kind -> %d, want 400", st)
	}
	// So is a summary that breaks Definition 1: negative sums of
	// squares would answer NaN at every query.
	sum := microcluster.NewSummarizer(4, 2)
	for i := 0; i < 8; i++ {
		sum.Add([]float64{float64(i), float64(-i)}, []float64{0.1, 0.2})
	}
	sum.Feature(0).CF2[0], sum.Feature(1).EF2[1] = -1, -1
	var poisoned bytes.Buffer
	if err := sum.Save(&poisoned); err != nil {
		t.Fatal(err)
	}
	st, put = putArtifact(t, base+"?kind=summarizer", poisoned.Bytes())
	errObj, _ := put["error"].(map[string]any)
	if code, _ := errObj["code"].(string); st != http.StatusBadRequest || code != "bad_artifact" {
		t.Fatalf("poisoned summary artifact -> %d %v, want 400 bad_artifact", st, put)
	}
}

// TestHotSwapStagedOnlyNotRoutable: a name that has only ever been
// staged serves 404 until its first promote — and in a fresh tenant
// the whole namespace springs into being on that promote.
func TestHotSwapStagedOnlyNotRoutable(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	base := ts.URL + "/v1/t/fresh/models/canary"

	artifact := saveTransform(t, testTransform(t))
	st, _ := putArtifact(t, base+"?kind=transform", artifact)
	if st != http.StatusOK {
		t.Fatalf("stage into fresh tenant: %d", st)
	}
	st, _, _ = postRaw(t, base+"/density", `{"point":[0,0]}`)
	if st != http.StatusNotFound {
		t.Fatalf("staged-only model answered %d, want 404 until promoted", st)
	}
	st, _, _ = postRaw(t, base+"/promote", "")
	if st != http.StatusOK {
		t.Fatalf("first promote: %d", st)
	}
	st, gen, _ := densityProbe(t, base)
	if st != http.StatusOK || gen != 1 {
		t.Fatalf("first-promoted model: status %d gen %d, want 200 gen 1", st, gen)
	}
}

// TestHotSwapAtomicity is the mixed-version property test: while one
// goroutine staggers promote/stage/rollback as fast as it can, reader
// goroutines hammer classify and density. Every density answer carries
// the generation it was served under; the invariant is that each
// generation maps to exactly one bit pattern (an answer computed
// partly under the old version and partly under the new one would
// surface as one generation with two patterns), and no request ever
// fails. Run under -race this also proves the swap path is data-race
// free.
func TestHotSwapAtomicity(t *testing.T) {
	s := testServer(t, Options{CacheSize: 256}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	base := ts.URL + "/v1/models/blobs"

	artifacts := [][]byte{
		saveTransform(t, testTransform(t)),
		saveTransform(t, altTransform(t)),
	}

	const readers = 4
	const perReader = 60
	var wg sync.WaitGroup
	var mu sync.Mutex
	genBits := map[uint64]uint64{} // generation -> density bits
	var failures []string
	record := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if len(failures) < 8 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				resp, err := http.Post(base+"/density", "application/json",
					strings.NewReader(`{"point":[0.5,-0.5]}`))
				if err != nil {
					record("density transport error: %v", err)
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					record("density read error: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					record("density during swaps -> %d %s", resp.StatusCode, raw)
					continue
				}
				gen, err := strconv.ParseUint(resp.Header.Get(ModelVersionHeader), 10, 64)
				if err != nil {
					record("bad version header %q", resp.Header.Get(ModelVersionHeader))
					continue
				}
				var out struct {
					Density *float64 `json:"density"`
				}
				if err := json.Unmarshal(raw, &out); err != nil || out.Density == nil {
					record("undecodable density body %s", raw)
					continue
				}
				bits := math.Float64bits(*out.Density)
				mu.Lock()
				if prev, seen := genBits[gen]; seen && prev != bits {
					mu.Unlock()
					record("generation %d served two different answers: %x vs %x", gen, prev, bits)
					continue
				}
				genBits[gen] = bits
				mu.Unlock()

				// Classify rides along: it must never error mid-swap.
				cresp, err := http.Post(base+"/classify", "application/json",
					strings.NewReader(`{"point":[0.5,-0.5]}`))
				if err != nil {
					record("classify transport error: %v", err)
					return
				}
				cresp.Body.Close()
				if cresp.StatusCode != http.StatusOK {
					record("classify during swaps -> %d", cresp.StatusCode)
				}
			}
		}()
	}

	// The swapper: stage/promote as fast as possible, with a rollback
	// every few rounds for good measure.
	const swaps = 30
	for i := 0; i < swaps; i++ {
		st, _ := putArtifact(t, base+"?kind=transform", artifacts[i%2])
		if st != http.StatusOK {
			t.Fatalf("swap round %d: stage -> %d", i, st)
		}
		st, _, _ = postRaw(t, base+"/promote", "")
		if st != http.StatusOK {
			t.Fatalf("swap round %d: promote -> %d", i, st)
		}
		if i%5 == 4 {
			if st, _, _ := postRaw(t, base+"/rollback", ""); st != http.StatusOK {
				t.Fatalf("swap round %d: rollback -> %d", i, st)
			}
		}
	}
	wg.Wait()

	for _, f := range failures {
		t.Error(f)
	}
	// Exactly two distinct artifacts were in rotation: every generation's
	// answer must be one of exactly two bit patterns.
	distinct := map[uint64]bool{}
	for _, bits := range genBits {
		distinct[bits] = true
	}
	if len(distinct) > 2 {
		t.Fatalf("%d distinct answers across generations, want at most 2 (mixed-version evaluation)", len(distinct))
	}
	if len(genBits) < 2 {
		t.Fatalf("readers observed only %d generations; the test raced past all swaps", len(genBits))
	}
}
