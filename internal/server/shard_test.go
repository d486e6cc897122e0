package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"udm/internal/datagen"
	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/rng"
	"udm/internal/stream"
)

// getResp GETs url and returns the live response; the caller closes the
// body.
func getResp(t testing.TB, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestShardSummaryEndpoint(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Static model: version 0, body decodes to the construction summary.
	resp := getResp(t, ts.URL+"/v1/models/blobs/summary")
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("summary status %d", resp.StatusCode)
	}
	if v := resp.Header.Get(VersionHeader); v != "0" {
		t.Fatalf("transform summary version header %q, want 0", v)
	}
	sum, err := microcluster.Load(resp.Body)
	if err != nil {
		t.Fatalf("decoding summary: %v", err)
	}
	m, _ := s.reg.Get("blobs")
	if sum.Dims() != m.Dims() || sum.Len() != m.sum.Len() {
		t.Fatalf("round-tripped summary shape %d/%d, want %d/%d",
			sum.Dims(), sum.Len(), m.Dims(), m.sum.Len())
	}

	// Stream model: version reflects the ingested row count.
	lm, _ := s.reg.Get("live")
	resp2 := getResp(t, ts.URL+"/v1/models/live/summary")
	defer resp2.Body.Close()
	want := strconv.Itoa(lm.Engine().Count())
	if v := resp2.Header.Get(VersionHeader); v != want {
		t.Fatalf("stream summary version header %q, want %s", v, want)
	}
	if resp := getResp(t, ts.URL+"/v1/models/nope/summary"); resp.StatusCode != 404 {
		resp.Body.Close()
		t.Fatalf("unknown model: %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestShardPartialEndpoint checks the wire contract end to end for a
// single shard: ordered term sum divided by the reported weight must be
// bit-identical to the /density answer for the same point, and the
// response carries the pinned version back.
func TestShardPartialEndpoint(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The coordinator's bandwidths for a one-shard ring are just the
	// shard's own: read them off the model's estimator.
	m, _ := s.reg.Get("blobs")
	est, _, err := m.estimator()
	if err != nil {
		t.Fatal(err)
	}
	h := make([]float64, m.Dims())
	for j := range h {
		h[j] = est.BandwidthFor(j)
	}

	queries := [][]float64{{0, 0}, {2.5, 2.5}, {-1, 3}, {4, -2}}
	var pr partialResponse
	status := postJSON(t, ts.URL+"/v1/models/blobs/partial", partialRequest{
		Points: queries, Bandwidths: h, Version: 0,
	}, &pr)
	if status != 200 {
		t.Fatalf("partial status %d", status)
	}
	if pr.Version != 0 {
		t.Fatalf("partial version %d, want 0", pr.Version)
	}
	if pr.Weight != float64(est.Count()) {
		t.Fatalf("partial weight %v, want %v", pr.Weight, float64(est.Count()))
	}
	if len(pr.Terms) != len(queries) {
		t.Fatalf("%d term vectors for %d queries", len(pr.Terms), len(queries))
	}
	for i, x := range queries {
		var sum float64
		for _, v := range pr.Terms[i] {
			sum += v
		}
		got := sum / pr.Weight
		want := est.Density(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("query %d: wire term sum %v != Density %v", i, got, want)
		}
	}

	// A pinned version the shard is not at answers 409 stale_version.
	status, code := errCode(t, ts.URL+"/v1/models/blobs/partial", partialRequest{
		Points: queries[:1], Bandwidths: h, Version: 7,
	})
	if status != http.StatusConflict || code != "stale_version" {
		t.Fatalf("stale pin: %d %q, want 409 stale_version", status, code)
	}

	// Malformed points keep the usual validation codes.
	status, code = errCode(t, ts.URL+"/v1/models/blobs/partial", partialRequest{
		Points: [][]float64{{1}}, Bandwidths: h, Version: 0,
	})
	if status != http.StatusBadRequest || code != "dimension_mismatch" {
		t.Fatalf("short point: %d %q, want 400 dimension_mismatch", status, code)
	}

	// Terms must come under the coordinator's bandwidths: a request
	// without a full vector, missing or empty, is refused.
	for _, body := range []map[string]any{
		{"points": queries[:1], "version": 0},
		{"points": queries[:1], "bandwidths": []float64{}, "version": 0},
	} {
		status, code = errCode(t, ts.URL+"/v1/models/blobs/partial", body)
		if status != http.StatusBadRequest || code != "dimension_mismatch" {
			t.Fatalf("bandwidths %v: %d %q, want 400 dimension_mismatch", body["bandwidths"], status, code)
		}
	}
}

func TestShardCheckpointEndpoint(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	lm, _ := s.reg.Get("live")
	resp := getResp(t, ts.URL+"/v1/models/live/checkpoint")
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	eng, err := stream.LoadEngine(resp.Body)
	if err != nil {
		t.Fatalf("decoding checkpoint: %v", err)
	}
	if eng.Count() != lm.Engine().Count() {
		t.Fatalf("restored count %d, want %d", eng.Count(), lm.Engine().Count())
	}

	// Non-stream models have no checkpoint.
	status, code := func() (int, string) {
		resp := getResp(t, ts.URL+"/v1/models/blobs/checkpoint")
		defer resp.Body.Close()
		var e errorBody
		decodeErrBody(t, resp, &e)
		return resp.StatusCode, e.Error.Code
	}()
	if status != http.StatusBadRequest || code != "unsupported_kind" {
		t.Fatalf("transform checkpoint: %d %q, want 400 unsupported_kind", status, code)
	}
}

// jsonDecode decodes a response body into out.
func jsonDecode(resp *http.Response, out any) error {
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeErrBody(t testing.TB, resp *http.Response, e *errorBody) {
	t.Helper()
	if err := jsonDecode(resp, e); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
}

func TestShardTailEndpoint(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	lm, _ := s.reg.Get("live")
	n := lm.Engine().Count()

	// From zero: the default window (4096) covers all 300 seed rows.
	resp := getResp(t, ts.URL+"/v1/models/live/tail?from=0")
	var tr tailResponse
	if err := jsonDecode(resp, &tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("tail status %d", resp.StatusCode)
	}
	if tr.Count != int64(n) || len(tr.Records) != n {
		t.Fatalf("tail from 0: %d records, count %d; want %d", len(tr.Records), tr.Count, n)
	}
	for i, rec := range tr.Records {
		if rec.Seq != int64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, rec.Seq, i+1)
		}
	}

	// Caught up: empty record set, still 200.
	resp = getResp(t, ts.URL+"/v1/models/live/tail?from="+strconv.Itoa(n))
	tr = tailResponse{}
	if err := jsonDecode(resp, &tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(tr.Records) != 0 {
		t.Fatalf("caught-up tail: %d with %d records, want 200 and none", resp.StatusCode, len(tr.Records))
	}

	// Missing/negative ?from is a 400; non-stream models a 400 too.
	for _, u := range []string{
		"/v1/models/live/tail",
		"/v1/models/live/tail?from=-1",
		"/v1/models/blobs/tail?from=0",
	} {
		resp := getResp(t, ts.URL+u)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s = %d, want 400", u, resp.StatusCode)
		}
	}
}

// TestShardTailExpired forces the window to age out and checks the 410
// restart signal.
func TestShardTailExpired(t *testing.T) {
	clean, err := datagen.TwoBlobs(2.5).Generate(100, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := stream.NewEngine(stream.Options{MicroClusters: 10, Dims: clean.Dims(), TailWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range clean.X {
		eng.Add(x, nil, int64(i+1))
	}
	reg := NewRegistry()
	sm, err := NewStreamModel("tiny", eng, kde.Options{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(sm); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{}).Handler())
	defer ts.Close()

	resp := getResp(t, ts.URL+"/v1/models/tiny/tail?from=0")
	var e errorBody
	decodeErrBody(t, resp, &e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone || e.Error.Code != "tail_expired" {
		t.Fatalf("expired tail: %d %q, want 410 tail_expired", resp.StatusCode, e.Error.Code)
	}

	// The still-covered suffix is served fine.
	resp = getResp(t, ts.URL+"/v1/models/tiny/tail?from=95")
	var tr tailResponse
	if err := jsonDecode(resp, &tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(tr.Records) != 5 {
		t.Fatalf("suffix tail: %d with %d records, want 200 and 5", resp.StatusCode, len(tr.Records))
	}
}
