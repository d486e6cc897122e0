package distrib

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"udm/internal/server"
)

// wireAnswer is what the parity test compares across tiers: the
// status, the error code, and the density echo headers.
type wireAnswer struct {
	status   int
	code     string
	accuracy []string
	backend  []string
}

func postWire(t *testing.T, url, body string, hdr map[string]string) (wireAnswer, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
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
	a := wireAnswer{
		status:   resp.StatusCode,
		accuracy: resp.Header.Values("X-UDM-Accuracy"),
		backend:  resp.Header.Values("X-UDM-Backend"),
	}
	if a.status != http.StatusOK {
		var eb server.ErrorBody
		if err := json.Unmarshal(raw, &eb); err != nil {
			t.Fatalf("%s %s: error body %q: %v", url, body, raw, err)
		}
		a.code = eb.Error.Code
	}
	return a, raw
}

func densitiesOf(t *testing.T, raw []byte) []float64 {
	t.Helper()
	var resp server.DensityResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("density body %q: %v", raw, err)
	}
	return resp.Densities
}

// TestProxyServerWireParity sends one table of requests to udmserve
// serving a stream model and to udmproxy fronting the same data as a
// 2-shard partitioned model: every request gets the same status, the
// same error code and the same X-UDM-Accuracy / X-UDM-Backend echo on
// both tiers. Approx and grid requests are left out — the proxy
// refuses them on purpose for partitioned models.
func TestProxyServerWireParity(t *testing.T) {
	rows := testRows(t, 200, 41)
	reg := server.NewRegistry()
	m, err := server.NewStreamModel("live", splitEngines(t, rows, 1)[0], testKDE, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(m); err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(server.New(reg, server.Options{}).Handler())
	t.Cleanup(single.Close)
	engines := splitEngines(t, rows, 2)
	p, err := NewProxy(startShards(t, engines), []ModelConfig{
		{Name: "live", Mode: ModePartitioned, Dims: 2, KDE: testKDE},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	px := httptest.NewServer(p.Handler())
	t.Cleanup(px.Close)

	exactHdr := map[string]string{"X-UDM-Backend": "exact"}
	cases := []struct {
		name, endpoint, body string
		hdr                  map[string]string
		status               int
	}{
		{"density single", "density", `{"point":[0.25,-0.5]}`, nil, 200},
		{"density batch", "density", `{"points":[[0.25,-0.5],[1,2],[-3,0.5]]}`, nil, 200},
		{"density backend body", "density", `{"point":[0.25,-0.5],"backend":"exact"}`, nil, 200},
		{"density backend header", "density", `{"points":[[0.25,-0.5],[1,2]]}`, exactHdr, 200},
		{"density wrong width", "density", `{"point":[0.25]}`, nil, 400},
		{"density wrong width in batch", "density", `{"points":[[0.25,-0.5],[1,2,3]]}`, nil, 400},
		{"density empty", "density", `{}`, nil, 400},
		{"density dims too high", "density", `{"point":[0.25,-0.5],"dims":[5]}`, nil, 400},
		{"density dims negative", "density", `{"point":[0.25,-0.5],"dims":[-1]}`, nil, 400},
		{"density negative epsilon", "density", `{"point":[0.25,-0.5],"accuracy":"approx","epsilon":-1}`, nil, 400},
		{"density unknown backend", "density", `{"point":[0.25,-0.5],"backend":"hbe"}`, nil, 400},
		{"outliers wrong error width", "outliers", `{"points":[[0.25,-0.5]],"errors":[[0.1]]}`, nil, 400},
		{"outliers dims too high", "outliers", `{"points":[[0.25,-0.5]],"dims":[5]}`, nil, 400},
		{"ingest error count", "ingest", `{"points":[[0.25,-0.5],[1,2]],"errors":[[0.1,0.1]]}`, nil, 400},
		{"ingest timestamp count", "ingest", `{"points":[[0.25,-0.5]],"timestamps":[1,2]}`, nil, 400},
		{"ingest wrong error width", "ingest", `{"points":[[0.25,-0.5]],"errors":[[0.1]]}`, nil, 400},
		{"classify stream model", "classify", `{"point":[0.25,-0.5]}`, nil, 400},
		{"malformed json", "density", `{"point":[0.25,`, nil, 400},
		{"unknown field", "density", `{"point":[0.25,-0.5],"pointz":[1]}`, nil, 400},
	}
	for _, tc := range cases {
		path := "/v1/models/live/" + tc.endpoint
		want, _ := postWire(t, single.URL+path, tc.body, tc.hdr)
		got, _ := postWire(t, px.URL+path, tc.body, tc.hdr)
		if want.status != tc.status {
			t.Fatalf("%s: udmserve answered %d (%s), want %d", tc.name, want.status, want.code, tc.status)
		}
		if got.status != want.status || got.code != want.code {
			t.Errorf("%s: proxy %d %q, udmserve %d %q", tc.name, got.status, got.code, want.status, want.code)
		}
		if !slices.Equal(got.accuracy, want.accuracy) || !slices.Equal(got.backend, want.backend) {
			t.Errorf("%s: proxy echoes accuracy %q backend %q, udmserve %q %q",
				tc.name, got.accuracy, got.backend, want.accuracy, want.backend)
		}
	}
	// An ingest that would overflow a Definition-1 sum — a huge value, a
	// huge error, or a column whose squares sum past MaxFloat64 — is
	// refused with 400 bad_data on both tiers. The proxy refuses before
	// routing, so no shard applies the batch's good records either.
	sharded := engines[0].Count() + engines[1].Count()
	for _, body := range []string{
		`{"points":[[0.25,-0.5],[1,2],[-3,0.5],[2,-1],[0,0],[-1,-1],[3,3],[1e200,1e200]]}`,
		`{"points":[[0.25,-0.5]],"errors":[[0.1,1e200]]}`,
		`{"points":[[1.3e154,0],[1.3e154,0]]}`,
	} {
		path := "/v1/models/live/ingest"
		want, _ := postWire(t, single.URL+path, body, nil)
		got, _ := postWire(t, px.URL+path, body, nil)
		if want.status != http.StatusBadRequest || want.code != "bad_data" || got.status != want.status || got.code != want.code {
			t.Errorf("ingest %s: udmserve %d %q, proxy %d %q, want 400 bad_data on both",
				body, want.status, want.code, got.status, got.code)
		}
	}
	if got := engines[0].Count() + engines[1].Count(); got != sharded {
		t.Errorf("refused ingests left %d records on the shards, want %d", got, sharded)
	}
}

// TestProxyDefaultTenantRef: a model configured as "default/live" is
// the default tenant's "live" — served on the legacy and the
// namespaced path, bit-identical to a proxy configured with "live".
func TestProxyDefaultTenantRef(t *testing.T) {
	shards := startShards(t, splitEngines(t, testRows(t, 300, 17), 2))
	serve := func(ref string) string {
		p, err := NewProxy(shards, []ModelConfig{
			{Name: ref, Mode: ModePartitioned, Dims: 2, KDE: testKDE},
		}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		px := httptest.NewServer(p.Handler())
		t.Cleanup(px.Close)
		return px.URL
	}
	plain, qualified := serve("live"), serve("default/live")
	body := `{"points":[[0.25,-0.5],[1,2],[-3,0.5]]}`
	want, wantBody := postWire(t, plain+"/v1/models/live/density", body, nil)
	if want.status != http.StatusOK {
		t.Fatalf("plain proxy answered %d %s", want.status, want.code)
	}
	for _, path := range []string{"/v1/models/live/density", "/v1/t/default/models/live/density"} {
		got, gotBody := postWire(t, qualified+path, body, nil)
		if got.status != http.StatusOK {
			t.Fatalf("default/live proxy, %s: %d %s", path, got.status, got.code)
		}
		bitsEqual(t, path, densitiesOf(t, gotBody), densitiesOf(t, wantBody))
	}
}

// TestProxyReplicatedBackendHeader: a backend named only in the
// X-UDM-Backend header reaches the replicas, so a replicated answer
// and its echo match udmserve's.
func TestProxyReplicatedBackendHeader(t *testing.T) {
	sum, err := splitEngines(t, testRows(t, 300, 29), 1)[0].Summarizer()
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]Shard, 2)
	for i := range shards {
		reg := server.NewRegistry()
		m, err := server.NewSummarizerModel("sum", sum, testKDE)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(m); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(reg, server.Options{}).Handler())
		t.Cleanup(ts.Close)
		shards[i] = Shard{Name: shardName(i), URL: ts.URL}
	}
	p, err := NewProxy(shards, []ModelConfig{{Name: "sum", Mode: ModeReplicated, Dims: 2}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	px := httptest.NewServer(p.Handler())
	t.Cleanup(px.Close)

	body := `{"points":[[0.25,-0.5],[1,2],[-3,0.5],[0,0]]}`
	hdr := map[string]string{"X-UDM-Backend": "grid"}
	want, wantBody := postWire(t, shards[0].URL+"/v1/models/sum/density", body, hdr)
	got, gotBody := postWire(t, px.URL+"/v1/models/sum/density", body, hdr)
	if want.status != http.StatusOK || got.status != http.StatusOK {
		t.Fatalf("udmserve %d %s, proxy %d %s", want.status, want.code, got.status, got.code)
	}
	if !slices.Equal(got.backend, []string{"grid"}) || !slices.Equal(got.backend, want.backend) {
		t.Fatalf("proxy echoes backend %q, udmserve %q", got.backend, want.backend)
	}
	grid := densitiesOf(t, wantBody)
	bitsEqual(t, "grid via header", densitiesOf(t, gotBody), grid)
	_, exactBody := postWire(t, shards[0].URL+"/v1/models/sum/density", body, nil)
	if slices.Equal(densitiesOf(t, exactBody), grid) {
		t.Fatal("grid answers equal exact ones: the case cannot tell the backends apart")
	}
}
