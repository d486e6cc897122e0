package server

import (
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
	"time"

	"udm/internal/core"
	"udm/internal/datagen"
	"udm/internal/faultinject"
	"udm/internal/kde"
	"udm/internal/rng"
	"udm/internal/uncertain"
)

// altTransform builds a transform trained on different data than
// testTransform, so the two give distinct density bits everywhere.
func altTransform(t testing.TB) *core.Transform {
	t.Helper()
	clean, err := datagen.TwoBlobs(4.0).Generate(400, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := uncertain.Perturb(clean, 1.0, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.NewTransform(noisy, core.TransformOptions{
		MicroClusters: 40, ErrorAdjust: true, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// tenantServer extends testServer with an "acme" tenant serving its
// own transform under the SAME name as the default tenant's ("blobs"),
// the sharpest aliasing trap available.
func tenantServer(t testing.TB, opt Options) *Server {
	t.Helper()
	s := testServer(t, opt, "")
	tm, err := NewTransformModel("blobs", altTransform(t), core.ClassifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.reg.AddTenant("acme", tm); err != nil {
		t.Fatal(err)
	}
	return s
}

// densityBits decodes a density response body and returns the exact
// bit pattern of its answer — byte-level body comparison would trip on
// the harmless "cached":true marker repeats carry.
func densityBits(t testing.TB, body string) uint64 {
	t.Helper()
	var out struct {
		Density *float64 `json:"density"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil || out.Density == nil {
		t.Fatalf("undecodable density body %q: %v", body, err)
	}
	return math.Float64bits(*out.Density)
}

// postTenant posts with an explicit X-UDM-Tenant header.
func postTenant(t testing.TB, url, tenant, body string) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
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
	return resp.StatusCode, resp.Header, string(raw)
}

// TestTenantNamespaceRouting: the four ways to address a model — legacy
// path, default-tenant path, tenant path, legacy path + header — and
// the tenant isolation between namespaces.
func TestTenantNamespaceRouting(t *testing.T) {
	s := tenantServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"point":[0.5,-0.5]}`

	// Legacy path and the default-tenant path are the same namespace:
	// bit-identical answers, default echo.
	st, hdr, legacy := postRaw(t, ts.URL+"/v1/models/blobs/density", body)
	if st != http.StatusOK {
		t.Fatalf("legacy path: %d (%s)", st, legacy)
	}
	if got := hdr.Get(TenantHeader); got != DefaultTenant {
		t.Fatalf("legacy path echoed tenant %q, want %q", got, DefaultTenant)
	}
	st, _, aliased := postRaw(t, ts.URL+"/v1/t/default/models/blobs/density", body)
	if st != http.StatusOK || densityBits(t, aliased) != densityBits(t, legacy) {
		t.Fatalf("default-tenant path: %d, body %q vs legacy %q", st, aliased, legacy)
	}

	// The acme namespace serves a different model under the same name.
	st, hdr, acme := postRaw(t, ts.URL+"/v1/t/acme/models/blobs/density", body)
	if st != http.StatusOK {
		t.Fatalf("acme path: %d (%s)", st, acme)
	}
	if got := hdr.Get(TenantHeader); got != "acme" {
		t.Fatalf("acme path echoed tenant %q", got)
	}
	if densityBits(t, acme) == densityBits(t, legacy) {
		t.Fatal("acme and default answered identically: namespaces are aliased")
	}

	// Header-resolved tenancy on the legacy path matches the tenant path.
	st, _, viaHeader := postTenant(t, ts.URL+"/v1/models/blobs/density", "acme", body)
	if st != http.StatusOK || densityBits(t, viaHeader) != densityBits(t, acme) {
		t.Fatalf("header-resolved acme: %d, body %q, want %q", st, viaHeader, acme)
	}

	// Models of one tenant are invisible to another.
	st, _, _ = postRaw(t, ts.URL+"/v1/t/acme/models/live/density", body)
	if st != http.StatusNotFound {
		t.Fatalf("acme sees default's live model: %d", st)
	}

	// Invalid tenants are rejected up front, naming the id they sent.
	for _, bad := range []string{"..", "a b", strings.Repeat("x", 65)} {
		st, _, resp := postTenant(t, ts.URL+"/v1/models/blobs/density", bad, body)
		if st != http.StatusBadRequest || !strings.Contains(resp, "bad_tenant") {
			t.Errorf("tenant %q -> %d %q, want 400 bad_tenant", bad, st, resp)
		}
		var eb errorBody
		if err := json.Unmarshal([]byte(resp), &eb); err != nil || !strings.Contains(eb.Error.Message, strconv.Quote(bad)) {
			t.Errorf("tenant %q -> message %q, want it to name %s", bad, eb.Error.Message, strconv.Quote(bad))
		}
	}

	// Tenant-scoped model listings.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/t/acme/models", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rawListing, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if listing := string(rawListing); !strings.Contains(listing, "blobs") || strings.Contains(listing, "live") {
		t.Fatalf("acme listing leaked across tenants: %s", listing)
	}
}

// TestTenantCacheIsolation is the aliasing regression for the density
// cache: two tenants sharing a model name and querying the same
// coordinates must still get their own cached densities back, bit for
// bit.
func TestTenantCacheIsolation(t *testing.T) {
	s := tenantServer(t, Options{CacheSize: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"point":[0.25,0.25]}`
	_, _, defFirst := postRaw(t, ts.URL+"/v1/models/blobs/density", body)

	// The acme query lands immediately after default's cache fill at the
	// exact same coordinates — a tenant-blind cache would replay
	// default's density here.
	hitsBefore := s.Metrics().CacheHits.Load()
	_, _, acmeFirst := postRaw(t, ts.URL+"/v1/t/acme/models/blobs/density", body)
	if densityBits(t, acmeFirst) == densityBits(t, defFirst) {
		t.Fatal("acme's first density equals default's cached answer: tenant aliasing")
	}
	if got := s.Metrics().CacheHits.Load(); got != hitsBefore {
		t.Fatalf("acme's first query hit the cache (%d -> %d): tenant aliasing", hitsBefore, got)
	}

	// Repeats are cache hits and stay bit-identical per tenant.
	_, _, defSecond := postRaw(t, ts.URL+"/v1/models/blobs/density", body)
	_, _, acmeSecond := postRaw(t, ts.URL+"/v1/t/acme/models/blobs/density", body)
	if densityBits(t, defSecond) != densityBits(t, defFirst) || densityBits(t, acmeSecond) != densityBits(t, acmeFirst) {
		t.Fatal("cached repeats diverged from first answers")
	}
	if !strings.Contains(defSecond, `"cached":true`) || !strings.Contains(acmeSecond, `"cached":true`) {
		t.Fatalf("repeats were not served from the cache: %q %q", defSecond, acmeSecond)
	}
	if got := s.Metrics().CacheHits.Load(); got != hitsBefore+2 {
		t.Fatalf("cache hits %d -> %d, want two hits from the repeats", hitsBefore, got)
	}
}

// TestTenantInflightQuota: a tenant at its inflight quota is shed with
// tenant_overloaded while other tenants' requests keep flowing and
// keep answering bit-identically.
func TestTenantInflightQuota(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	opt := Options{
		MaxInflight:  64,
		TenantQuotas: map[string]Quota{"noisy": {MaxInflight: 1}},
	}
	s := tenantServer(t, opt)
	// The noisy tenant gets its own model so its traffic is realistic.
	tm, err := NewTransformModel("blobs", altTransform(t), core.ClassifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.reg.AddTenant("noisy", tm); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	quiet := `{"point":[0.5,-0.5]}`
	_, _, quietBefore := postRaw(t, ts.URL+"/v1/t/acme/models/blobs/density", quiet)

	// Hold noisy's single inflight slot: one request parks inside an
	// injected 300ms batch-flush delay.
	if err := faultinject.Arm("server.batcher.flush", faultinject.Spec{Delay: 300 * time.Millisecond, Times: 1}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Plain http.Post: test helpers may not Fatal off the test goroutine.
		resp, err := http.Post(ts.URL+"/v1/t/noisy/models/blobs/density", "application/json",
			strings.NewReader(`{"point":[0.9,0.1]}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Wait until the slow request is demonstrably inside the flush
	// (and therefore holding its tenant's inflight token).
	deadline := time.Now().Add(5 * time.Second)
	for faultinject.Fired("server.batcher.flush") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never reached the flush site")
		}
		time.Sleep(time.Millisecond)
	}

	st, hdr, resp := postRaw(t, ts.URL+"/v1/t/noisy/models/blobs/density", `{"point":[0.8,0.2]}`)
	if st != http.StatusTooManyRequests || !strings.Contains(resp, "tenant_overloaded") {
		t.Fatalf("noisy over quota -> %d %q, want 429 tenant_overloaded", st, resp)
	}
	if got := hdr.Get(TenantHeader); got != "noisy" {
		t.Fatalf("shed response echoed tenant %q, want noisy", got)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}

	// The quiet tenant is untouched: 200 and bit-identical.
	st, _, quietDuring := postRaw(t, ts.URL+"/v1/t/acme/models/blobs/density", quiet)
	if st != http.StatusOK || densityBits(t, quietDuring) != densityBits(t, quietBefore) {
		t.Fatalf("quiet tenant disturbed by noisy's quota: %d, %q vs %q", st, quietDuring, quietBefore)
	}

	wg.Wait()
	// With the slot released, noisy serves again.
	st, _, _ = postRaw(t, ts.URL+"/v1/t/noisy/models/blobs/density", `{"point":[0.7,0.3]}`)
	if st != http.StatusOK {
		t.Fatalf("noisy after release: %d, want 200", st)
	}
	if shed := s.front.tenant("noisy").shed.Load(); shed != 1 {
		t.Errorf("noisy shed counter = %d, want 1", shed)
	}
}

// TestTenantModelAndPointQuotas: staging past the model quota and
// ingesting past the point quota both refuse with quota_exceeded, and
// refusal changes nothing.
func TestTenantModelAndPointQuotas(t *testing.T) {
	opt := Options{
		TenantQuotas: map[string]Quota{"small": {MaxModels: 1, MaxPoints: 350}},
	}
	s := testServer(t, opt, "")
	eng := testEngine(t) // 300 rows
	sm, err := NewStreamModel("live", eng, kde.Options{ErrorAdjust: true}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.reg.AddTenant("small", sm); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	countBefore := eng.Count()

	// A 100-row ingest would land at 400 > 350: refused whole.
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = []float64{float64(i), 1}
	}
	var buf strings.Builder
	fmt.Fprintf(&buf, `{"points": [`)
	for i, r := range rows {
		if i > 0 {
			buf.WriteString(",")
		}
		fmt.Fprintf(&buf, "[%g,%g]", r[0], r[1])
	}
	buf.WriteString("]}")
	st, _, resp := postRaw(t, ts.URL+"/v1/t/small/models/live/ingest", buf.String())
	if st != http.StatusTooManyRequests || !strings.Contains(resp, "quota_exceeded") {
		t.Fatalf("over-quota ingest -> %d %q, want 429 quota_exceeded", st, resp)
	}
	if got := eng.Count(); got != countBefore {
		t.Fatalf("refused ingest still applied rows: %d -> %d", countBefore, got)
	}

	// A 10-row ingest fits (310 ≤ 350).
	st, _, _ = postRaw(t, ts.URL+"/v1/t/small/models/live/ingest", `{"points": [[1,1],[2,2],[3,3],[4,4],[5,5],[6,6],[7,7],[8,8],[9,9],[10,10]]}`)
	if st != http.StatusOK {
		t.Fatalf("in-quota ingest -> %d, want 200", st)
	}

	// Staging a SECOND model name trips the model quota.
	var art strings.Builder
	if err := testTransform(t).Save(&art); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/t/small/models/extra?kind=transform", strings.NewReader(art.String()))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second model for quota-1 tenant -> %d, want 429", putResp.StatusCode)
	}
	// The default tenant has no quota: the same stage succeeds there.
	req, err = http.NewRequest(http.MethodPut, ts.URL+"/v1/models/extra?kind=transform", strings.NewReader(art.String()))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusOK {
		t.Fatalf("unquota'd stage -> %d, want 200", putResp.StatusCode)
	}
}
