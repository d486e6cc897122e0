package distrib

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"udm/internal/faultinject"
	"udm/internal/server"
)

// The proxy mounts the server's admission front; these tests reach its
// shed, fair-share, decode, timeout and tenant paths through the proxy.
// Like the fault tests they arm the process-global injection registry,
// so none of them call t.Parallel.

// tenantProxy serves a partitioned "live" stream model in each of the
// given tenants (its own data per tenant) over two in-process shards,
// behind a proxy built with opt.
func tenantProxy(t testing.TB, opt Options, tenants ...string) (*Proxy, string) {
	t.Helper()
	regs := []*server.Registry{server.NewRegistry(), server.NewRegistry()}
	var models []ModelConfig
	for ti, tenant := range tenants {
		for i, eng := range splitEngines(t, testRows(t, 200, int64(61+ti)), len(regs)) {
			m, err := server.NewStreamModel("live", eng, testKDE, "")
			if err != nil {
				t.Fatal(err)
			}
			if err := regs[i].AddTenant(tenant, m); err != nil {
				t.Fatal(err)
			}
		}
		models = append(models, ModelConfig{Name: tenant + "/live", Mode: ModePartitioned, Dims: 2, KDE: testKDE})
	}
	shards := make([]Shard, len(regs))
	for i, reg := range regs {
		ts := httptest.NewServer(server.New(reg, server.Options{}).Handler())
		t.Cleanup(ts.Close)
		shards[i] = Shard{Name: shardName(i), URL: ts.URL}
	}
	p, err := NewProxy(shards, models, opt)
	if err != nil {
		t.Fatal(err)
	}
	px := httptest.NewServer(p.Handler())
	t.Cleanup(px.Close)
	return p, px.URL
}

// send posts a raw body, with X-UDM-Tenant when tenant is set, and
// decodes the error envelope of any non-200 answer.
func send(t testing.TB, url, tenant, body string) (int, http.Header, server.ErrorBody) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(server.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb server.ErrorBody
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("%s: undecodable %d answer: %v", url, resp.StatusCode, err)
		}
	}
	return resp.StatusCode, resp.Header, eb
}

// parkRPC arms a one-shot delay on the next shard RPC and starts a
// request that will hit it, returning once that request holds its
// admission slot; wait blocks until it has finished.
func parkRPC(t *testing.T, url string) (wait func()) {
	t.Helper()
	if err := faultinject.Arm("distrib.shard.rpc", faultinject.Spec{Delay: 300 * time.Millisecond, Times: 1}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Plain http.Post: test helpers may not Fatal off the test goroutine.
		resp, err := http.Post(url, "application/json", strings.NewReader(`{"points":[[0.9,0.1]]}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for faultinject.Fired("distrib.shard.rpc") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("parked request never reached a shard RPC")
		}
		time.Sleep(time.Millisecond)
	}
	return wg.Wait
}

// TestProxyAdmissionShed: with the proxy's one admission slot held, the
// next request is shed with 429 overloaded, Retry-After and the
// resolved tenant, and counted.
func TestProxyAdmissionShed(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	p, url := tenantProxy(t, Options{Server: server.Options{MaxInflight: 1}}, "acme")
	wait := parkRPC(t, url+"/v1/t/acme/models/live/density")

	st, hdr, eb := send(t, url+"/v1/t/acme/models/live/density", "", `{"point":[0.5,-0.5]}`)
	if st != http.StatusTooManyRequests || eb.Error.Code != "overloaded" {
		t.Fatalf("second request -> %d %q, want 429 overloaded", st, eb.Error.Code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if got := hdr.Get(server.TenantHeader); got != "acme" {
		t.Errorf("shed response echoed tenant %q, want acme", got)
	}
	if p.Metrics().Shed.Load() != 1 {
		t.Errorf("shed counter = %d, want 1", p.Metrics().Shed.Load())
	}
	wait()
}

// TestProxyAdmissionTenantFairShare: a tenant at its inflight share is
// shed with tenant_overloaded at the proxy while another tenant keeps
// answering bit-identically, and the tenant series record both.
func TestProxyAdmissionTenantFairShare(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	opt := Options{Server: server.Options{
		MaxInflight:  64,
		TenantQuotas: map[string]server.Quota{"noisy": {MaxInflight: 1}},
	}}
	p, url := tenantProxy(t, opt, "noisy", "acme")
	quiet := server.DensityRequest{Points: testQueries(6, 5)}
	var before server.DensityResponse
	if s := postJSON(t, url+"/v1/t/acme/models/live/density", quiet, &before); s != http.StatusOK {
		t.Fatalf("acme before: %d", s)
	}

	wait := parkRPC(t, url+"/v1/t/noisy/models/live/density")
	st, hdr, eb := send(t, url+"/v1/t/noisy/models/live/density", "", `{"point":[0.8,0.2]}`)
	if st != http.StatusTooManyRequests || eb.Error.Code != "tenant_overloaded" {
		t.Fatalf("noisy over its share -> %d %q, want 429 tenant_overloaded", st, eb.Error.Code)
	}
	if got := hdr.Get(server.TenantHeader); got != "noisy" {
		t.Fatalf("shed response echoed tenant %q, want noisy", got)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	var during server.DensityResponse
	if s := postJSON(t, url+"/v1/t/acme/models/live/density", quiet, &during); s != http.StatusOK {
		t.Fatalf("acme during noisy's burst: %d, want 200", s)
	}
	bitsEqual(t, "acme during noisy's burst", during.Densities, before.Densities)

	wait()
	if st, _, eb := send(t, url+"/v1/t/noisy/models/live/density", "", `{"point":[0.7,0.3]}`); st != http.StatusOK {
		t.Fatalf("noisy after release: %d %q, want 200", st, eb.Error.Code)
	}
	prom := scrape(t, url+"/metrics?format=prometheus")
	for _, series := range []string{
		`udm_proxy_tenant_shed_total{tenant="noisy"} 1`,
		`udm_proxy_tenant_shed_total{tenant="acme"} 0`,
		`udm_proxy_tenant_requests_total{tenant="noisy"} 3`,
		`udm_proxy_tenant_requests_total{tenant="acme"} 2`,
	} {
		if !strings.Contains(prom, series+"\n") {
			t.Errorf("exposition missing %q", series)
		}
	}
	if got := p.Metrics().Shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
}

// TestProxyAdmissionMalformedJSON: bodies that are not JSON, or carry
// fields the request shape lacks, are 400 malformed_json.
func TestProxyAdmissionMalformedJSON(t *testing.T) {
	_, url := tenantProxy(t, Options{}, "acme")
	for _, body := range []string{`{"point":[0,0]`, `not json`, `{"point":[0,0],"bogus":1}`} {
		st, _, eb := send(t, url+"/v1/t/acme/models/live/density", "", body)
		if st != http.StatusBadRequest || eb.Error.Code != "malformed_json" {
			t.Errorf("body %q -> %d %q, want 400 malformed_json", body, st, eb.Error.Code)
		}
	}
}

// TestProxyAdmissionTimeout: the front's request deadline surfaces as
// 504 timeout and is counted.
func TestProxyAdmissionTimeout(t *testing.T) {
	p, url := tenantProxy(t, Options{Server: server.Options{RequestTimeout: time.Nanosecond}}, "acme")
	st, _, eb := send(t, url+"/v1/t/acme/models/live/density", "", `{"point":[0,0]}`)
	if st != http.StatusGatewayTimeout || eb.Error.Code != "timeout" {
		t.Fatalf("got %d %q, want 504 timeout", st, eb.Error.Code)
	}
	if p.Metrics().Timeouts.Load() == 0 {
		t.Error("timeout not counted in metrics")
	}
}

// TestProxyOutliersTimeout: /outliers honours the request deadline. The
// head is pre-warmed, so the deadline lands on the scoring, not on the
// head build.
func TestProxyOutliersTimeout(t *testing.T) {
	p, url := tenantProxy(t, Options{Server: server.Options{RequestTimeout: time.Nanosecond}}, "acme")
	if _, err := p.Coordinator("acme/live").CurrentHead(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, _, eb := send(t, url+"/v1/t/acme/models/live/outliers", "", `{"points":[[0,0],[5,5]]}`)
	if st != http.StatusGatewayTimeout || eb.Error.Code != "timeout" {
		t.Fatalf("got %d %q, want 504 timeout", st, eb.Error.Code)
	}
}

// TestProxyAdmissionBadTenant: an invalid tenant id is refused up front
// with the id it was given, by header on the legacy path and by path
// segment.
func TestProxyAdmissionBadTenant(t *testing.T) {
	_, url := tenantProxy(t, Options{}, "acme")
	for _, tc := range []struct{ path, header, id string }{
		{"/v1/models/live/density", "bad tenant!", "bad tenant!"},
		{"/v1/t/bad!/models/live/density", "", "bad!"},
	} {
		st, _, eb := send(t, url+tc.path, tc.header, `{"point":[0,0]}`)
		if st != http.StatusBadRequest || eb.Error.Code != "bad_tenant" ||
			!strings.Contains(eb.Error.Message, strconv.Quote(tc.id)) {
			t.Errorf("%s (header %q) -> %d %q %q, want 400 bad_tenant naming %q",
				tc.path, tc.header, st, eb.Error.Code, eb.Error.Message, tc.id)
		}
	}
}

// TestProxyAdmissionMetricsJSONKeys freezes the proxy's JSON /metrics
// key set.
func TestProxyAdmissionMetricsJSONKeys(t *testing.T) {
	_, url := tenantProxy(t, Options{}, "acme")
	var doc map[string]json.Number
	if err := json.Unmarshal([]byte(scrape(t, url+"/metrics")), &doc); err != nil {
		t.Fatalf("/metrics is not a flat numeric document: %v", err)
	}
	got := make([]string, 0, len(doc))
	for k := range doc {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"canceled", "degraded", "errors", "fanouts", "latency_count",
		"latency_mean_us", "requests", "shed", "timeouts", "uptime_seconds"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("/metrics keys changed:\n got %v\nwant %v", got, want)
	}
}

// TestProxyShutdownBeforeServe: a Shutdown that runs before Serve still
// stops the proxy — Serve returns http.ErrServerClosed at once.
func TestProxyShutdownBeforeServe(t *testing.T) {
	p, _ := tenantProxy(t, Options{}, "acme")
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() { served <- p.Serve(l) }()
	select {
	case err := <-served:
		if !errors.Is(err, http.ErrServerClosed) {
			t.Fatalf("Serve after Shutdown returned %v, want ErrServerClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve still running 2s after Shutdown returned")
	}
}

func scrape(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
