package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"udm/internal/kde"
	"udm/internal/stream"
)

// fuzzServer is built once per fuzz worker process: a tiny stream
// model under both the default tenant and tenant "t1", cheap enough
// that thousands of fuzz executions stay fast.
var (
	fuzzOnce sync.Once
	fuzzTS   *httptest.Server
)

func fuzzTarget(t testing.TB) *httptest.Server {
	t.Helper()
	fuzzOnce.Do(func() {
		reg := NewRegistry()
		for _, tenant := range []string{DefaultTenant, "t1"} {
			eng, err := stream.NewEngine(stream.Options{MicroClusters: 4, Dims: 2})
			if err != nil {
				panic(err)
			}
			for i := 0; i < 12; i++ {
				eng.Add([]float64{float64(i % 3), float64(i % 4)}, nil, int64(i+1))
			}
			m, err := NewStreamModel("live", eng, kde.Options{}, "")
			if err != nil {
				panic(err)
			}
			if err := reg.AddTenant(tenant, m); err != nil {
				panic(err)
			}
		}
		fuzzTS = httptest.NewServer(New(reg, Options{}).Handler())
	})
	return fuzzTS
}

// FuzzTenantPath throws adversarial tenant and model identifiers at
// the namespaced routing surface. Properties: the server never
// panics (a panic kills the httptest server and surfaces as a
// transport error), invalid tenants never reach a handler (they answer
// 400 bad_tenant or fall off the route table as 404), and whenever a
// request is served its tenant echo matches exactly the tenant it was
// addressed to.
func FuzzTenantPath(f *testing.F) {
	f.Add("default", "live")
	f.Add("t1", "live")
	f.Add("t1", "nope")
	f.Add("..", "live")
	f.Add(".", "x")
	f.Add("", "")
	f.Add("a/b", "live")
	f.Add("tenant\x00zero", "live")
	f.Add("ünïcode", "live")
	f.Add(strings.Repeat("x", 65), "live")
	f.Add("t1", "model name with spaces")
	f.Add("%2e%2e", "live")
	f.Add("t1", "..%2f..")

	f.Fuzz(func(t *testing.T, tenant, model string) {
		ts := fuzzTarget(t)
		u := ts.URL + "/v1/t/" + url.PathEscape(tenant) + "/models/" + url.PathEscape(model) + "/density"
		resp, err := http.Post(u, "application/json", strings.NewReader(`{"point":[0.5,0.5]}`))
		if err != nil {
			t.Fatalf("transport error (did the server panic?): %v", err)
		}
		defer resp.Body.Close()

		switch resp.StatusCode {
		case http.StatusOK:
			if !ValidIdent(tenant) {
				t.Fatalf("invalid tenant %q was served", tenant)
			}
			if !ValidIdent(model) {
				t.Fatalf("invalid model %q was served", model)
			}
			if echo := resp.Header.Get(TenantHeader); echo != tenant {
				t.Fatalf("served tenant %q but echoed %q", tenant, echo)
			}
		case http.StatusBadRequest:
			// bad_tenant / bad_option — fine, nothing was served.
		case http.StatusNotFound:
			// Unknown tenant/model, or the escaped path fell off the route
			// table entirely — either way nothing was served.
		case http.StatusMovedPermanently, http.StatusTemporaryRedirect, http.StatusPermanentRedirect,
			http.StatusMethodNotAllowed:
			// net/http cleans dot-segment paths before routing (redirect,
			// or a method mismatch against whatever route the cleaned path
			// lands on); the request never reached a tenant handler.
		default:
			t.Fatalf("tenant %q model %q -> unexpected status %d", tenant, model, resp.StatusCode)
		}
	})
}
