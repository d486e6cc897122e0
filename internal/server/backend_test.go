package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"udm/internal/core"
	"udm/internal/evalopt"
	"udm/internal/kde"
	"udm/internal/kernel"
	"udm/internal/udmerr"
)

// postDensity POSTs a density request with optional extra headers and
// returns the raw response plus the decoded body.
func postDensity(t *testing.T, url string, body map[string]any, hdr map[string]string) (*http.Response, densityResponse) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out densityResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decoding response: %v", url, err)
	}
	return resp, out
}

// TestDensityBackendSelection exercises the per-request backend switch:
// JSON field and header selection, the response header contract, and
// each approximate rung's accuracy against the default exact answer.
func TestDensityBackendSelection(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/models/blobs/density"
	x := []float64{-1.5, 0.5}

	// Default request: no backend header on the response (wire format
	// unchanged for existing clients).
	defResp, def := postDensity(t, url, map[string]any{"point": x}, nil)
	if defResp.StatusCode != 200 {
		t.Fatalf("default density = %d, want 200", defResp.StatusCode)
	}
	if got := defResp.Header.Get("X-UDM-Backend"); got != "" {
		t.Errorf("default response leaked X-UDM-Backend = %q", got)
	}

	// Explicit exact: header echoed, answer bit-identical to default.
	exResp, ex := postDensity(t, url, map[string]any{"point": x, "backend": "exact"}, nil)
	if exResp.StatusCode != 200 || exResp.Header.Get("X-UDM-Backend") != "exact" {
		t.Fatalf("exact backend: %d / %q", exResp.StatusCode, exResp.Header.Get("X-UDM-Backend"))
	}
	if *ex.Density != *def.Density {
		t.Errorf("explicit exact %v != default %v (must be bit-identical)", *ex.Density, *def.Density)
	}

	// The micro backend over a summarizer-backed model evaluates the
	// same summary exactly; grid must stay within its advertised
	// relative-error bound (the default ε = 0.1).
	for _, tc := range []struct {
		backend string
		relTol  float64
	}{
		{"micro", 0},
		{"grid", 0.11},
	} {
		resp, out := postDensity(t, url, map[string]any{"point": x, "backend": tc.backend}, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("backend %s = %d, want 200", tc.backend, resp.StatusCode)
		}
		if got := resp.Header.Get("X-UDM-Backend"); got != tc.backend {
			t.Errorf("backend %s: response header %q", tc.backend, got)
		}
		rel := (*out.Density - *def.Density) / *def.Density
		if rel < 0 {
			rel = -rel
		}
		if rel > tc.relTol {
			t.Errorf("backend %s density %v vs exact %v: rel err %v > %v",
				tc.backend, *out.Density, *def.Density, rel, tc.relTol)
		}
	}

	// Header fallback selects the backend when the JSON field is empty...
	hResp, h := postDensity(t, url, map[string]any{"point": x}, map[string]string{"X-UDM-Backend": "micro"})
	if hResp.StatusCode != 200 || hResp.Header.Get("X-UDM-Backend") != "micro" {
		t.Fatalf("header selection: %d / %q", hResp.StatusCode, hResp.Header.Get("X-UDM-Backend"))
	}
	jResp, j := postDensity(t, url, map[string]any{"point": x, "backend": "micro"}, nil)
	if jResp.StatusCode != 200 || *h.Density != *j.Density {
		t.Errorf("header-selected micro %v != JSON-selected micro %v", *h.Density, *j.Density)
	}

	// ...and the JSON field wins when both are present.
	wResp, w := postDensity(t, url, map[string]any{"point": x, "backend": "exact"},
		map[string]string{"X-UDM-Backend": "micro"})
	if wResp.Header.Get("X-UDM-Backend") != "exact" {
		t.Errorf("JSON field did not win over header: %q", wResp.Header.Get("X-UDM-Backend"))
	}
	if *w.Density != *def.Density {
		t.Errorf("JSON-wins exact %v != default %v", *w.Density, *def.Density)
	}

	// Batch requests honor the backend too.
	bResp, b := postDensity(t, url, map[string]any{
		"points": [][]float64{x, {2.0, 0.0}}, "backend": "micro",
	}, nil)
	if bResp.StatusCode != 200 || len(b.Densities) != 2 {
		t.Fatalf("micro batch = %d with %d densities", bResp.StatusCode, len(b.Densities))
	}
}

// TestDensityBackendErrors pins the failure modes: unknown names,
// including the removed hbe rung, are 400 bad_option.
func TestDensityBackendErrors(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/models/blobs/density"
	x := []float64{-1.5, 0.5}

	for name, body := range map[string]map[string]any{
		"unknown backend": {"point": x, "backend": "fast"},
		"removed hbe":     {"point": x, "backend": "hbe"},
	} {
		status, code := errCode(t, url, body)
		if status != 400 || code != "bad_option" {
			t.Errorf("%s: got %d/%q, want 400/bad_option", name, status, code)
		}
	}

	// The micro backend runs the exact engine over the summary, so it
	// composes with the approximate kernel accuracy rather than
	// rejecting it.
	if status := postJSON(t, url, map[string]any{
		"point": x, "backend": "micro", "accuracy": "approx", "epsilon": 1e-6,
	}, nil); status != 200 {
		t.Errorf("micro+approx = %d, want 200", status)
	}

	// An unknown header backend fails the same way.
	resp, _ := postDensity(t, url, map[string]any{"point": x}, map[string]string{"X-UDM-Backend": "nope"})
	if resp.StatusCode != 400 {
		t.Errorf("unknown header backend = %d, want 400", resp.StatusCode)
	}
}

// TestDensityBackendCacheSegmentation verifies backend-tagged cache
// keys: the same point never aliases across backends, repeats hit their
// own entry, and ingestion retires the cached backends.
func TestDensityBackendCacheSegmentation(t *testing.T) {
	s := testServer(t, Options{}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/models/blobs/density"
	x := []float64{-1.5, 0.5}

	// Warm the default cache entry.
	if _, out := postDensity(t, url, map[string]any{"point": x}, nil); out.Cached {
		t.Fatal("first default query reported cached")
	}
	if _, out := postDensity(t, url, map[string]any{"point": x}, nil); !out.Cached {
		t.Fatal("repeat default query missed the cache")
	}

	// The micro backend answers bit-identically here, so a shared key
	// would satisfy this request from the default entry: cached=true
	// would prove the backend is missing from the key.
	if _, out := postDensity(t, url, map[string]any{"point": x, "backend": "micro"}, nil); out.Cached {
		t.Error("first micro query hit the default cache entry (backend missing from key)")
	}
	if _, out := postDensity(t, url, map[string]any{"point": x, "backend": "micro"}, nil); !out.Cached {
		t.Error("repeat micro query missed its own cache entry")
	}

	// Explicit exact shares the default entry by design (bit-identical
	// contract, same key).
	if _, out := postDensity(t, url, map[string]any{"point": x, "backend": "exact"}, nil); !out.Cached {
		t.Error("explicit exact did not share the default cache entry")
	}

	// Ingestion advances the stream model's version: its cached backend
	// answers must be rebuilt, not replayed.
	liveURL := ts.URL + "/v1/models/live/density"
	if _, out := postDensity(t, liveURL, map[string]any{"point": x, "backend": "micro"}, nil); out.Cached {
		t.Fatal("first live micro query reported cached")
	}
	if status := postJSON(t, ts.URL+"/v1/models/live/ingest",
		map[string]any{"points": [][]float64{{0.4, 0.4}}}, nil); status != 200 {
		t.Fatalf("ingest = %d, want 200", status)
	}
	if _, out := postDensity(t, liveURL, map[string]any{"point": x, "backend": "micro"}, nil); out.Cached {
		t.Error("post-ingest micro query served a stale cached answer")
	}
}

// TestModelConstructorsRefuseRequestKnobs: the backend and the accuracy
// mode belong to each density request, so every model constructor
// refuses construction options that name either one, pointing at the
// request field instead; prune stays a construction policy.
func TestModelConstructorsRefuseRequestKnobs(t *testing.T) {
	tr := testTransform(t)
	ctors := map[string]func(kde.Options) (*Model, error){
		"transform": func(opt kde.Options) (*Model, error) {
			return NewTransformModel("m", tr, core.ClassifierOptions{KDE: opt})
		},
		"summarizer": func(opt kde.Options) (*Model, error) {
			return NewSummarizerModel("m", tr.Global(), opt)
		},
		"stream": func(opt kde.Options) (*Model, error) {
			return NewStreamModel("m", testEngine(t), opt, "")
		},
	}
	refused := map[string]evalopt.Options{
		`"backend"`:  {Backend: evalopt.BackendMicro},
		`"accuracy"`: {Accuracy: kernel.Approx(0.05)},
		`"q"`:        {MicroClusters: 50},
		`"seed"`:     {Seed: 7},
	}
	for kind, ctor := range ctors {
		for field, ev := range refused {
			_, err := ctor(kde.Options{ErrorAdjust: true, Eval: ev})
			if !errors.Is(err, udmerr.ErrBadOption) {
				t.Errorf("%s with %s set: error %v, want ErrBadOption", kind, field, err)
				continue
			}
			if !strings.Contains(err.Error(), field) {
				t.Errorf("%s with %s set: error %q does not name the request field", kind, field, err)
			}
		}
		if _, err := ctor(kde.Options{ErrorAdjust: true, Eval: evalopt.Options{Prune: 0.01}}); err != nil {
			t.Errorf("%s with prune: %v", kind, err)
		}
	}
}
