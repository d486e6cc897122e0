package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// BenchmarkServeDensity measures one single-point /density request
// through the whole handler stack (admission front, decode, cache,
// coalescer, encode) on the test server's stream model: a cache hit, a
// miss at a fresh point each iteration, and the same fresh-point
// request with the cache off. The request build and the recorder are
// part of every iteration, so compare allocs/op across builds, not
// against zero.
func BenchmarkServeDensity(b *testing.B) {
	for _, bc := range []struct {
		name  string
		opt   Options
		fresh bool
	}{
		{"hit", Options{}, false},
		{"miss", Options{}, true},
		{"cache-off", Options{CacheSize: -1}, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := testServer(b, bc.opt, "").Handler()
			body := make([]byte, 0, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := 0.25
				if bc.fresh {
					x += float64(i) * 1e-9
				}
				body = strconv.AppendFloat(append(body[:0], `{"point":[`...), x, 'g', -1, 64)
				body = append(body, `,-0.5]}`...)
				req := httptest.NewRequest(http.MethodPost, "/v1/models/live/density", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
