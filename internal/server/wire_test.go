package server

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"udm/internal/udmerr"
)

// TestModelPathQualified: qualified "tenant/name" refs map to the
// namespaced URL space; plain names, and the default tenant's
// qualified form, keep the legacy paths.
func TestModelPathQualified(t *testing.T) {
	cases := []struct{ ref, path, tenant, canon string }{
		{"live", "/v1/models/live", "default", "live"},
		{"acme/live", "/v1/t/acme/models/live", "acme", "acme/live"},
		{"default/live", "/v1/models/live", "default", "live"},
	}
	for _, c := range cases {
		if got := ModelPath(c.ref); got != c.path {
			t.Errorf("ModelPath(%q) = %q, want %q", c.ref, got, c.path)
		}
		tenant, name := SplitModelRef(c.ref)
		if tenant != c.tenant || name != "live" {
			t.Errorf("SplitModelRef(%q) = %q, %q, want %q, \"live\"", c.ref, tenant, name, c.tenant)
		}
		if got := ModelRef(tenant, name); got != c.canon {
			t.Errorf("ModelRef(%q, %q) = %q, want %q", tenant, name, got, c.canon)
		}
	}
}

// TestValidModelRef: the config-time validation of model refs.
func TestValidModelRef(t *testing.T) {
	for _, ok := range []string{"live", "acme/live", "a.b-c_d/x"} {
		if !ValidModelRef(ok) {
			t.Errorf("ValidModelRef(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "a/", "/x", "a/b/c", "../x", "a/..", "a b/x"} {
		if ValidModelRef(bad) {
			t.Errorf("ValidModelRef(%q) = true, want false", bad)
		}
	}
}

// TestErrorCodesRoundTrip: every code statusFor produces, except
// internal, maps back through SentinelFor to an error statusFor maps to
// the same status and code, so a shard's failure keeps its code across
// the proxy hop.
func TestErrorCodesRoundTrip(t *testing.T) {
	errs := []error{
		context.DeadlineExceeded, context.Canceled,
		udmerr.ErrDimensionMismatch, udmerr.ErrNoErrors, udmerr.ErrUntrained,
		udmerr.ErrBadOption, udmerr.ErrBadData, udmerr.ErrInjected,
		udmerr.ErrCircuitOpen, udmerr.ErrDegraded, udmerr.ErrStaleVersion,
		udmerr.ErrTailExpired, udmerr.ErrShardTimeout,
	}
	for _, err := range errs {
		status, code := statusFor(fmt.Errorf("x: %w", err))
		if code == "internal" {
			continue
		}
		sent := SentinelFor(code)
		if sent == nil {
			t.Errorf("SentinelFor(%q) = nil", code)
			continue
		}
		if s2, c2 := statusFor(fmt.Errorf("remote: %w", sent)); s2 != status || c2 != code {
			t.Errorf("code %q: round trip gives %d/%q, want %d/%q", code, s2, c2, status, code)
		}
	}
	if SentinelFor("internal") != nil {
		t.Error("SentinelFor(internal) is not nil")
	}
	if !errors.Is(SentinelFor("malformed_json"), udmerr.ErrBadOption) {
		t.Error("malformed_json does not map to ErrBadOption")
	}
}
