package distrib

import (
	"testing"
)

// TestKeyPointTenantLegacyCompat: the empty and default tenants hash
// exactly like the tenant-less KeyPoint, so every pre-tenancy ring
// layout (and its bit-identity fixtures) is preserved.
func TestKeyPointTenantLegacyCompat(t *testing.T) {
	points := [][]float64{
		{0, 0},
		{1.5, -2.25},
		{3.14159, 2.71828, -1},
	}
	for _, x := range points {
		legacy := KeyPoint(x)
		if got := KeyPointTenant("", x); got != legacy {
			t.Errorf("KeyPointTenant(\"\", %v) = %x, want legacy %x", x, got, legacy)
		}
		if got := KeyPointTenant("default", x); got != legacy {
			t.Errorf("KeyPointTenant(default, %v) = %x, want legacy %x", x, got, legacy)
		}
	}
}

// TestKeyPointTenantSalting: distinct tenants route bit-equal points
// independently, and the tenant/coordinate boundary is unambiguous —
// no (tenant, point-prefix) concatenation can collide with another
// tenant whose id extends into the coordinates.
func TestKeyPointTenantSalting(t *testing.T) {
	x := []float64{1.5, -2.25}
	legacy := KeyPoint(x)
	keys := map[uint64]string{legacy: "default"}
	for _, tenant := range []string{"a", "b", "aa", "acme", "acme2"} {
		k := KeyPointTenant(tenant, x)
		if prev, dup := keys[k]; dup {
			t.Fatalf("tenants %q and %q share routing key %x for the same point", tenant, prev, k)
		}
		keys[k] = tenant
	}
	// Deterministic: the salt is a pure function of (tenant, point).
	if KeyPointTenant("acme", x) != KeyPointTenant("acme", []float64{1.5, -2.25}) {
		t.Fatal("tenant-salted key is not deterministic")
	}
}

// TestRingOwnerPointTenant: tenant-salted routing spreads one tenant's
// hot point across shards differently than another's, while the
// default tenant matches legacy OwnerPoint everywhere.
func TestRingOwnerPointTenant(t *testing.T) {
	ring, err := NewRing(4, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for i := 0; i < 64 && !differs; i++ {
		x := []float64{float64(i), float64(i % 7)}
		if ring.OwnerPoint(x) != ring.OwnerPointTenant("default", x) {
			t.Fatalf("default tenant routed point %v differently than legacy", x)
		}
		if ring.OwnerPointTenant("a", x) != ring.OwnerPointTenant("b", x) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("tenants a and b routed 64 points identically: the salt is inert")
	}
}
