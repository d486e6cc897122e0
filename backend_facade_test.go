package udm_test

import (
	"testing"

	"udm"
)

// These tests pin the density-backend facade: EvalOptions parsing, the
// backend constructors, the Info contract, and the canonical
// DensityBatchOpts path over every rung.

func TestFacadeParseEvalOptions(t *testing.T) {
	opt, err := udm.ParseEvalOptions("backend=grid,epsilon=0.05,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if opt.Backend != udm.BackendGrid || opt.Epsilon != 0.05 || opt.Seed != 9 {
		t.Errorf("parsed %+v, want grid/0.05/seed 9", opt)
	}
	// The canonical String form round-trips.
	back, err := udm.ParseEvalOptions(opt.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != opt {
		t.Errorf("round-trip %+v != %+v", back, opt)
	}
	// Bare backend-name shorthand.
	if opt, err = udm.ParseEvalOptions("grid"); err != nil || opt.Backend != udm.BackendGrid {
		t.Errorf("shorthand: %+v, %v", opt, err)
	}
	if _, err := udm.ParseEvalOptions("backend=warp"); err == nil {
		t.Error("unknown backend parsed without error")
	}
}

func TestFacadeDensityBackends(t *testing.T) {
	clean, err := udm.TwoBlobs(3).Generate(500, udm.NewRand(41))
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := udm.Perturb(clean, 0.5, udm.NewRand(42))
	if err != nil {
		t.Fatal(err)
	}
	exact, info, err := udm.NewDensityBackend(noisy, udm.DensityOptions{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Exact || info.Backend != udm.BackendExact {
		t.Errorf("default backend info = %+v, want exact", info)
	}
	Q := noisy.X[:50]
	want, err := udm.DensityBatchOpts(exact, Q, nil, udm.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	for _, kind := range []udm.DensityBackendKind{udm.BackendMicro, udm.BackendGrid} {
		opt := udm.DensityOptions{ErrorAdjust: true}
		opt.Eval.Backend = kind
		b, info, err := udm.NewDensityBackend(noisy, opt)
		if err != nil {
			t.Fatalf("backend %s: %v", kind, err)
		}
		if info.Backend != kind || info.Contract == "" {
			t.Errorf("backend %s info = %+v", kind, info)
		}
		// Every rung runs on the canonical batch path. Grid advertises a
		// relative-error bound against the exact answer; the micro rung
		// is exact over its compressed summary, so against the raw-point
		// reference only a loose sanity tolerance applies.
		got, err := udm.DensityBatchOpts(b, Q, nil, udm.BatchOptions{Workers: 2})
		if err != nil {
			t.Fatalf("backend %s batch: %v", kind, err)
		}
		tol := info.Epsilon + 1e-12
		if kind == udm.BackendMicro {
			tol = 0.5
		}
		for i := range got {
			rel := (got[i] - want[i]) / want[i]
			if rel < 0 {
				rel = -rel
			}
			if rel > tol {
				t.Fatalf("backend %s query %d: rel err %v > advertised %v", kind, i, rel, tol)
			}
		}
	}
}

func TestFacadeBackendFromSummarizer(t *testing.T) {
	clean, err := udm.TwoBlobs(3).Generate(400, udm.NewRand(51))
	if err != nil {
		t.Fatal(err)
	}
	sum := udm.Summarize(clean, 30, udm.NewRand(52))
	opt := udm.DensityOptions{}
	opt.Eval.Backend = udm.BackendMicro
	b, _, err := udm.DensityBackendFromSummarizer(sum, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Micro over an existing summary is the exact engine over its
	// pseudo-points: bit-identical to ClusterDensity.
	ref, err := udm.NewClusterDensity(sum, udm.DensityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := clean.X[7]
	got := b.Density(x)
	want := ref.Density(x)
	if got != want {
		t.Errorf("micro-over-summary density %v != cluster density %v", got, want)
	}
}
