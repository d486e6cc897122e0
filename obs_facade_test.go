package udm_test

import (
	"context"
	"strings"
	"testing"

	"udm"
)

// TestFacadeObservability exercises the observability surface exposed
// through the facade: an application span wrapping a library batch
// call, the Prometheus metrics dump, and the telemetry kill switch —
// which must never change computed results.
func TestFacadeObservability(t *testing.T) {
	ds, err := udm.TwoBlobs(3).Generate(120, udm.NewRand(44))
	if err != nil {
		t.Fatal(err)
	}
	est, err := udm.NewPointDensity(ds, udm.DensityOptions{ErrorAdjust: true})
	if err != nil {
		t.Fatal(err)
	}

	ctx, sp := udm.StartSpan(context.Background(), "test.FacadeObservability")
	on, err := udm.DensityBatchOpts(est, ds.X, nil, udm.BatchOptions{Ctx: ctx, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp.End()
	sp.End() // End is idempotent and must stay safe to repeat

	var buf strings.Builder
	if err := udm.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"udm_kde_batches_total", "udm_kde_kernel_evals_total", "udm_parallel_for_calls_total"} {
		if !strings.Contains(buf.String(), series) {
			t.Errorf("WriteMetrics output missing series %s", series)
		}
	}

	if !udm.TelemetryEnabled() {
		t.Fatal("telemetry should be enabled by default")
	}
	udm.SetTelemetry(false)
	defer udm.SetTelemetry(true)
	if udm.TelemetryEnabled() {
		t.Fatal("SetTelemetry(false) did not take")
	}
	off, err := udm.DensityBatchOpts(est, ds.X, nil, udm.BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("density %d differs with telemetry off: %g vs %g", i, on[i], off[i])
		}
	}
}
