package kde

import "udm/internal/obs"

// Hot-path telemetry. Batch entry points count work at batch
// granularity — one span and a handful of atomic adds per call, never
// per kernel evaluation — so instrumentation overhead stays within the
// ≤5% budget on DensityBatchOpts. Everything here is observational:
// numeric results are bit-for-bit identical with telemetry on or off.
var (
	densityBatches = obs.Default().Counter("udm_kde_batches_total",
		"batch density evaluations started", "op", "density")
	densityQBatches = obs.Default().Counter("udm_kde_batches_total",
		"batch density evaluations started", "op", "density_q")
	kernelEvals = obs.Default().Counter("udm_kde_kernel_evals_total",
		"kernel evaluations implied by batch calls (queries x training points)")
	kernelEvalsPruned = obs.Default().Counter("udm_kde_kernel_evals_pruned_total",
		"implied kernel evaluations skipped by far-field subtree pruning")
	cvCells = obs.Default().Counter("udm_kde_cv_cells_total",
		"leave-one-out grid cells evaluated by CV bandwidth selection")
	cvScores = obs.Default().Counter("udm_kde_cv_scores_total",
		"full-model CV log-likelihood evaluations")
)
