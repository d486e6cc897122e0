// Package udmerr defines the sentinel errors of the module's error
// contract. Internal packages wrap these with %w at the point of
// failure, the root package re-exports them, and callers classify
// failures with errors.Is instead of matching message strings:
//
//	if errors.Is(err, udmerr.ErrDimensionMismatch) { ... }
//
// The sentinels partition failures by what the caller can do about
// them:
//
//   - ErrDimensionMismatch: the shape of the supplied data disagrees
//     with the model or dataset (wrong row width, subspace dimension
//     out of range, mismatched error-matrix shape). Fix the input.
//   - ErrNoErrors: an operation that needs per-entry error information
//     ran against data (or an estimator) that carries none, or
//     error-free and error-bearing rows were mixed. Supply errors or
//     drop the error-dependent option.
//   - ErrUntrained: the model or estimator has no data behind it
//     (empty dataset, empty summarizer, no training rows for a class).
//     Train or load a model first.
//   - ErrBadOption: an option value is out of its documented domain
//     (non-positive cluster counts, non-positive explicit bandwidths).
//     Fix the configuration.
//   - ErrBadData: the content of the supplied data is malformed even
//     though its shape may be right (NaN/Inf values, sums that overflow
//     to Inf, invalid standard errors, out-of-range labels, malformed
//     CSV, corrupt snapshot or checkpoint artifacts). Fix or regenerate
//     the data.
//   - ErrInjected: a deliberate fault from internal/faultinject fired at
//     this site. Transient by construction; retry or disarm the plan.
//   - ErrCircuitOpen: a shard's circuit breaker (in udmproxy's shard
//     client) is open and the RPC was refused without contacting the
//     shard. Retry later.
//   - ErrDegraded: a partitioned fan-out had no surviving shard to
//     answer from, so not even a partial answer exists. Retry later.
//   - ErrStaleVersion: a distributed partial evaluation was requested
//     against a model version the shard has moved past (or not yet
//     reached). Refresh the coordinating summary and retry.
//   - ErrTailExpired: a replica catch-up tail no longer reaches back to
//     the requested ordinal. Deterministic until the replica pulls a
//     fresh checkpoint — never worth a blind retry.
//   - ErrShardTimeout: one shard RPC attempt exceeded its per-attempt
//     deadline while the caller's own deadline was still live. A
//     transient slow-shard fault; the retry budget covers it.
//
// The package sits below every other internal package so any layer can
// wrap the sentinels without import cycles.
package udmerr

import "errors"

var (
	// ErrDimensionMismatch reports input whose shape disagrees with the
	// model or dataset it is applied to.
	ErrDimensionMismatch = errors.New("dimension mismatch")

	// ErrNoErrors reports an error-dependent operation applied to data
	// without per-entry error information (or inconsistent mixing of
	// error-free and error-bearing rows).
	ErrNoErrors = errors.New("no error information")

	// ErrUntrained reports an operation against a model or estimator
	// with no data behind it.
	ErrUntrained = errors.New("untrained model")

	// ErrBadOption reports an option value outside its documented
	// domain.
	ErrBadOption = errors.New("bad option")

	// ErrBadData reports supplied data whose content (not shape) is
	// malformed: NaN or Inf values, invalid standard errors,
	// out-of-range labels, unparseable or inconsistent CSV, or a
	// corrupt model/checkpoint artifact. Fix or regenerate the data.
	ErrBadData = errors.New("bad data")

	// ErrInjected reports a failure manufactured by the fault-injection
	// framework (internal/faultinject). It never occurs in production
	// builds with injection disarmed; seeing it means a fault plan is
	// active. Resilience layers treat it as a transient backend fault.
	ErrInjected = errors.New("injected fault")

	// ErrCircuitOpen reports a shard RPC refused because that shard's
	// circuit breaker is open: the shard failed repeatedly and the
	// proxy is shedding work to let it recover. Retry after the
	// breaker's cooldown.
	ErrCircuitOpen = errors.New("circuit open")

	// ErrDegraded reports that a partitioned fan-out could not produce
	// even a degraded (partial) answer: no shard survived — each one
	// failed or had its breaker open. Retry after the breakers'
	// cooldown.
	ErrDegraded = errors.New("degraded mode cannot serve request")

	// ErrStaleVersion reports a distributed partial evaluation pinned
	// to a model version the shard no longer (or does not yet) hold —
	// concurrent ingestion advanced the shard between the coordinator's
	// summary pull and its fan-out. The coordinator refreshes its
	// merged summary and retries; the error is deterministic for a
	// fixed version token, so the low-level retry layer never retries
	// it.
	ErrStaleVersion = errors.New("stale model version")

	// ErrTailExpired reports a replica catch-up tail request for records
	// that have aged out of the primary's retained window (or a primary
	// whose volatile tail ring restarted empty). The condition is
	// deterministic for a fixed ordinal: retrying the same tail cannot
	// succeed, the replica must restart from a fresh checkpoint.
	ErrTailExpired = errors.New("tail window expired")

	// ErrShardTimeout reports a single shard RPC attempt that exceeded
	// its attempt-local deadline while the caller's own deadline was
	// still live. Unlike a caller timeout (context.DeadlineExceeded,
	// never retried) this is a transient backend fault: the retry layer
	// re-runs the attempt and the failure counts against the shard's
	// circuit breaker.
	ErrShardTimeout = errors.New("shard attempt timed out")
)
