package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"

	"udm/internal/evalopt"
	"udm/internal/kde"
	"udm/internal/kernel"
	"udm/internal/microcluster"
	"udm/internal/outlier"
	"udm/internal/udmerr"
)

// This file is the wire contract both serving tiers answer under: the
// request and response shapes, one validator per request shape, the
// outlier scorer, the model-reference rules, and the sentinel ↔
// (status, code) table. The single-node handlers and the distributed
// proxy (internal/distrib) both call it, so a check added here holds on
// both tiers at once. Tier-specific checks (model kinds, quotas, the
// proxy's layout modes) stay with their handlers.

// Wire shapes shared verbatim with the single-node server, so the
// proxy is drop-in URL- and body-compatible.
type (
	ClassifyRequest  = classifyRequest
	ClassifyResponse = classifyResponse
	DensityRequest   = densityRequest
	DensityResponse  = densityResponse
	OutliersRequest  = outliersRequest
	OutliersResponse = outliersResponse
	IngestRequest    = ingestRequest
	IngestResponse   = ingestResponse
	PartialRequest   = partialRequest
	PartialResponse  = partialResponse
	TailResponse     = tailResponse
	ErrorBody        = errorBody
)

// StatusClientClosedRequest is the nginx-convention status for a
// client that disconnected before the response was ready. The client
// never sees it; it keeps access logs honest.
const StatusClientClosedRequest = 499

// errorCodes maps each sentinel to its (HTTP status, stable code).
// statusFor reads it forward, first errors.Is match wins (so order
// matters for an error wrapping two sentinels); SentinelFor reads it
// backward. No string matching anywhere.
var errorCodes = []struct {
	err    error
	status int
	code   string
}{
	{context.DeadlineExceeded, http.StatusGatewayTimeout, "timeout"},
	{context.Canceled, StatusClientClosedRequest, "client_closed_request"},
	{udmerr.ErrDimensionMismatch, http.StatusBadRequest, "dimension_mismatch"},
	{udmerr.ErrBadOption, http.StatusBadRequest, "bad_option"},
	{udmerr.ErrNoErrors, http.StatusBadRequest, "no_errors"},
	{udmerr.ErrBadData, http.StatusBadRequest, "bad_data"},
	{udmerr.ErrUntrained, http.StatusConflict, "untrained"},
	{udmerr.ErrStaleVersion, http.StatusConflict, "stale_version"},
	{udmerr.ErrTailExpired, http.StatusGone, "tail_expired"},
	{udmerr.ErrShardTimeout, http.StatusGatewayTimeout, "shard_timeout"},
	{udmerr.ErrCircuitOpen, http.StatusServiceUnavailable, "circuit_open"},
	{udmerr.ErrDegraded, http.StatusServiceUnavailable, "degraded"},
	{udmerr.ErrInjected, http.StatusBadGateway, "injected_fault"},
}

// statusFor maps an error to (HTTP status, stable code); an error
// wrapping no sentinel is 500 internal.
func statusFor(err error) (int, string) {
	for _, e := range errorCodes {
		if errors.Is(err, e.err) {
			return e.status, e.code
		}
	}
	return http.StatusInternalServerError, "internal"
}

// SentinelFor inverts the wire mapping: the sentinel error a stable
// code stands for, or nil for codes with no sentinel (e.g.
// "internal"). Clients of the protocol wrap the sentinel so their
// callers classify remote failures with errors.Is, never by matching
// message strings.
func SentinelFor(code string) error {
	if code == "malformed_json" { // Front.Decode's code for a bad body
		return udmerr.ErrBadOption
	}
	for _, e := range errorCodes {
		if e.code == code {
			return e.err
		}
	}
	return nil
}

// SplitModelRef splits a model reference into its tenant and name: a
// qualified "tenant/name" names that tenant's model, a plain name the
// default tenant's. It does not validate; see ValidModelRef.
func SplitModelRef(ref string) (tenant, name string) {
	if tenant, name, ok := strings.Cut(ref, "/"); ok {
		return tenant, name
	}
	return DefaultTenant, ref
}

// ModelRef joins (tenant, name) into the canonical reference: the plain
// name in the default tenant, "tenant/name" elsewhere. It is the form
// flags, spans and errors use, so "default/x" and "x" are one model
// and single-tenant dashboards stay unchanged.
func ModelRef(tenant, name string) string {
	if tenant == DefaultTenant {
		return name
	}
	return tenant + "/" + name
}

// ValidModelRef reports whether ref is a plain model name or a
// "tenant/name" reference, both parts valid identifiers.
func ValidModelRef(ref string) bool {
	tenant, name := SplitModelRef(ref)
	return ValidIdent(tenant) && ValidIdent(name)
}

// ModelPath is the URL path a model reference is served under: the
// legacy /v1/models/{name} alias for the default tenant, the
// /v1/t/{tenant}/models/{name} namespace otherwise.
func ModelPath(ref string) string {
	tenant, name := SplitModelRef(ref)
	if tenant == DefaultTenant {
		return "/v1/models/" + name
	}
	return "/v1/t/" + tenant + "/models/" + name
}

// points normalizes the single-point / multi-point request shape and
// checks every row's width against the model (dims wide): no rows is
// a bad option, a row of another width a dimension mismatch.
func points(model string, dims int, point []float64, rows [][]float64) ([][]float64, bool, error) {
	single := false
	if point != nil {
		rows = append([][]float64{point}, rows...)
		single = len(rows) == 1
	}
	if len(rows) == 0 {
		return nil, false, fmt.Errorf("server: no points in request: %w", udmerr.ErrBadOption)
	}
	for i, x := range rows {
		if len(x) != dims {
			return nil, false, fmt.Errorf("server: point %d has %d dims, model %q has %d: %w",
				i, len(x), model, dims, udmerr.ErrDimensionMismatch)
		}
	}
	return rows, single, nil
}

// errorRows checks that every supplied error row is as wide as the
// model.
func errorRows(model string, dims int, errs [][]float64) error {
	for i, er := range errs {
		if er != nil && len(er) != dims {
			return fmt.Errorf("server: error row %d has %d dims, model %q has %d: %w",
				i, len(er), model, dims, udmerr.ErrDimensionMismatch)
		}
	}
	return nil
}

// subspace checks that every requested subspace dimension indexes a
// model dims wide.
func subspace(dims int, sub []int) error {
	for _, j := range sub {
		if j < 0 || j >= dims {
			return fmt.Errorf("server: subspace dimension %d out of range [0,%d): %w",
				j, dims, udmerr.ErrDimensionMismatch)
		}
	}
	return nil
}

// Validate checks a classify request against a model dims wide and
// returns its rows, and whether it used the single-point form.
func (req *classifyRequest) Validate(model string, dims int) (rows [][]float64, single bool, err error) {
	return points(model, dims, req.Point, req.Points)
}

// Validate checks a density request against a model dims wide: the
// points, every subspace dimension, the accuracy mode, and the backend
// (the JSON field, else the X-UDM-Backend header). It then echoes the
// mode in X-UDM-Accuracy and, when one was named, the backend in
// X-UDM-Backend, and records the named backend in req.Backend so a
// forwarded request carries it.
func (req *densityRequest) Validate(w http.ResponseWriter, r *http.Request, model string, dims int) (
	rows [][]float64, single bool, acc kernel.AccuracyMode, bk evalopt.Backend, err error) {
	if rows, single, err = points(model, dims, req.Point, req.Points); err != nil {
		return nil, false, acc, bk, err
	}
	if err = subspace(dims, req.Dims); err != nil {
		return nil, false, acc, bk, err
	}
	acc, ok := kernel.ParseAccuracy(req.Accuracy, req.Epsilon)
	if !ok {
		return nil, false, acc, bk, fmt.Errorf("server: accuracy %q with epsilon %v is not a valid mode (want \"exact\" or \"approx\" with epsilon > 0): %w",
			req.Accuracy, req.Epsilon, udmerr.ErrBadOption)
	}
	// Responses echo the backend only when one was named, so default
	// responses stay byte-identical to the pre-backend wire format.
	if req.Backend == "" {
		req.Backend = r.Header.Get("X-UDM-Backend")
	}
	if bk, err = evalopt.ParseBackend(req.Backend); err != nil {
		return nil, false, acc, bk, fmt.Errorf("server: %w", err)
	}
	w.Header().Set("X-UDM-Accuracy", acc.String())
	if req.Backend != "" {
		w.Header().Set("X-UDM-Backend", string(bk))
	}
	return rows, single, acc, bk, nil
}

// Validate checks an outliers request's points, subspace dimensions
// and error rows against a model dims wide.
func (req *outliersRequest) Validate(model string, dims int) error {
	if _, _, err := points(model, dims, nil, req.Points); err != nil {
		return err
	}
	if err := subspace(dims, req.Dims); err != nil {
		return err
	}
	return errorRows(model, dims, req.Errors)
}

// Validate checks an ingest request against a model dims wide: the
// points, one error row and one timestamp per point when either is
// given, the error rows' widths, and that the batch cannot overflow a
// Definition-1 sum (finiteSquares).
func (req *ingestRequest) Validate(model string, dims int) error {
	if _, _, err := points(model, dims, nil, req.Points); err != nil {
		return err
	}
	if req.Errors != nil && len(req.Errors) != len(req.Points) {
		return fmt.Errorf("server: %d error rows for %d points: %w",
			len(req.Errors), len(req.Points), udmerr.ErrDimensionMismatch)
	}
	if req.Timestamps != nil && len(req.Timestamps) != len(req.Points) {
		return fmt.Errorf("server: %d timestamps for %d points: %w",
			len(req.Timestamps), len(req.Points), udmerr.ErrDimensionMismatch)
	}
	if err := errorRows(model, dims, req.Errors); err != nil {
		return err
	}
	if err := finiteSquares("point", dims, req.Points); err != nil {
		return err
	}
	return finiteSquares("error", dims, req.Errors)
}

// finiteSquares refuses, with udmerr.ErrBadData, a batch of rows (dims
// wide; nil rows skipped) holding a value whose square is not finite,
// or whose sum of squares along any column is not finite. Ingested
// values and errors enter the Definition-1 sums CF2x and EF2x squared,
// so either would overflow them and poison every later density.
func finiteSquares(what string, dims int, rows [][]float64) error {
	sums := make([]float64, dims)
	for i, row := range rows {
		for j, v := range row {
			sq := v * v
			if math.IsInf(sq, 0) || math.IsNaN(sq) {
				return fmt.Errorf("server: %s row %d has %v at dimension %d, whose square is not finite: %w",
					what, i, v, j, udmerr.ErrBadData)
			}
			sums[j] += sq
		}
	}
	for j, sum := range sums {
		if math.IsInf(sum, 0) {
			return fmt.Errorf("server: the %s rows' sum of squares along dimension %d overflows: %w",
				what, j, udmerr.ErrBadData)
		}
	}
	return nil
}

// Validate checks a partial request's points against a model dims
// wide, and that it carries the coordinator's bandwidths, one per
// dimension: terms under the shard's own bandwidth rule would not merge
// to the single-node answer.
func (req *partialRequest) Validate(model string, dims int) error {
	if _, _, err := points(model, dims, nil, req.Points); err != nil {
		return err
	}
	if len(req.Bandwidths) != dims {
		return fmt.Errorf("server: %d bandwidths for model %q with %d dims: %w",
			len(req.Bandwidths), model, dims, udmerr.ErrDimensionMismatch)
	}
	return nil
}

// ScoreOutliers scores a validated outliers request against sum under
// kdeOpt, stopping with ctx.Err() once ctx ends. Error rows, when
// given, are folded into each score through the error-adjusted
// kernel. Scores are -log density, so a point far from every cluster
// scores +Inf, which JSON cannot carry: non-finite scores and the
// threshold are clamped to the float64 extremes, and the outlier flags
// come from the unclamped scores.
func ScoreOutliers(ctx context.Context, sum *microcluster.Summarizer, kdeOpt kde.Options, req OutliersRequest) (OutliersResponse, error) {
	opt := outlier.Options{Contamination: req.Contamination, Dims: req.Dims, KDE: kdeOpt}
	if req.Errors != nil {
		opt.UseQueryError = true
		opt.KDE.ErrorAdjust = true
	}
	res, err := outlier.DetectStream(ctx, sum, req.Points, req.Errors, opt)
	if err != nil {
		return OutliersResponse{}, err
	}
	scores := make([]float64, len(res.Scores))
	for i, v := range res.Scores {
		scores[i] = finite(v)
	}
	return OutliersResponse{Scores: scores, Outliers: res.Outlier, Threshold: finite(res.Threshold)}, nil
}

// finite clamps ±Inf (and NaN, mapped to +MaxFloat64 as "maximally
// outlying") into the JSON-representable float64 range.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsInf(v, 1), math.IsNaN(v):
		return math.MaxFloat64
	}
	return v
}
