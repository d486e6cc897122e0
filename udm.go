// Package udm is uncertain data mining via density-based transforms — a
// Go implementation of Aggarwal, "On Density Based Transforms for
// Uncertain Data Mining" (ICDE 2007).
//
// The library handles data whose entries carry quantified uncertainty:
// per-entry standard errors ψ_j(X_i) arising from measurement equipment,
// imputation of missing values, forecasting, or deliberate
// privacy-preserving perturbation. Its central idea is to use an
// error-adjusted kernel density estimate as the intermediate
// representation for mining: each point's kernel is widened by that
// point's own error, so unreliable entries smear out and reliable ones
// stay sharp.
//
// Three layers:
//
//   - Error-adjusted kernel density estimation (NewPointDensity), exact
//     over the data points.
//   - Error-based micro-clusters (Summarize, NewTransform): additive
//     (CF2x, EF2x, CF1x, n) summaries that compress a data set — or a
//     stream — into q pseudo-points with honest errors (Lemma 1), from
//     which densities over any dimension subset are computable in O(q)
//     (NewClusterDensity).
//   - Mining algorithms on top of densities: the density-based subspace
//     classifier of the paper's Figure 3 (Train / Classifier) and an
//     uncertain-DBSCAN clustering extension (DBSCAN).
//
// Quickstart:
//
//	noisy, _ := udm.Perturb(clean, 1.5, udm.NewRand(7)) // or real errors
//	train, test, _ := noisy.StratifiedSplit(0.7, udm.NewRand(8))
//	clf, _ := udm.Train(train, udm.TrainConfig{MicroClusters: 140})
//	label, _ := clf.Classify(test.X[0])
//
// # Error contract
//
// Failures that a caller can act on wrap one of five package-level
// sentinels, so classification is errors.Is, never string matching:
//
//   - ErrDimensionMismatch — input shape disagrees with the model or
//     dataset (wrong row width, subspace dimension out of range,
//     mismatched error-matrix shape). Fix the input.
//   - ErrNoErrors — an error-dependent operation ran against data that
//     carries no per-entry errors, or error-free and error-bearing rows
//     were mixed. Supply errors or drop the option.
//   - ErrUntrained — the model or estimator has no data behind it
//     (empty dataset, empty summarizer, a class with no rows). Train or
//     load a model first.
//   - ErrBadOption — an option value is outside its documented domain
//     (non-positive cluster counts, non-positive explicit bandwidths).
//     Fix the configuration.
//   - ErrBadData — the content of the supplied data is malformed even
//     though its shape may be right (NaN/Inf values, sums that overflow
//     to Inf, invalid standard errors, out-of-range labels, malformed
//     CSV, corrupt snapshots).
//     Fix or regenerate the data.
//
// # Context-first batch APIs
//
// Every parallel batch API threads a context down to the shared worker
// pool: the density batches through BatchOptions.Ctx
// (DensityBatchOpts and DensityQBatchOpts), the classifier through its
// *Context method variants (ClassifyBatchContext, PredictBatchContext,
// ProbabilitiesBatchContext) and TrainContext. Cancelling the context
// stops work chunks that have not started (a density batch also stops
// before the next row of a running chunk) and returns ctx.Err(). The
// classifier's context-free forms are thin wrappers over
// context.Background() kept for convenience; long-running services
// (see cmd/udmserve) should use the context forms so abandoned
// requests stop consuming CPU.
//
// # Observability
//
// The library self-instruments through internal/obs: batch APIs and
// the serving layer count work and record trace spans on a
// process-wide registry. WriteMetrics renders everything in Prometheus
// text format, StartSpan opens an application-level span that nests
// around the library's own, and SetTelemetry(false) (or UDM_OBS=off in
// the environment) disables all of it — counters, histograms, and
// spans — leaving a single atomic load on the hot paths.
// Instrumentation never changes numerics: batch results stay
// bit-identical with telemetry on or off. See DESIGN.md §11.
//
// See examples/ for complete programs and DESIGN.md for the paper map.
package udm

import (
	"context"
	"io"

	"udm/internal/baseline"
	"udm/internal/cluster"
	"udm/internal/core"
	"udm/internal/datagen"
	"udm/internal/dataset"
	"udm/internal/density"
	"udm/internal/eval"
	"udm/internal/evalopt"
	"udm/internal/kde"
	"udm/internal/kernel"
	"udm/internal/microcluster"
	"udm/internal/obs"
	"udm/internal/outlier"
	"udm/internal/parallel"
	"udm/internal/rng"
	"udm/internal/stream"
	"udm/internal/udmerr"
	"udm/internal/uncertain"
)

// Sentinel errors of the module's error contract (see the package
// documentation). Match with errors.Is.
var (
	// ErrDimensionMismatch reports input whose shape disagrees with the
	// model or dataset it is applied to.
	ErrDimensionMismatch = udmerr.ErrDimensionMismatch
	// ErrNoErrors reports an error-dependent operation applied to data
	// without per-entry error information.
	ErrNoErrors = udmerr.ErrNoErrors
	// ErrUntrained reports an operation against a model or estimator
	// with no data behind it.
	ErrUntrained = udmerr.ErrUntrained
	// ErrBadOption reports an option value outside its documented
	// domain.
	ErrBadOption = udmerr.ErrBadOption
	// ErrBadData reports supplied data whose content is malformed:
	// NaN/Inf values, invalid standard errors, out-of-range labels,
	// malformed CSV, or a corrupt model/checkpoint artifact.
	ErrBadData = udmerr.ErrBadData
	// ErrInjected reports a failure fired by an armed fault-injection
	// site (internal/faultinject) — it never occurs in production
	// configurations, where every site is disarmed.
	ErrInjected = udmerr.ErrInjected
	// ErrCircuitOpen reports a shard RPC refused fast because the
	// proxy's circuit breaker for that shard is open.
	ErrCircuitOpen = udmerr.ErrCircuitOpen
	// ErrDegraded reports a partitioned fan-out with no surviving shard:
	// the proxy could not produce even a partial answer.
	ErrDegraded = udmerr.ErrDegraded
)

// Data model.
type (
	// Dataset is an N×d table with optional per-entry standard errors and
	// class labels.
	Dataset = dataset.Dataset
	// Fold is one train/test division of a k-fold split.
	Fold = dataset.Fold
)

// Unlabeled marks rows without a class label.
const Unlabeled = dataset.Unlabeled

// NewDataset returns an empty dataset over the given dimension names.
func NewDataset(names ...string) *Dataset { return dataset.New(names...) }

// LoadCSV reads a dataset (values, optional "name±" error columns,
// optional "class" column) from a file.
var LoadCSV = dataset.LoadCSV

// ReadCSV reads a dataset from an io.Reader.
var ReadCSV = dataset.ReadCSV

// Randomness.
type (
	// Rand is a deterministic, splittable random stream.
	Rand = rng.Source
)

// NewRand returns a seeded random stream.
func NewRand(seed int64) *Rand { return rng.New(seed) }

// Error models.
var (
	// Perturb applies the paper's §4 protocol: per-entry noise with a
	// std drawn from U[0, 2f]·σ_j, recorded as the entry's error.
	Perturb = uncertain.Perturb
	// FieldNoise perturbs each dimension by a known per-field σ.
	FieldNoise = uncertain.FieldNoise
	// PrivacyPerturb adds publication noise scaled to each dimension's
	// spread and records it.
	PrivacyPerturb = uncertain.PrivacyPerturb
	// RowLevelPerturb gives every row its own noise level drawn from a
	// discrete mixture (heterogeneous sources).
	RowLevelPerturb = uncertain.RowLevelPerturb
	// MixedLevelPerturb masks each entry independently lightly or heavily
	// and records the applied scale (per-entry heterogeneity).
	MixedLevelPerturb = uncertain.MixedLevelPerturb
	// MaskCompletelyAtRandom masks entries missing-completely-at-random.
	MaskCompletelyAtRandom = uncertain.MaskCompletelyAtRandom
	// Microaggregate publishes k-anonymous cell means with the cell
	// spread as each entry's error (partially aggregated data).
	Microaggregate = uncertain.Microaggregate
)

// MicroaggregateOptions configure Microaggregate.
type MicroaggregateOptions = uncertain.MicroaggregateOptions

type (
	// Mask marks missing entries for the imputers.
	Mask = uncertain.Mask
	// Imputer fills missing entries and emits imputation errors.
	Imputer = uncertain.Imputer
	// MeanImputer imputes column means with the column σ as error.
	MeanImputer = uncertain.MeanImputer
	// KNNImputer imputes from nearest rows with the neighborhood σ as error.
	KNNImputer = uncertain.KNNImputer
	// HotDeckImputer imputes from random donors with the column σ as error.
	HotDeckImputer = uncertain.HotDeckImputer
)

// Density estimation.
type (
	// DensityOptions configure bandwidths, error adjustment and
	// evaluation over the paper's Gaussian kernel, the only kernel.
	DensityOptions = kde.Options
	// DensityEstimator evaluates joint densities over dimension subsets,
	// for certain or uncertain (DensityQ) queries. It is sealed: its
	// only implementations are *PointDensity and *ClusterDensity.
	DensityEstimator = kde.Estimator
	// PointDensity is the exact estimator (Eq. 1–4).
	PointDensity = kde.PointKDE
	// ClusterDensity is the micro-cluster estimator (Eq. 9–10).
	ClusterDensity = kde.ClusterKDE
	// Bandwidth selects the smoothing rule.
	Bandwidth = kernel.Bandwidth
	// BandwidthRule names a bandwidth selection rule.
	BandwidthRule = kernel.BandwidthRule
	// AccuracyMode selects exact kernel evaluation or the bounded-error
	// fast-exponential surrogate on the batch density paths; set it at
	// construction via DensityOptions.Eval.Accuracy, or per estimator
	// with WithAccuracy. The zero value is exact.
	AccuracyMode = kernel.AccuracyMode
)

// Exact requests exact kernel evaluation (the AccuracyMode zero value):
// batch densities are bit-identical to the per-query methods when
// DensityOptions.Eval.Prune is zero.
func Exact() AccuracyMode { return kernel.Exact() }

// Approx requests approximate kernel evaluation with relative density
// error at most eps; implementations fall back to exact evaluation when
// eps is tighter than the surrogate can guarantee.
func Approx(eps float64) AccuracyMode { return kernel.Approx(eps) }

// Bandwidth rules.
const (
	Silverman       = kernel.Silverman
	SilvermanRobust = kernel.SilvermanRobust
	Scott           = kernel.Scott
	FixedBandwidth  = kernel.Fixed
)

// NewPointDensity builds the exact error-adjusted density estimate over a
// dataset.
func NewPointDensity(ds *Dataset, opt DensityOptions) (*PointDensity, error) {
	return kde.NewPoint(ds, opt)
}

// BatchOptions carries the per-call knobs of a batch density
// evaluation: the context (Ctx) and the worker cap (Workers). How the
// estimator evaluates is fixed when it is built, through
// DensityOptions.Eval.
type BatchOptions = kde.BatchOptions

// EvalOptions is the one home for every evaluation knob: backend
// selection, the grid backend's ε budget and cell count, far-field
// pruning, the kernel accuracy mode, and the micro backend's cluster
// budget and seed. Set it on DensityOptions.Eval; it governs
// construction. The zero value means exact evaluation with default
// behavior everywhere.
type EvalOptions = evalopt.Options

// ParseEvalOptions parses the textual form of EvalOptions — a
// comma-separated key=value list ("backend=grid,epsilon=0.05"), with a
// bare backend name accepted as shorthand. It is the grammar of the
// udmkde and udmserve -eval flags.
var ParseEvalOptions = evalopt.Parse

// DensityBackendKind names a density-evaluation backend.
type DensityBackendKind = evalopt.Backend

// The density-backend accuracy ladder, most to least exact. The
// default (empty) backend is exact.
const (
	BackendExact = evalopt.BackendExact
	BackendGrid  = evalopt.BackendGrid
	BackendMicro = evalopt.BackendMicro
)

// BackendInfo is a backend's self-description: which rung of the
// accuracy ladder it is and what accuracy it promises.
type BackendInfo = density.Info

// NewDensityBackend builds the density backend selected by
// opt.Eval.Backend over raw rows, with its self-description. The
// estimator is a *PointDensity for the default exact backend —
// bit-identical to NewPointDensity — and a *ClusterDensity for micro
// and grid.
func NewDensityBackend(ds *Dataset, opt DensityOptions) (DensityEstimator, BackendInfo, error) {
	return density.New(ds, opt)
}

// DensityBackendFromSummarizer builds the selected backend over a
// micro-cluster summary (the serving layer's native input), with its
// self-description.
func DensityBackendFromSummarizer(s *Summarizer, opt DensityOptions) (*ClusterDensity, BackendInfo, error) {
	return density.FromSummarizer(s, opt)
}

// DensityBatchOpts evaluates any density estimator at every row of X
// over the dimension subset dims (nil = all dimensions): opt.Ctx
// cancels the batch and opt.Workers caps the fan-out. Results are
// bit-for-bit identical for every worker count, and — in exact mode
// with DensityOptions.Eval.Prune zero — bit-identical to the serial
// per-query loop; Eval.Prune > 0 trades a bounded relative error for
// far-field truncation, and a non-exact Eval.Accuracy (or an
// estimator's WithAccuracy view) additionally enables the
// fast-exponential surrogate. Every backend NewDensityBackend builds
// runs on the same engine.
func DensityBatchOpts(est DensityEstimator, X [][]float64, dims []int, opt BatchOptions) ([]float64, error) {
	return kde.DensityBatchOpts(est, X, dims, opt)
}

// DensityQBatchOpts is the uncertain-query form of DensityBatchOpts:
// row i is evaluated as the expected density at a query with
// per-dimension standard errors Qerr[i]. A nil Qerr row marks a certain
// query, and a nil Qerr makes every query certain, reproducing
// DensityBatchOpts. Results are bit-identical to the per-query DensityQ
// loop for every worker count.
func DensityQBatchOpts(est DensityEstimator, X, Qerr [][]float64, dims []int, opt BatchOptions) ([]float64, error) {
	return kde.DensityQBatchOpts(est, X, Qerr, dims, opt)
}

// BatchWorkers resolves a workers argument the way every *Batch API in
// this module does: values ≤ 0 mean runtime.GOMAXPROCS(0).
func BatchWorkers(workers int) int { return parallel.Workers(workers) }

// NewClusterDensity builds the scalable density estimate over
// micro-cluster summaries.
func NewClusterDensity(s *Summarizer, opt DensityOptions) (*ClusterDensity, error) {
	return kde.NewCluster(s, opt)
}

// Micro-clusters.
type (
	// Summarizer condenses a stream into at most q error-based
	// micro-clusters (§2.1).
	Summarizer = microcluster.Summarizer
	// Feature is one micro-cluster's (CF2x, EF2x, CF1x, n) summary.
	Feature = microcluster.Feature
)

// NewSummarizer returns an empty summarizer for q clusters over d dims.
func NewSummarizer(q, d int) *Summarizer { return microcluster.NewSummarizer(q, d) }

// Summarize condenses a dataset into at most q micro-clusters, streaming
// rows in an order drawn from r (nil = dataset order).
var Summarize = microcluster.Build

// LoadSummarizer restores a summarizer written with (*Summarizer).Save.
var LoadSummarizer = microcluster.Load

// ErrAdjustedDist2 is the error-adjusted squared distance of Eq. (5).
var ErrAdjustedDist2 = microcluster.Dist2

// Classification.
type (
	// Transform is the density-based transform: per-class and global
	// micro-cluster summaries.
	Transform = core.Transform
	// TransformOptions configure transform construction.
	TransformOptions = core.TransformOptions
	// TransformBuilder builds a transform incrementally from a stream.
	TransformBuilder = core.Builder
	// Classifier is the density-based subspace classifier (Fig. 3).
	Classifier = core.Classifier
	// ClassifierOptions configure the classifier.
	ClassifierOptions = core.ClassifierOptions
	// Decision is a full classification trace for one test point.
	Decision = core.Decision
	// SubspaceScore is one retained subspace with its dominant class.
	SubspaceScore = core.SubspaceScore
	// Rule is one extracted classification rule (interval conjunction →
	// class).
	Rule = core.Rule
	// RuleOptions configure rule extraction.
	RuleOptions = core.RuleOptions
	// RuleSet is the interpretable classifier built from extracted rules.
	RuleSet = core.RuleSet
)

// NewRuleSet bundles extracted rules into a standalone classifier.
var NewRuleSet = core.NewRuleSet

// LoadTransform / LoadTransformFile restore a model saved with
// (*Transform).Save / SaveFile.
var (
	LoadTransform     = core.LoadTransform
	LoadTransformFile = core.LoadTransformFile
)

// NewTransform condenses labeled training data into its density-based
// transform.
var NewTransform = core.NewTransform

// NewTransformContext is NewTransform under a caller-supplied context:
// cancelling it aborts the build and returns ctx.Err().
var NewTransformContext = core.NewTransformContext

// NewTransformBuilder builds a transform incrementally (streams).
var NewTransformBuilder = core.NewBuilder

// NewClassifier builds the scalable classifier over a transform.
var NewClassifier = core.NewClassifier

// NewExactClassifier builds the uncompressed reference classifier.
var NewExactClassifier = core.NewExactClassifier

// Defaults shared by TrainConfig, TransformOptions and
// ClassifierOptions. These re-exported constants are the one documented
// home for the zero-value behavior of every training knob: a zero field
// means "use the constant below", and the same constant governs the
// same-named field wherever it appears.
const (
	// DefaultMicroClusters is the micro-cluster count q used when
	// TrainConfig.MicroClusters or TransformOptions.MicroClusters is 0,
	// matching the paper's headline configuration.
	DefaultMicroClusters = core.DefaultMicroClusters
	// DefaultThreshold is the Fig. 3 accuracy threshold a used when
	// TrainConfig.Threshold or ClassifierOptions.Threshold is 0.
	DefaultThreshold = core.DefaultThreshold
	// DefaultMaxSubspaceSize is the roll-up depth cap used when
	// TrainConfig.MaxSubspaceSize or ClassifierOptions.MaxSubspaceSize
	// is 0 (negative = unlimited).
	DefaultMaxSubspaceSize = core.DefaultMaxSubspaceSize
)

// TrainConfig bundles the options of the one-call training pipeline.
// Field names and zero-value defaults deliberately match
// TransformOptions and ClassifierOptions (see the Default* constants):
// a TrainConfig is the union of the two, split apart by Train.
type TrainConfig struct {
	// MicroClusters is q (0 = DefaultMicroClusters).
	MicroClusters int
	// ErrorAdjust enables error-adjusted assignment and kernels; set it
	// false to get the paper's "No Error Adjustment" comparator.
	// Defaults to true when the data carries errors.
	ErrorAdjust *bool
	// Threshold is the Fig. 3 accuracy threshold a (0 =
	// DefaultThreshold).
	Threshold float64
	// MaxSubspaceSize caps roll-up depth (0 = DefaultMaxSubspaceSize;
	// negative = unlimited).
	MaxSubspaceSize int
	// MaxSubspaces is the cap p on voting subspaces (0 = all).
	MaxSubspaces int
	// Seed drives transform seeding.
	Seed int64
	// Workers caps the goroutines used while building the transform
	// (≤ 0 = GOMAXPROCS, 1 = serial). The result is bit-for-bit
	// identical for every worker count.
	Workers int
}

// Train is the one-call pipeline: transform the training data and build
// the classifier. It is TrainContext under context.Background().
func Train(train *Dataset, cfg TrainConfig) (*Classifier, error) {
	return TrainContext(context.Background(), train, cfg)
}

// TrainContext is Train under a caller-supplied context: cancelling ctx
// aborts the transform build and returns ctx.Err().
func TrainContext(ctx context.Context, train *Dataset, cfg TrainConfig) (*Classifier, error) {
	adjust := train.HasErrors()
	if cfg.ErrorAdjust != nil {
		adjust = *cfg.ErrorAdjust
	}
	t, err := core.NewTransformContext(ctx, train, TransformOptions{
		MicroClusters: cfg.MicroClusters,
		ErrorAdjust:   adjust,
		Seed:          cfg.Seed,
		Workers:       cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return NewClassifier(t, ClassifierOptions{
		Threshold:       cfg.Threshold,
		MaxSubspaceSize: cfg.MaxSubspaceSize,
		MaxSubspaces:    cfg.MaxSubspaces,
	})
}

// Baselines.
type (
	// NearestNeighbor is the error-oblivious 1-NN comparator.
	NearestNeighbor = baseline.NearestNeighbor
	// KNN is the error-oblivious k-NN classifier.
	KNN = baseline.KNN
)

// NewNearestNeighbor builds the 1-NN baseline.
var NewNearestNeighbor = baseline.NewNearestNeighbor

// NewKNN builds the k-NN baseline.
var NewKNN = baseline.NewKNN

// NewNaiveBayes builds the Gaussian naive-Bayes baseline.
var NewNaiveBayes = baseline.NewNaiveBayes

// NaiveBayes is the error-oblivious parametric baseline.
type NaiveBayes = baseline.NaiveBayes

// Clustering.
type (
	// DBSCANOptions configure uncertain DBSCAN.
	DBSCANOptions = cluster.Options
	// DBSCANResult is the clustering outcome.
	DBSCANResult = cluster.Result
	// KMeansOptions configure uncertain k-means.
	KMeansOptions = cluster.KMeansOptions
	// KMeansResult is the k-means outcome.
	KMeansResult = cluster.KMeansResult
)

// KMeans clusters with k-means++ seeding and (optionally) the Eq. 5
// error-adjusted assignment distance.
var KMeans = cluster.KMeans

// Noise is the DBSCAN label for unclustered points.
const Noise = cluster.Noise

// DBSCAN clusters a dataset with error-adjusted densities.
var DBSCAN = cluster.DBSCAN

// DBSCANClusters clusters micro-cluster pseudo-points (the scalable path).
var DBSCANClusters = cluster.DBSCANClusters

// Evaluation.
type (
	// EvalResult summarizes classifier performance on a test set.
	EvalResult = eval.Result
	// EvalClassifier is anything Evaluate can score: the density
	// classifiers and the baselines all satisfy it.
	EvalClassifier = eval.Classifier
)

// Evaluate classifies every labeled row of test and tallies accuracy,
// confusion matrix and timing.
var Evaluate = eval.Evaluate

// AUC returns the area under the ROC curve of a score (higher = more
// positive) against boolean labels.
var AUC = eval.AUC

// ROC returns the full ROC curve.
var ROC = eval.ROC

// ROCPoint is one ROC operating point.
type ROCPoint = eval.ROCPoint

// CVBandwidths selects per-dimension bandwidths by leave-one-out
// likelihood; plug the result into DensityOptions.Bandwidths. The grid
// search runs on GOMAXPROCS workers; CVBandwidthsWorkers picks the
// worker count explicitly. Both are deterministic for every worker
// count.
var (
	CVBandwidths        = kde.CVBandwidths
	CVBandwidthsWorkers = kde.CVBandwidthsWorkers
	// CVBandwidthsContext is the context-first form: cancelling the
	// context aborts the grid search.
	CVBandwidthsContext = kde.CVBandwidthsContext
)

// Outlier detection.
type (
	// OutlierOptions configure density-based outlier detection.
	OutlierOptions = outlier.Options
	// OutlierResult holds per-record anomaly scores and flags.
	OutlierResult = outlier.Result
)

// DetectOutliers flags the lowest-density records of a dataset using
// leave-one-out error-adjusted densities.
var DetectOutliers = outlier.Detect

// DetectStreamOutliers scores query points against a micro-cluster
// summary (online anomaly detection). Cancelling its context stops the
// scoring between queries.
var DetectStreamOutliers = outlier.DetectStream

// ExplainOutlier ranks the dimensions of a record by how anomalous the
// record is in each alone.
var ExplainOutlier = outlier.Explain

// OutlierContribution is one dimension's share of a record's anomaly.
type OutlierContribution = outlier.Contribution

// Streams.
type (
	// StreamEngine ingests an unbounded stream into micro-clusters with
	// snapshot-based time-window analysis.
	StreamEngine = stream.Engine
	// StreamOptions configure a StreamEngine.
	StreamOptions = stream.Options
	// StreamSnapshot is one retained micro-cluster state.
	StreamSnapshot = stream.Snapshot
)

// NewStreamEngine returns a concurrent-safe stream summarizer.
var NewStreamEngine = stream.NewEngine

// SummarizerFromFeatures wraps window/snapshot features for density
// estimation or clustering.
var SummarizerFromFeatures = microcluster.FromFeatures

// Drift returns per-dimension total-variation drift scores between two
// stream windows and the most-drifted dimension.
var Drift = stream.Drift

// Drift1D returns one dimension's drift score between two windows.
var Drift1D = stream.Drift1D

// Synthetic data.
type (
	// DataSpec is a class-conditional Gaussian-mixture generator.
	DataSpec = datagen.Spec
)

// DataProfile returns one of the paper's data set stand-ins by name:
// "adult", "ionosphere", "breast-cancer", "forest-cover".
var DataProfile = datagen.ByName

// TwoBlobs returns a trivially separable two-class spec for quickstarts.
var TwoBlobs = datagen.TwoBlobs

// XOR generates the interaction-only two-class layout (no single
// dimension discriminates) plus optional noise dimensions.
var XOR = datagen.XOR

// LoadStreamEngine restores a stream engine checkpoint written with
// (*StreamEngine).Save.
var LoadStreamEngine = stream.LoadEngine

// Observability (see the package documentation and DESIGN.md §11).

// Span is a lightweight trace span. The zero of its pointer type is a
// valid no-op: every method on a nil *Span is safe.
type Span = obs.Span

// StartSpan opens a span named name (convention: "package.Operation")
// as a child of the span already on ctx, if any, and returns the
// derived context carrying it. End the span on every return path:
//
//	ctx, sp := udm.StartSpan(ctx, "app.Reindex")
//	defer sp.End()
//
// Library batch APIs called with the derived context report their own
// spans as children, so application traces show where the time went.
var StartSpan = obs.StartSpan

// WriteMetrics renders every metric of the process-wide registry —
// kernel evaluation counts, batch sizes, worker utilization, stream
// ingest rates, and anything the application registered — to w in
// Prometheus text exposition format 0.0.4.
func WriteMetrics(w io.Writer) error {
	return obs.Default().WritePrometheus(w)
}

// SetTelemetry enables or disables all telemetry — counters,
// histograms, and trace spans — at runtime. Disabled telemetry costs
// one atomic load per instrumentation site and records nothing; the
// UDM_OBS environment variable ("off", "0", or "false") sets the
// initial state. Telemetry never affects computed results.
var SetTelemetry = obs.SetEnabled

// TelemetryEnabled reports whether telemetry is currently recording.
var TelemetryEnabled = obs.Enabled
