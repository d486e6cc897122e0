// Command udmstream replays a CSV data set as a timestamped stream
// through the micro-cluster engine, then reports per-window statistics
// and (optionally) scores a second CSV of query points for anomalies
// against the stream summary.
//
// Usage:
//
//	udmstream -in readings.csv -q 200 -windows 4
//	udmstream -in readings.csv -score suspects.csv -contamination 0.02
//	udmstream -in readings.csv -stats   # dump telemetry on exit
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"udm/internal/dataset"
	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/obs"
	"udm/internal/outlier"
	"udm/internal/stream"
)

func main() {
	var (
		in            = flag.String("in", "", "input CSV replayed as a stream (required)")
		q             = flag.Int("q", 200, "micro-clusters")
		windows       = flag.Int("windows", 4, "number of equal time windows to report")
		scorePath     = flag.String("score", "", "optional CSV of query points to score for anomalies")
		contamination = flag.Float64("contamination", 0, "flagged fraction for -score (0 = default 0.05)")
		showDrift     = flag.Bool("drift", false, "report per-dimension drift between consecutive windows")
		checkpoint    = flag.String("checkpoint", "", "write an engine checkpoint (resumable with stream.LoadEngine) to this file")
		stats         = flag.Bool("stats", false, "dump process telemetry (Prometheus text format) to stderr on exit")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *stats {
		// Ingest counters, snapshot counts, drift evaluations and
		// checkpoint timings accumulate on the default registry as the
		// replay runs; dump them on the way out.
		defer func() {
			fmt.Fprintln(os.Stderr, "\nudmstream: telemetry")
			if err := obs.Default().WritePrometheus(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "udmstream:", err)
			}
		}()
	}
	ds, err := dataset.LoadCSV(*in)
	if err != nil {
		fatal(err)
	}
	if *windows < 1 || ds.Len() < *windows {
		fatal(fmt.Errorf("cannot split %d rows into %d windows", ds.Len(), *windows))
	}

	// Snapshot cadence: fine enough that every reported window boundary
	// has a snapshot at or before it.
	cadence := ds.Len() / (*windows * 4)
	if cadence < 1 {
		cadence = 1
	}
	eng, err := stream.NewEngine(stream.Options{
		MicroClusters: *q,
		Dims:          ds.Dims(),
		SnapshotEvery: cadence,
		MaxSnapshots:  8 * *windows,
	})
	if err != nil {
		fatal(err)
	}
	for i := 0; i < ds.Len(); i++ {
		eng.Add(ds.X[i], ds.ErrRow(i), int64(i))
	}
	fmt.Printf("streamed %d records into %d micro-clusters\n\n", eng.Count(), *q)

	if *checkpoint != "" {
		f, err := os.Create(*checkpoint)
		if err != nil {
			fatal(err)
		}
		if err := eng.Save(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "udmstream: checkpoint written to %s\n", *checkpoint)
	}

	fmt.Printf("%-16s %8s", "window", "records")
	for _, name := range ds.Names {
		fmt.Printf(" %14s", "mean("+truncate(name, 8)+")")
	}
	fmt.Println()
	per := ds.Len() / *windows
	for w := 0; w < *windows; w++ {
		from := int64(w*per) - 1
		to := int64((w+1)*per - 1)
		if w == 0 {
			from = -1
		}
		if w == *windows-1 {
			to = int64(ds.Len() - 1)
		}
		feats, err := eng.Window(from, to)
		if err != nil {
			fatal(fmt.Errorf("window %d: %w", w, err))
		}
		total := microcluster.NewFeature(ds.Dims())
		for _, f := range feats {
			total.Merge(f)
		}
		fmt.Printf("(%6d,%6d] %8d", from, to, total.N)
		for j := 0; j < ds.Dims(); j++ {
			mean := math.NaN()
			if total.N > 0 {
				mean = total.CF1[j] / float64(total.N)
			}
			fmt.Printf(" %14.4g", mean)
		}
		fmt.Println()
	}

	if *showDrift && *windows >= 2 {
		fmt.Println("\ndrift between consecutive windows (total variation, 0..1):")
		fmt.Printf("%-22s", "windows")
		for _, name := range ds.Names {
			fmt.Printf(" %10s", truncate(name, 10))
		}
		fmt.Printf(" %10s\n", "worst dim")
		var prev []*microcluster.Feature
		for w := 0; w < *windows; w++ {
			from := int64(w*per) - 1
			to := int64((w+1)*per - 1)
			if w == 0 {
				from = -1
			}
			if w == *windows-1 {
				to = int64(ds.Len() - 1)
			}
			feats, err := eng.Window(from, to)
			if err != nil {
				fatal(err)
			}
			if prev != nil {
				scores, worst, err := stream.Drift(prev, feats, 0)
				if err != nil {
					fatal(err)
				}
				fmt.Printf("window %2d -> %-2d       ", w-1, w)
				for _, s := range scores {
					fmt.Printf(" %10.4f", s)
				}
				fmt.Printf(" %10s\n", ds.Names[worst])
			}
			prev = feats
		}
	}

	if *scorePath != "" {
		queries, err := dataset.LoadCSV(*scorePath)
		if err != nil {
			fatal(err)
		}
		if queries.Dims() != ds.Dims() {
			fatal(fmt.Errorf("query dims %d != stream dims %d", queries.Dims(), ds.Dims()))
		}
		s, err := eng.Summarizer()
		if err != nil {
			fatal(err)
		}
		res, err := outlier.DetectStream(context.Background(), s, queries.X, queries.Err, outlier.Options{
			Contamination: *contamination,
			UseQueryError: queries.HasErrors(),
			KDE:           kde.Options{ErrorAdjust: ds.HasErrors()},
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nanomaly scores (−log density; higher = more anomalous):")
		for i := range res.Scores {
			mark := ""
			if res.Outlier[i] {
				mark = "  <-- OUTLIER"
			}
			fmt.Printf("  row %4d: %10.4g%s\n", i, res.Scores[i], mark)
		}
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "udmstream:", err)
	os.Exit(1)
}
