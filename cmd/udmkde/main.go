// Command udmkde evaluates error-adjusted kernel densities from a CSV
// data set: a 1-D grid (values or ASCII plot) or a 2-D ASCII heat map,
// from exact point kernels, a micro-cluster compression, or one of the
// approximate density backends (micro, grid), with Silverman or
// likelihood-CV bandwidths.
//
// Usage:
//
//	udmkde -in data.csv -dim age
//	udmkde -in data.csv -dim age -plot
//	udmkde -in data.csv -dim x -dim2 y -grid 30
//	udmkde -in data.csv -dim v -q 200 -cv
//	udmkde -in data.csv -dim v -backend micro
//	udmkde -in data.csv -dim v -eval backend=grid,epsilon=0.05,cells=256
package main

import (
	"flag"
	"fmt"
	"os"

	"udm/internal/dataset"
	"udm/internal/density"
	"udm/internal/eval"
	"udm/internal/evalopt"
	"udm/internal/kde"
	"udm/internal/kernel"
	"udm/internal/microcluster"
	"udm/internal/rng"
)

func main() {
	var (
		in      = flag.String("in", "", "input CSV (required)")
		dimName = flag.String("dim", "", "dimension to evaluate (required)")
		dim2    = flag.String("dim2", "", "second dimension: renders a 2-D ASCII heat map")
		grid    = flag.Int("grid", 60, "grid points per axis")
		q       = flag.Int("q", 0, "compress into q micro-clusters first (0 = exact point kernels)")
		cv      = flag.Bool("cv", false, "select bandwidths by leave-one-out likelihood instead of Silverman")
		noAdj   = flag.Bool("no-adjust", false, "ignore error columns")
		plot    = flag.Bool("plot", false, "render the 1-D curve as an ASCII chart instead of values")
		seed    = flag.Int64("seed", 1, "random seed (micro-cluster ordering)")
		prune   = flag.Float64("prune", 0, "far-field truncation tolerance (relative error bound; 0 = exact)")
		approx  = flag.Float64("approx", 0, "bounded-error fast-exp budget epsilon (0 = exact; Gaussian kernel only)")
		backend = flag.String("backend", "", "density backend: exact (default), grid or micro")
		evalStr = flag.String("eval", "", "unified evaluation options, e.g. backend=grid,epsilon=0.05 (see evalopt grammar; individual flags fill unset keys)")
	)
	flag.Parse()
	if *in == "" || *dimName == "" {
		flag.Usage()
		os.Exit(2)
	}
	ev, err := evalopt.Parse(*evalStr)
	if err != nil {
		fatal(err)
	}
	if *backend != "" {
		bk, err := evalopt.ParseBackend(*backend)
		if err != nil {
			fatal(err)
		}
		ev.Backend = bk
	}
	// The legacy stand-alone flags fill in whatever the -eval string left
	// unset, so existing invocations keep their exact meaning.
	if ev.Prune == 0 {
		ev.Prune = *prune
	}
	if ev.Accuracy.IsExact() && *approx > 0 {
		ev.Accuracy = kernel.Approx(*approx)
	}
	if ev.Seed == 0 {
		ev.Seed = *seed
	}

	ds, err := dataset.LoadCSV(*in)
	if err != nil {
		fatal(err)
	}
	j, err := ds.ColumnIndex(*dimName)
	if err != nil {
		fatal(err)
	}
	adjust := !*noAdj && ds.HasErrors()

	opt := kde.Options{ErrorAdjust: adjust, Eval: ev}
	if *cv {
		h, err := kde.CVBandwidths(ds, adjust, nil)
		if err != nil {
			fatal(err)
		}
		opt.Bandwidths = h
		fmt.Fprintf(os.Stderr, "udmkde: CV bandwidths %v\n", h)
	}

	// Every configuration routes through the density-backend ladder; the
	// default (exact) backend is the same point/cluster estimator as a
	// direct kde build, bit-identically.
	var (
		est  kde.Estimator
		info density.Info
	)
	if *q > 0 {
		s := microcluster.Build(ds, *q, rng.New(ev.EffSeed()))
		est, info, err = density.FromSummarizer(s, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "udmkde: %d rows compressed into %d micro-clusters\n", ds.Len(), s.Len())
	} else {
		est, info, err = density.New(ds, opt)
		if err != nil {
			fatal(err)
		}
	}
	if !info.Exact {
		fmt.Fprintf(os.Stderr, "udmkde: backend %s\n", info)
	}
	bopt := kde.BatchOptions{Workers: 1, Eval: ev}

	lo, hi := ds.MinMax()
	span := func(j int) (float64, float64) {
		pad := 0.15 * (hi[j] - lo[j])
		if pad == 0 {
			pad = 1
		}
		return lo[j] - pad, hi[j] + pad
	}

	if *dim2 != "" {
		j2, err := ds.ColumnIndex(*dim2)
		if err != nil {
			fatal(err)
		}
		loX, hiX := span(j)
		loY, hiY := span(j2)
		cells := *grid
		if cells > 120 {
			cells = 120
		}
		g, err := kde.Grid2DOpts(est, j, j2, loX, hiX, loY, hiY, cells, cells/2, bopt)
		if err != nil {
			fatal(err)
		}
		var peak float64
		for _, row := range g {
			for _, v := range row {
				if v > peak {
					peak = v
				}
			}
		}
		shades := []byte(" .:-=+*#@")
		fmt.Printf("joint density of %s (x) and %s (y); darker = denser\n", *dimName, *dim2)
		for iy := len(g) - 1; iy >= 0; iy-- {
			line := make([]byte, len(g[iy]))
			for ix, v := range g[iy] {
				line[ix] = shades[int(v/peak*float64(len(shades)-1))]
			}
			fmt.Printf("  %s\n", line)
		}
		return
	}

	loX, hiX := span(j)
	xs, ys, err := kde.Grid1DOpts(est, j, loX, hiX, *grid, bopt)
	if err != nil {
		fatal(err)
	}
	if *plot {
		tab, err := eval.NewTable(
			fmt.Sprintf("density of %s", *dimName), *dimName,
			eval.Series{Name: "f(x)", X: xs, Y: ys})
		if err != nil {
			fatal(err)
		}
		if err := tab.PlotASCII(os.Stdout, 72, 20); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("# x f(x)   [mass over grid: %.4f]\n",
		kde.Mass1D(est, j, loX, hiX, *grid))
	for i := range xs {
		fmt.Printf("%g %g\n", xs[i], ys[i])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "udmkde:", err)
	os.Exit(1)
}
