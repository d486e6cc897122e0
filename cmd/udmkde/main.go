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
//	udmkde -in data.csv -dim v -eval micro
//	udmkde -in data.csv -dim v -eval backend=grid,epsilon=0.05,cells=256
//	udmkde -in data.csv -dim v -eval 'prune=1e-6,accuracy=approx(1e-6)'
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"udm/internal/dataset"
	"udm/internal/density"
	"udm/internal/eval"
	"udm/internal/evalopt"
	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/rng"
)

// errUsage marks a command-line mistake whose message and usage text
// the flag set has already printed.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "udmkde:", err)
		os.Exit(1)
	}
}

// run parses args, evaluates the requested density and writes it to
// stdout; progress notes go to stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("udmkde", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "input CSV (required)")
		dimName = fs.String("dim", "", "dimension to evaluate (required)")
		dim2    = fs.String("dim2", "", "second dimension: renders a 2-D ASCII heat map")
		grid    = fs.Int("grid", 60, "grid points per axis")
		q       = fs.Int("q", 0, "compress into q micro-clusters first (0 = exact point kernels)")
		cv      = fs.Bool("cv", false, "select bandwidths by leave-one-out likelihood instead of Silverman")
		noAdj   = fs.Bool("no-adjust", false, "ignore error columns")
		plot    = fs.Bool("plot", false, "render the 1-D curve as an ASCII chart instead of values")
		evalStr = fs.String("eval", "", "evaluation options, e.g. micro, backend=grid,epsilon=0.05 or prune=1e-6,accuracy=approx(1e-6),seed=7 (evalopt grammar)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if *in == "" || *dimName == "" {
		fs.Usage()
		return fmt.Errorf("%w: -in and -dim are required", errUsage)
	}
	ev, err := evalopt.Parse(*evalStr)
	if err != nil {
		return err
	}

	ds, err := dataset.LoadCSV(*in)
	if err != nil {
		return err
	}
	j, err := ds.ColumnIndex(*dimName)
	if err != nil {
		return err
	}
	adjust := !*noAdj && ds.HasErrors()

	opt := kde.Options{ErrorAdjust: adjust, Eval: ev}
	if *cv {
		h, err := kde.CVBandwidths(ds, adjust, nil)
		if err != nil {
			return err
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
			return err
		}
		fmt.Fprintf(os.Stderr, "udmkde: %d rows compressed into %d micro-clusters\n", ds.Len(), s.Len())
	} else {
		est, info, err = density.New(ds, opt)
		if err != nil {
			return err
		}
	}
	if !info.Exact {
		fmt.Fprintf(os.Stderr, "udmkde: backend %s\n", info)
	}

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
			return err
		}
		loX, hiX := span(j)
		loY, hiY := span(j2)
		cells := *grid
		if cells > 120 {
			cells = 120
		}
		g, err := kde.Grid2DOpts(est, j, j2, loX, hiX, loY, hiY, cells, cells/2, kde.BatchOptions{})
		if err != nil {
			return err
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
		fmt.Fprintf(stdout, "joint density of %s (x) and %s (y); darker = denser\n", *dimName, *dim2)
		for iy := len(g) - 1; iy >= 0; iy-- {
			line := make([]byte, len(g[iy]))
			for ix, v := range g[iy] {
				line[ix] = shades[int(v/peak*float64(len(shades)-1))]
			}
			fmt.Fprintf(stdout, "  %s\n", line)
		}
		return nil
	}

	loX, hiX := span(j)
	xs, ys, err := kde.Grid1DOpts(est, j, loX, hiX, *grid, kde.BatchOptions{})
	if err != nil {
		return err
	}
	if *plot {
		tab, err := eval.NewTable(
			fmt.Sprintf("density of %s", *dimName), *dimName,
			eval.Series{Name: "f(x)", X: xs, Y: ys})
		if err != nil {
			return err
		}
		return tab.PlotASCII(stdout, 72, 20)
	}
	fmt.Fprintf(stdout, "# x f(x)   [mass over grid: %.4f]\n",
		kde.Mass1D(est, j, loX, hiX, *grid))
	for i := range xs {
		fmt.Fprintf(stdout, "%g %g\n", xs[i], ys[i])
	}
	return nil
}
