// Package driver is the engine behind cmd/udmlint: a multichecker that
// loads packages, applies every registered analyzer, and renders the
// findings. It lives apart from the main package so tests can run the
// whole pipeline in-process and assert on exit codes.
package driver

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"udm/internal/analysis"
	"udm/internal/analysis/atomicmix"
	"udm/internal/analysis/ctxflow"
	"udm/internal/analysis/detfloat"
	"udm/internal/analysis/errsentinel"
	"udm/internal/analysis/faultpoint"
	"udm/internal/analysis/floateq"
	"udm/internal/analysis/hotalloc"
	"udm/internal/analysis/load"
	"udm/internal/analysis/lockguard"
	"udm/internal/analysis/nakedgo"
	"udm/internal/analysis/rngsource"
	"udm/internal/analysis/spanend"
)

// All is the registry of project analyzers, in the order they are
// listed and run.
var All = []*analysis.Analyzer{
	atomicmix.Analyzer,
	ctxflow.Analyzer,
	detfloat.Analyzer,
	errsentinel.Analyzer,
	faultpoint.Analyzer,
	floateq.Analyzer,
	hotalloc.Analyzer,
	lockguard.Analyzer,
	nakedgo.Analyzer,
	rngsource.Analyzer,
	spanend.Analyzer,
}

// Exit codes, mirroring the usual linter convention.
const (
	ExitClean    = 0
	ExitFindings = 1
	ExitError    = 2
)

// maxFixRounds bounds the apply/re-analyze loop under -fix. Rounds
// beyond the first only happen when overlapping fixes deferred some
// work; a tree that still produces applicable fixes after this many
// rounds has a non-convergent (buggy) fix and the run fails.
const maxFixRounds = 5

// Run executes the multichecker with command-line args and returns the
// process exit code. Findings go to stdout, usage and internal errors
// to stderr.
func Run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("udmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "directory of the module to analyze (patterns resolve relative to it)")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	fix := fs.Bool("fix", false, "apply suggested fixes, gofmt the touched files, and re-run until no fix applies")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: udmlint [-C dir] [-only a,b] [-list] [-fix] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return ExitError
	}

	if *list {
		for _, a := range All {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return ExitClean
	}

	analyzers := All
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range All {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "udmlint: unknown analyzer %q (run -list for the registry)\n", name)
				return ExitError
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, packages, err := analyze(*dir, patterns, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "udmlint: %v\n", err)
		return ExitError
	}

	if *fix {
		// Apply fixes and re-analyze until the tree is a fixed point.
		for round := 1; ; round++ {
			applied, files, err := fixRound(findings)
			if err != nil {
				fmt.Fprintf(stderr, "udmlint: %v\n", err)
				return ExitError
			}
			if applied > 0 {
				fmt.Fprintf(stderr, "udmlint: round %d applied %d fix(es) to %d file(s)\n", round, applied, files)
			}
			if applied == 0 || files == 0 {
				break
			}
			if round >= maxFixRounds {
				fmt.Fprintf(stderr, "udmlint: fixes did not converge after %d rounds\n", maxFixRounds)
				return ExitError
			}
			findings, packages, err = analyze(*dir, patterns, analyzers)
			if err != nil {
				fmt.Fprintf(stderr, "udmlint: %v (tree may be mid-fix)\n", err)
				return ExitError
			}
		}
		// Idempotence proof: the surviving findings must offer nothing
		// further to apply.
		for _, f := range findings {
			if len(f.Fixes) > 0 {
				fmt.Fprintf(stderr, "udmlint: fix for %s did not remove its finding\n", f.String())
				return ExitError
			}
		}
	}

	// Findings carry absolute paths; print them relative to the module
	// under analysis.
	relTo := *dir
	if abs, err := filepath.Abs(*dir); err == nil {
		relTo = abs
	}
	for _, f := range findings {
		pos := f.Pos
		if rel, err := filepath.Rel(relTo, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		fmt.Fprintf(stdout, "%s: [%s] %s\n", pos, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stdout, "udmlint: %d finding(s) across %d package(s)\n", len(findings), packages)
		return ExitFindings
	}
	return ExitClean
}

// analyze loads the packages matched by patterns and returns their
// findings together with the number of packages analyzed.
func analyze(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]analysis.Finding, int, error) {
	pkgs, err := load.Packages(dir, patterns...)
	if err != nil {
		return nil, 0, err
	}
	findings, err := analysis.Run(pkgs, analyzers)
	return findings, len(pkgs), err
}
