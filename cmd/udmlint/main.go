// Command udmlint is the project's multichecker: it runs the custom
// go/analysis-style analyzers that enforce the library's determinism,
// context, and error contracts (see internal/analysis and DESIGN.md
// §10).
//
// Usage:
//
//	udmlint [-C dir] [-only ctxflow,nakedgo] [-list] [-fix] [packages]
//
// With no packages it analyzes ./... relative to -C (default: the
// current directory). It exits 0 when the tree is clean, 1 when there
// are findings, and 2 on load or internal errors. Justified exceptions
// are suppressed in place with `//lint:allow <analyzer> <reason>`.
package main

import (
	"os"

	"udm/internal/analysis/driver"
)

func main() {
	os.Exit(driver.Run(os.Stdout, os.Stderr, os.Args[1:]))
}
