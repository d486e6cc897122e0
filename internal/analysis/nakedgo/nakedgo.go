// Package nakedgo forbids raw `go` statements in library code.
//
// The repo's concurrency guarantees — deterministic chunked fan-out,
// context cancellation, panic containment, and the bit-identical batch
// contract — live in exactly two places: internal/parallel (the worker
// pool every batch API runs on) and internal/server (whose Batcher
// coalesces requests onto that pool). A goroutine spawned anywhere
// else escapes those guarantees: it outlives its caller's context,
// its panics crash the process, and any float reduction it feeds
// becomes schedule-dependent. Those substrate packages are exempt;
// main packages are entry points and manage their own lifecycles.
package nakedgo

import (
	"go/ast"

	"udm/internal/analysis"
)

// substratePkgs are the package-path suffixes sanctioned to spawn
// goroutines directly.
var substratePkgs = []string{
	"internal/parallel",
	"internal/server",
}

var Analyzer = &analysis.Analyzer{
	Name: "nakedgo",
	Doc: "forbid raw go statements in library packages: concurrency must flow through internal/parallel " +
		"or internal/server's Batcher so cancellation, panics, and determinism stay centralized",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.IsMainPkg() {
		return nil
	}
	for _, suffix := range substratePkgs {
		if analysis.PathHasSuffix(pass.PkgPath, suffix) {
			return nil
		}
	}
	analysis.Preorder(pass.Files, func(n ast.Node) {
		if g, ok := n.(*ast.GoStmt); ok {
			pass.Reportf(g.Pos(), "raw go statement in library code: run the work through internal/parallel (or internal/server's Batcher)")
		}
	})
	return nil
}
