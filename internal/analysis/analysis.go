// Package analysis is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis model: an Analyzer inspects one
// type-checked package at a time through a Pass and reports
// Diagnostics. The build environment for this module is hermetic (no
// module proxy, no vendored third-party code), so rather than depend on
// x/tools the package re-creates the minimal surface the project's
// analyzers need on top of go/ast and go/types alone. The API shape
// deliberately mirrors x/tools so the analyzers could be ported to a
// real multichecker by swapping imports.
//
// The project-specific analyzers live in subpackages (driver.All is the
// registry); the loader that produces type-checked packages lives in
// the load subpackage; cmd/udmlint is the multichecker binary.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow suppression directives. It must be a valid
	// identifier.
	Name string

	// Doc is a one-paragraph description of the invariant the analyzer
	// guards, shown by `udmlint -list`.
	Doc string

	// Run applies the analyzer to one package. It reports findings via
	// pass.Reportf and returns a non-nil error only for internal
	// failures (a failed analysis run, not a finding).
	Run func(*Pass) error
}

// A Package is one type-checked package as produced by the load
// subpackage: syntax, type information, and identity.
type Package struct {
	// PkgPath is the package's import path (module-qualified).
	PkgPath string

	// Dir is the directory holding the package's sources.
	Dir string

	// Fset maps token.Pos values in Syntax to file positions. All
	// packages from one load share one FileSet.
	Fset *token.FileSet

	// Syntax holds the parsed non-test Go files of the package.
	Syntax []*ast.File

	// Types is the type-checked package object.
	Types *types.Package

	// TypesInfo holds the type-checker's facts about Syntax.
	TypesInfo *types.Info
}

// A Pass connects one Analyzer run to one Package.
type Pass struct {
	Analyzer  *Analyzer
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)

	// parents is built lazily by ParentOf.
	parents map[ast.Node]ast.Node
}

// IsMainPkg reports whether the package under analysis is a main
// package (a binary entry point rather than library code).
func (p *Pass) IsMainPkg() bool { return p.Pkg != nil && p.Pkg.Name() == "main" }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Report records a fully-formed diagnostic — the entry point for
// analyzers that attach suggested fixes. The Analyzer field is stamped
// by the pass.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// ParentOf returns the syntactic parent of n within the package's
// files, or nil for roots. The parent map is built on first use and
// covers every node in every file of the pass.
func (p *Pass) ParentOf(n ast.Node) ast.Node {
	if p.parents == nil {
		p.parents = Parents(p.Files)
	}
	return p.parents[n]
}

// A TextEdit replaces the source range [Pos, End) with NewText. Edits
// within one SuggestedFix must not overlap.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText string
}

// A SuggestedFix is one self-contained remediation of a diagnostic:
// applying its edits (and gofmt'ing the result) makes the diagnostic
// go away. Fixes are textual and mechanical by design — an analyzer
// only attaches one when the rewrite is behavior-preserving.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
	Fixes    []SuggestedFix
}

// An Edit is a TextEdit resolved to a file and byte offsets — the form
// the driver applies under -fix.
type Edit struct {
	Filename string
	Offset   int // byte offset of the start of the replaced range
	End      int // byte offset one past the end of the replaced range
	NewText  string
}

// A Fix is a SuggestedFix resolved to concrete file offsets.
type Fix struct {
	Message string
	Edits   []Edit
}

// A Finding is a Diagnostic resolved to a concrete file position, the
// unit the driver prints and tests assert on.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Fixes    []Fix
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// sameSite reports whether two findings are duplicates (position,
// analyzer, and message all equal); fixes do not participate.
func sameSite(a, b Finding) bool {
	return a.Pos == b.Pos && a.Analyzer == b.Analyzer && a.Message == b.Message
}

// runPackage applies every analyzer to one package and returns its
// findings unsorted, dropping those covered by //lint:allow.
func runPackage(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	sup, findings := suppressions(pkg.Fset, pkg.Syntax)
	var diags []Diagnostic
	pass := &Pass{
		PkgPath:   pkg.PkgPath,
		Fset:      pkg.Fset,
		Files:     pkg.Syntax,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	for _, a := range analyzers {
		pass.Analyzer = a
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if sup.allows(d.Analyzer, pos) {
			continue
		}
		f := Finding{Pos: pos, Analyzer: d.Analyzer, Message: d.Message}
		for _, fix := range d.Fixes {
			rf := Fix{Message: fix.Message}
			for _, e := range fix.Edits {
				p, q := pkg.Fset.Position(e.Pos), pkg.Fset.Position(e.End)
				rf.Edits = append(rf.Edits, Edit{Filename: p.Filename, Offset: p.Offset, End: q.Offset, NewText: e.NewText})
			}
			f.Fixes = append(f.Fixes, rf)
		}
		findings = append(findings, f)
	}
	return findings, nil
}

// Run applies every analyzer to every package, drops the diagnostics
// covered by //lint:allow suppressions (see suppress.go), and returns
// the findings sorted by file, line, column, and analyzer name.
// Malformed suppression directives are themselves reported as findings
// of the pseudo-analyzer "lint".
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		fs, err := runPackage(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	return sortFindings(findings), nil
}

// sortFindings orders findings by file, line, column, analyzer, and
// message, and drops exact duplicates: nested expressions can satisfy
// two trigger patterns of one rule (e.g. time.Now inside both rand.New
// and rand.NewSource) and one finding per site is enough.
func sortFindings(findings []Finding) []Finding {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	deduped := findings[:0]
	for i, f := range findings {
		if i > 0 && sameSite(f, findings[i-1]) {
			continue
		}
		deduped = append(deduped, f)
	}
	return deduped
}

// Preorder calls f for every node in every file in depth-first
// preorder.
func Preorder(files []*ast.File, f func(ast.Node)) {
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n != nil {
				f(n)
			}
			return true
		})
	}
}

// Parents builds a child→parent map over every node in files.
func Parents(files []*ast.File) map[ast.Node]ast.Node {
	m := make(map[ast.Node]ast.Node)
	for _, file := range files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				m[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
	return m
}

// PathHasSuffix reports whether the import path is path-wise equal to
// or ends with the given suffix ("internal/parallel" matches both
// "internal/parallel" and "udm/internal/parallel" but not
// "notinternal/parallel"). Analyzers scope their rules by suffix so the
// testdata fixture module can stand in for the real module's packages.
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// Callee resolves the object a call expression invokes, or nil if the
// callee is not a simple identifier or selector (e.g. a call of a call).
func Callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// IsPkgFunc reports whether the call invokes the function name from the
// package whose import path has the given suffix (exact path for
// stdlib, suffix for module packages; see PathHasSuffix).
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pathSuffix, name string) bool {
	obj := Callee(info, call)
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && PathHasSuffix(obj.Pkg().Path(), pathSuffix)
}
