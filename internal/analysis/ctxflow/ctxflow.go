// Package ctxflow enforces the library's context-threading contract.
//
// PR 2 shipped a context-first facade precisely because DensityBatch
// once swallowed its caller's context and kept computing after
// cancellation. ctxflow makes that bug class mechanical to catch:
//
//  1. Library code must not mint its own root context. A call to
//     context.Background or context.TODO in a non-main package is
//     flagged unless it is one of the two sanctioned idioms: the
//     compatibility wrapper (a function with no ctx parameter passing
//     Background directly to its ...Context variant, e.g. ClassifyBatch
//     → ClassifyBatchContext) or the nil-guard default
//     (`if ctx == nil { ctx = context.Background() }`).
//  2. A declared context parameter must actually flow somewhere: a
//     function whose ctx parameter is never mentioned in its body is
//     exactly the dropped-context bug, reported at the parameter.
//
// Main packages are entry points and may create root contexts freely;
// test files are never loaded by the driver.
package ctxflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"udm/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "forbid context.Background/TODO in library code outside sanctioned wrapper and nil-guard idioms, " +
		"and flag context parameters that are declared but never used",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.IsMainPkg() {
		return nil
	}
	analysis.Preorder(pass.Files, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkRootContext(pass, n)
		case *ast.FuncDecl:
			checkDroppedCtx(pass, n)
		}
	})
	return nil
}

// checkRootContext flags context.Background()/context.TODO() calls that
// are not one of the sanctioned idioms.
func checkRootContext(pass *analysis.Pass, call *ast.CallExpr) {
	switch {
	case analysis.IsPkgFunc(pass.TypesInfo, call, "context", "TODO"):
		pass.Reportf(call.Pos(), "context.TODO in library code: thread the caller's ctx instead")
	case analysis.IsPkgFunc(pass.TypesInfo, call, "context", "Background"):
		if isNilGuardDefault(pass, call) || isCompatWrapper(pass, call) {
			return
		}
		pass.Reportf(call.Pos(), "context.Background in library code: accept a ctx and thread it, or add a ...Context variant and delegate to it")
	}
}

// isNilGuardDefault recognizes `ctx = context.Background()` directly
// inside `if ctx == nil { ... }` — the documented nil-context
// compatibility default at API boundaries.
func isNilGuardDefault(pass *analysis.Pass, call *ast.CallExpr) bool {
	assign, ok := pass.ParentOf(call).(*ast.AssignStmt)
	if !ok || assign.Tok != token.ASSIGN || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	lhs, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident)
	if !ok {
		return false
	}
	block, ok := pass.ParentOf(assign).(*ast.BlockStmt)
	if !ok {
		return false
	}
	ifStmt, ok := pass.ParentOf(block).(*ast.IfStmt)
	if !ok || ifStmt.Body != block {
		return false
	}
	cond, ok := ast.Unparen(ifStmt.Cond).(*ast.BinaryExpr)
	if !ok || cond.Op != token.EQL {
		return false
	}
	for x, y := cond.X, cond.Y; ; x, y = y, x {
		if xi, ok := ast.Unparen(x).(*ast.Ident); ok && pass.TypesInfo.Uses[xi] == pass.TypesInfo.Uses[lhs] {
			if yi, ok := ast.Unparen(y).(*ast.Ident); ok && yi.Name == "nil" {
				return true
			}
		}
		if x == cond.Y {
			return false
		}
	}
}

// isCompatWrapper recognizes Background passed as a direct argument to
// a call whose callee name ends in "Context", from inside a function
// that has no context parameter of its own — the non-Context
// convenience wrapper delegating to the context-first API.
func isCompatWrapper(pass *analysis.Pass, call *ast.CallExpr) bool {
	outer, ok := pass.ParentOf(call).(*ast.CallExpr)
	if !ok {
		return false
	}
	arg := false
	for _, a := range outer.Args {
		if a == call {
			arg = true
			break
		}
	}
	if !arg {
		return false
	}
	var calleeName string
	switch fun := ast.Unparen(outer.Fun).(type) {
	case *ast.Ident:
		calleeName = fun.Name
	case *ast.SelectorExpr:
		calleeName = fun.Sel.Name
	default:
		return false
	}
	if len(calleeName) < len("Context") || calleeName[len(calleeName)-len("Context"):] != "Context" {
		return false
	}
	params := enclosingFuncParams(pass, call)
	if params == nil {
		return false
	}
	for _, field := range params.List {
		if isContextType(pass.TypesInfo.TypeOf(field.Type)) {
			return false
		}
	}
	return true
}

// checkDroppedCtx reports context parameters that the function body
// never mentions — the "silently swallowed context" bug class.
func checkDroppedCtx(pass *analysis.Pass, fn *ast.FuncDecl) {
	if fn.Body == nil || fn.Type.Params == nil {
		return
	}
	for _, field := range fn.Type.Params.List {
		if !isContextType(pass.TypesInfo.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			used := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					used = true
					return false
				}
				return !used
			})
			if !used {
				pass.Report(analysis.Diagnostic{
					Pos:     name.Pos(),
					Message: fmt.Sprintf("context parameter %s is never used: thread it to downstream calls (the dropped-context bug class)", name.Name),
					Fixes: []analysis.SuggestedFix{{
						// Renaming to _ makes the drop explicit and visible at
						// the signature; actually threading the context is a
						// judgment call the fix cannot make.
						Message: "rename the unused context parameter to _",
						Edits:   []analysis.TextEdit{{Pos: name.Pos(), End: name.End(), NewText: "_"}},
					}},
				})
			}
		}
	}
}

// enclosingFuncParams returns the parameter list of the innermost
// function declaration or literal containing n, or nil at file scope.
func enclosingFuncParams(pass *analysis.Pass, n ast.Node) *ast.FieldList {
	for cur := pass.ParentOf(n); cur != nil; cur = pass.ParentOf(cur) {
		switch fn := cur.(type) {
		case *ast.FuncDecl:
			return fn.Type.Params
		case *ast.FuncLit:
			return fn.Type.Params
		}
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
