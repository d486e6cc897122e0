// Package lockguard enforces the project's mutex-hygiene contract with
// two path-sensitive checks on the CFG layer (copying a lock by value
// is go vet's copylocks check, which CI runs):
//
//  1. Unlock-on-every-path: after x.Lock() (or x.RLock()) every path
//     out of the function must pass a matching x.Unlock()
//     (x.RUnlock()) or arm a `defer x.Unlock()`. The early-return that
//     skips the unlock is the deadlock nobody reproduces locally; the
//     ExistsPath query over the CFG finds it statically.
//  2. No blocking under a lock, in the concurrent-surface packages
//     (internal/server, internal/parallel, internal/stream): a channel
//     receive or send, a WaitGroup/Cond Wait, or a time.Sleep executed
//     while a mutex is held stalls every other goroutine contending
//     for that lock — the serving-tier latency cliff. Channel
//     operations that are select-clause guards are exempt (select
//     semantics make them the idiomatic non-blocking form), as is
//     anything after the unlock. `defer x.Unlock()` deliberately does
//     NOT end the held region: the lock really is held until return.
//
// Functions that hand a locked mutex to their caller on purpose (lock
// helpers returning an unlock closure) are expected to carry a
// //lint:allow lockguard directive — the shape is rare and worth an
// audit trail.
package lockguard

import (
	"go/ast"
	"go/types"

	"udm/internal/analysis"
	"udm/internal/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockguard",
	Doc: "forbid Lock without Unlock on some path out of the function, and blocking (channel ops, " +
		"Wait, Sleep) while a lock is held in server/parallel/stream packages",
	Run: run,
}

// blockingScopes are the package-path suffixes where check 2 applies:
// the packages that own the project's concurrent surface.
var blockingScopes = []string{"internal/server", "internal/parallel", "internal/stream"}

func run(pass *analysis.Pass) error {
	inScope := false
	for _, s := range blockingScopes {
		if analysis.PathHasSuffix(pass.PkgPath, s) {
			inScope = true
			break
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkLockPaths(pass, body, inScope)
			}
			return true
		})
	}
	return nil
}

// lockCall describes one x.Lock()/x.RLock() statement.
type lockCall struct {
	stmt ast.Node // the ExprStmt in the CFG
	recv string   // the receiver spelling ("s.mu"), the pairing key
	read bool     // RLock (pairs with RUnlock) vs Lock (pairs with Unlock)
}

func checkLockPaths(pass *analysis.Pass, body *ast.BlockStmt, blockingScope bool) {
	var locks []lockCall
	selectComms := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // nested functions are their own scope
		case *ast.SelectStmt:
			for _, cs := range n.Body.List {
				if cc, ok := cs.(*ast.CommClause); ok && cc.Comm != nil {
					selectComms[cc.Comm] = true
				}
			}
		case *ast.ExprStmt:
			if recv, name, ok := mutexMethod(pass, n.X); ok && (name == "Lock" || name == "RLock") {
				locks = append(locks, lockCall{stmt: n, recv: recv, read: name == "RLock"})
			}
		}
		return true
	})
	if len(locks) == 0 {
		return
	}
	g := cfg.New(body)
	for _, lc := range locks {
		src := g.BlockOf(lc.stmt)
		if src == nil {
			continue
		}
		unlock := "Unlock"
		if lc.read {
			unlock = "RUnlock"
		}
		kill := func(n ast.Node) bool { return isUnlockOf(pass, n, lc.recv, unlock) }
		if g.ExistsPath(src, g.Exit, lc.stmt, kill) {
			lock := "Lock"
			if lc.read {
				lock = "RLock"
			}
			pass.Reportf(lc.stmt.Pos(), "%s.%s() has no matching %s() on some path out of the function: unlock on every path or `defer %s.%s()`",
				lc.recv, lock, unlock, lc.recv, unlock)
		}
		if blockingScope {
			// Blocking node reachable strictly under the lock: a defer of
			// the unlock does not end the held region, so only a direct
			// unlock call kills the walk.
			directKill := func(n ast.Node) bool {
				if _, ok := n.(*ast.DeferStmt); ok {
					return false
				}
				return isUnlockOf(pass, n, lc.recv, unlock)
			}
			if n, what := firstBlockingUnder(g, src, lc.stmt, directKill, selectComms, pass); n != nil {
				pass.Reportf(n.Pos(), "%s is blocked on while %s is locked: %s under a lock stalls every contender — release the lock first",
					what, lc.recv, what)
			}
		}
	}
}

// mutexMethod matches expr against a sync.Mutex/RWMutex method call
// and returns the receiver spelling and method name.
func mutexMethod(pass *analysis.Pass, expr ast.Expr) (recv, name string, ok bool) {
	call, isCall := ast.Unparen(expr).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return types.ExprString(sel.X), fn.Name(), true
	}
	return "", "", false
}

// isUnlockOf reports whether node n unlocks recv with the given unlock
// method, either directly or via defer.
func isUnlockOf(pass *analysis.Pass, n ast.Node, recv, unlock string) bool {
	var call ast.Expr
	switch n := n.(type) {
	case *ast.ExprStmt:
		call = n.X
	case *ast.DeferStmt:
		call = n.Call
	default:
		return false
	}
	r, name, ok := mutexMethod(pass, call)
	return ok && r == recv && name == unlock
}

// firstBlockingUnder walks the CFG from the lock statement and returns
// the first node that blocks while the lock is still held, with a
// human name for it.
func firstBlockingUnder(g *cfg.Graph, src *cfg.Block, lock ast.Node, kill func(ast.Node) bool, selectComms map[ast.Node]bool, pass *analysis.Pass) (ast.Node, string) {
	scan := func(nodes []ast.Node) (ast.Node, string, bool) {
		for _, n := range nodes {
			if kill(n) {
				return nil, "", true // lock released; stop this route
			}
			if b, what := blockingNode(pass, n, selectComms); b != nil {
				return b, what, true
			}
		}
		return nil, "", false
	}

	// Tail of the lock's own block.
	start := 0
	for i, n := range src.Nodes {
		if n == lock {
			start = i + 1
			break
		}
	}
	if n, what, stop := scan(src.Nodes[start:]); n != nil || stop {
		return n, what
	}

	seen := make([]bool, len(g.Blocks))
	stack := append([]*cfg.Block(nil), src.Succs...)
	for _, b := range src.Succs {
		seen[b.Index] = true
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, what, stop := scan(b.Nodes)
		if n != nil {
			return n, what
		}
		if stop {
			continue
		}
		for _, s := range b.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	return nil, ""
}

// blockingNode classifies CFG nodes that park the goroutine: channel
// receives and sends (outside select clauses), WaitGroup/Cond Wait,
// and time.Sleep.
func blockingNode(pass *analysis.Pass, n ast.Node, selectComms map[ast.Node]bool) (ast.Node, string) {
	if selectComms[n] {
		return nil, ""
	}
	switch n := n.(type) {
	case *ast.SendStmt:
		return n, "a channel send"
	case *ast.ExprStmt:
		if b, what := blockingExpr(pass, n.X); b != nil {
			return b, what
		}
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			if b, what := blockingExpr(pass, rhs); b != nil {
				return b, what
			}
		}
	case ast.Expr:
		if b, what := blockingExpr(pass, n); b != nil {
			return b, what
		}
	}
	return nil, ""
}

func blockingExpr(pass *analysis.Pass, expr ast.Expr) (ast.Node, string) {
	var found ast.Node
	var what string
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found, what = n, "a channel receive"
				return false
			}
		case *ast.CallExpr:
			if obj := analysis.Callee(pass.TypesInfo, n); obj != nil && obj.Pkg() != nil {
				switch {
				case obj.Pkg().Path() == "sync" && obj.Name() == "Wait":
					found, what = n, "a sync Wait"
					return false
				case obj.Pkg().Path() == "time" && obj.Name() == "Sleep":
					found, what = n, "a time.Sleep"
					return false
				}
			}
		}
		return true
	})
	return found, what
}
