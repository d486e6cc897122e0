package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseFunc parses src and returns the named function's declaration.
func parseFunc(t *testing.T, src, name string) *ast.FuncDecl {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "x.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// reachable reports the number of blocks reachable from Entry.
func reachable(g *Graph) int {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return len(seen)
}

func TestLinearFunc(t *testing.T) {
	fd := parseFunc(t, `package x
func f() { a := 1; b := a + 1; _ = b }`, "f")
	g := New(fd.Body)
	if len(g.Entry.Nodes) != 3 {
		t.Fatalf("entry has %d nodes, want 3\n%s", len(g.Entry.Nodes), g)
	}
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("entry must flow straight to exit\n%s", g)
	}
}

func TestIfElseJoins(t *testing.T) {
	fd := parseFunc(t, `package x
func f(c bool) int {
	x := 0
	if c {
		x = 1
	} else {
		x = 2
	}
	return x
}`, "f")
	g := New(fd.Body)
	// entry(cond) -> then, else; both -> done -> exit.
	if n := len(g.Entry.Succs); n != 2 {
		t.Fatalf("cond block has %d succs, want 2\n%s", n, g)
	}
	join := g.Entry.Succs[0].Succs[0]
	if join != g.Entry.Succs[1].Succs[0] {
		t.Fatalf("branches do not rejoin\n%s", g)
	}
	if len(g.Exit.Preds) != 1 {
		t.Fatalf("exit has %d preds, want 1 (the return)\n%s", len(g.Exit.Preds), g)
	}
}

func TestEarlyReturnPath(t *testing.T) {
	fd := parseFunc(t, `package x
func f(c bool) int {
	if c {
		return 1
	}
	return 2
}`, "f")
	g := New(fd.Body)
	if len(g.Exit.Preds) != 2 {
		t.Fatalf("exit has %d preds, want 2\n%s", len(g.Exit.Preds), g)
	}
}

func TestForLoopBackEdge(t *testing.T) {
	fd := parseFunc(t, `package x
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`, "f")
	g := New(fd.Body)
	var head *Block
	for _, b := range g.Blocks {
		if b.Kind == "for.head" {
			head = b
		}
	}
	if head == nil {
		t.Fatalf("no for.head block\n%s", g)
	}
	if len(head.Preds) != 2 {
		t.Fatalf("loop head has %d preds, want 2 (entry + back edge)\n%s", len(head.Preds), g)
	}
	if len(head.Succs) != 2 {
		t.Fatalf("loop head has %d succs, want 2 (body + done)\n%s", len(head.Succs), g)
	}
}

func TestBreakContinue(t *testing.T) {
	fd := parseFunc(t, `package x
func f(xs []int) int {
	s := 0
	for _, x := range xs {
		if x < 0 {
			continue
		}
		if x > 100 {
			break
		}
		s += x
	}
	return s
}`, "f")
	g := New(fd.Body)
	var head, done *Block
	for _, b := range g.Blocks {
		switch b.Kind {
		case "range.head":
			head = b
		case "range.done":
			done = b
		}
	}
	if head == nil || done == nil {
		t.Fatalf("missing range blocks\n%s", g)
	}
	// continue adds a second inbound edge to the head beyond the entry
	// edge and the body fall-through.
	if len(head.Preds) < 3 {
		t.Fatalf("range head has %d preds, want >= 3 (entry, continue, body end)\n%s", len(head.Preds), g)
	}
	// break adds a second inbound edge to done.
	if len(done.Preds) != 2 {
		t.Fatalf("range done has %d preds, want 2 (head, break)\n%s", len(done.Preds), g)
	}
}

func TestSwitchFallthrough(t *testing.T) {
	fd := parseFunc(t, `package x
func f(n int) string {
	switch n {
	case 0:
		fallthrough
	case 1:
		return "small"
	default:
		return "big"
	}
}`, "f")
	g := New(fd.Body)
	var cases []*Block
	for _, b := range g.Blocks {
		if b.Kind == "switch.case" {
			cases = append(cases, b)
		}
	}
	if len(cases) != 3 {
		t.Fatalf("got %d case blocks, want 3\n%s", len(cases), g)
	}
	// case 0 falls through to case 1.
	found := false
	for _, s := range cases[0].Succs {
		if s == cases[1] {
			found = true
		}
	}
	if !found {
		t.Fatalf("fallthrough edge missing\n%s", g)
	}
}

func TestGotoAndLabels(t *testing.T) {
	fd := parseFunc(t, `package x
func f(n int) int {
	i := 0
loop:
	if i < n {
		i++
		goto loop
	}
	return i
}`, "f")
	g := New(fd.Body)
	var label *Block
	for _, b := range g.Blocks {
		if strings.HasPrefix(b.Kind, "label.") {
			label = b
		}
	}
	if label == nil {
		t.Fatalf("no label block\n%s", g)
	}
	if len(label.Preds) != 2 {
		t.Fatalf("label block has %d preds, want 2 (fall-in + goto)\n%s", len(label.Preds), g)
	}
	if reachable(g) == 0 {
		t.Fatal("empty reachability")
	}
}

func TestSelectClauses(t *testing.T) {
	fd := parseFunc(t, `package x
func f(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case b <- 1:
		return 1
	default:
		return 0
	}
}`, "f")
	g := New(fd.Body)
	n := 0
	for _, b := range g.Blocks {
		if b.Kind == "select.case" {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("got %d select case blocks, want 3\n%s", n, g)
	}
	if len(g.Exit.Preds) != 3 {
		t.Fatalf("exit has %d preds, want 3\n%s", len(g.Exit.Preds), g)
	}
}

// TestExistsPath pins the kill-node reachability query on the shape
// lockguard depends on: a conditional early return that skips the
// cleanup call.
func TestExistsPath(t *testing.T) {
	fd := parseFunc(t, `package x
func f(c bool) {
	acquire()
	if c {
		return
	}
	release()
}
func acquire() {}
func release() {}`, "f")
	g := New(fd.Body)

	isCall := func(name string) func(ast.Node) bool {
		return func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return false
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				return false
			}
			id, ok := call.Fun.(*ast.Ident)
			return ok && id.Name == name
		}
	}

	// A path from entry to exit avoiding release() exists (the early
	// return), and one avoiding acquire() does not (it dominates).
	if !g.ExistsPath(g.Entry, g.Exit, g.Entry.Nodes[0], isCall("release")) {
		t.Error("early-return path not found")
	}
	if g.ExistsPath(g.Entry, g.Exit, nil, isCall("acquire")) {
		t.Error("found a path around a dominating call")
	}
}

// TestExistsPathLoop checks that a kill inside a loop body does not
// block the zero-iteration path around the loop.
func TestExistsPathLoop(t *testing.T) {
	fd := parseFunc(t, `package x
func f(n int) {
	acquire()
	for i := 0; i < n; i++ {
		release()
	}
}
func acquire() {}
func release() {}`, "f")
	g := New(fd.Body)
	kill := func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "release"
	}
	if !g.ExistsPath(g.Entry, g.Exit, nil, kill) {
		t.Error("zero-iteration bypass path not found")
	}
}
