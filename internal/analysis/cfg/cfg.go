// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies, entirely on the standard library, and answers one
// path query over them (ExistsPath).
//
// The per-node AST walkers in internal/analysis can enforce shapes —
// "a defer must follow this assignment" — but not path properties:
// "this mutex is unlocked on *some* path but not others". Those need a
// graph of basic blocks. The model here follows
// golang.org/x/tools/go/cfg: each Block holds the simple statements and
// controlling expressions that execute unconditionally once the block
// is entered, and edges carry the branching structure. Composite statements (if/for/switch/select)
// are decomposed into their parts rather than stored whole, so walking
// a block's Nodes never traverses a nested body twice.
//
// The builder covers the full statement grammar: if/else chains,
// for and range loops, expression/type switches with fallthrough,
// select, labeled break/continue, and goto. Panics are treated as
// ordinary calls (flow continues), which is the right conservative
// choice for lint-grade analyses: a deferred cleanup still runs on a
// panicking path, and a non-deferred one is already reported via the
// ordinary fall-off-the-end path.
package cfg

import (
	"fmt"
	"go/ast"
	"strings"
)

// A Block is one basic block: a maximal run of nodes with a single
// entry at the top and a single exit at the bottom.
type Block struct {
	// Index is the block's position in Graph.Blocks, stable across
	// builds of the same body.
	Index int

	// Kind names the construct the block came from ("entry", "if.then",
	// "for.body", "range.done", …) for debug output and tests.
	Kind string

	// Nodes are the simple statements and controlling expressions of
	// the block in execution order: assignments, calls, sends, defers,
	// returns, and the Cond/Tag/X expressions of the statement that
	// ends the block. Composite statements never appear.
	Nodes []ast.Node

	// Succs and Preds are the control-flow edges.
	Succs []*Block
	Preds []*Block
}

// A Graph is the control-flow graph of one function body. Entry is the
// unique start block; Exit is a synthetic block every return path and
// the fall-off-the-end path feed into, so "on every path out of the
// function" is exactly "on every path from Entry to Exit".
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// String renders the graph in a compact adjacency form for tests and
// debugging.
func (g *Graph) String() string {
	var b strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&b, "%d:%s ->", blk.Index, blk.Kind)
		for _, s := range blk.Succs {
			fmt.Fprintf(&b, " %d", s.Index)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// New builds the control-flow graph of body. A nil body (a declared
// but unimplemented function) yields a trivial Entry→Exit graph.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	// The fall-off-the-end edge — but not from a join block that no
	// path actually reaches (e.g. after a select whose every case
	// returns), which would fabricate a path into Exit.
	if b.cur != nil && (b.cur == b.g.Entry || len(b.cur.Preds) > 0 || len(b.cur.Nodes) > 0) {
		link(b.cur, b.g.Exit)
	}
	return b.g
}

// frame tracks one enclosing breakable construct (loop, switch,
// select) for break/continue resolution.
type frame struct {
	label string // non-empty when the construct is labeled
	brk   *Block // break target (always set)
	cont  *Block // continue target (loops only)
}

type builder struct {
	g      *Graph
	cur    *Block // nil after a terminating statement (dead code follows)
	frames []frame
	labels map[string]*Block // goto/label targets, created on demand

	// pendingLabel is the label of a LabeledStmt whose inner statement
	// is about to be built, so loops can register it on their frame.
	pendingLabel string

	// fallTarget is the next case clause's block while building a
	// switch clause body, the target of a fallthrough statement.
	fallTarget *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func link(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jumpTo links the current block to target and makes target current.
// With no current block (dead code), target simply becomes current,
// unreachable unless something else links to it.
func (b *builder) jumpTo(target *Block) {
	if b.cur != nil {
		link(b.cur, target)
	}
	b.cur = target
}

// ensureCur revives a current block after a terminator so syntactically
// dead statements still get nodes in the graph (with no predecessors).
func (b *builder) ensureCur() {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
}

func (b *builder) add(n ast.Node) {
	if n == nil {
		return
	}
	b.ensureCur()
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// takeLabel consumes the pending label for the construct being built.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// labelBlock returns (creating on demand) the block a label names, the
// shared target of the LabeledStmt itself and any gotos to it.
func (b *builder) labelBlock(name string) *Block {
	if b.labels == nil {
		b.labels = map[string]*Block{}
	}
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labels[name] = blk
	return blk
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	b.ensureCur()
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.buildIf(s)

	case *ast.ForStmt:
		b.buildFor(s)

	case *ast.RangeStmt:
		b.buildRange(s)

	case *ast.SwitchStmt:
		b.buildSwitch(s.Init, s.Tag, s.Body, "switch")

	case *ast.TypeSwitchStmt:
		b.buildSwitch(s.Init, nil, s.Body, "typeswitch")
		// The type assertion under test still evaluates its operand.
		b.addTypeSwitchAssign(s)

	case *ast.SelectStmt:
		b.buildSelect(s)

	case *ast.ReturnStmt:
		b.add(s)
		b.jumpDead(b.g.Exit)

	case *ast.BranchStmt:
		b.buildBranch(s)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.jumpTo(lb)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.EmptyStmt:
		// nothing

	default:
		// Simple statements: assignments, declarations, expression
		// statements, sends, inc/dec, go, defer.
		b.add(s)
	}
}

// jumpDead links the current block to target and marks the following
// code dead (the statement was a terminator).
func (b *builder) jumpDead(target *Block) {
	if b.cur != nil {
		link(b.cur, target)
	}
	b.cur = nil
}

func (b *builder) buildIf(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	done := b.newBlock("if.done")
	then := b.newBlock("if.then")
	link(cond, then)
	b.cur = then
	b.stmt(s.Body)
	b.jumpDead(done)
	if s.Else != nil {
		els := b.newBlock("if.else")
		link(cond, els)
		b.cur = els
		b.stmt(s.Else)
		b.jumpDead(done)
	} else {
		link(cond, done)
	}
	b.cur = done
	// done may end up unreachable (both arms terminated); keep it as
	// the current block so following statements land somewhere.
}

func (b *builder) buildFor(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	b.jumpTo(head)
	if s.Cond != nil {
		b.add(s.Cond)
	}
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	link(head, body)
	if s.Cond != nil {
		link(head, done)
	}
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		cont = post
	}
	b.frames = append(b.frames, frame{label: label, brk: done, cont: cont})
	b.cur = body
	b.stmt(s.Body)
	if post != nil {
		b.jumpTo(post)
		b.stmt(s.Post)
		b.jumpDead(head)
	} else {
		b.jumpDead(head)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

func (b *builder) buildRange(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock("range.head")
	b.jumpTo(head)
	b.add(s.X)
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	link(head, body)
	link(head, done)
	b.frames = append(b.frames, frame{label: label, brk: done, cont: head})
	b.cur = body
	b.stmt(s.Body)
	b.jumpDead(head)
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

// addTypeSwitchAssign records the type-switch guard expression in the
// head block built by buildSwitch (a no-op placeholder: the guard is
// carried by the clause dispatch, and analyzers that care about the
// asserted operand find it via the AST, not the CFG).
func (b *builder) addTypeSwitchAssign(*ast.TypeSwitchStmt) {}

func (b *builder) buildSwitch(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, kind string) {
	label := b.takeLabel()
	if init != nil {
		b.stmt(init)
	}
	if tag != nil {
		b.add(tag)
	}
	head := b.cur
	done := b.newBlock(kind + ".done")

	var clauses []*ast.CaseClause
	for _, cs := range body.List {
		if cc, ok := cs.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock(kind + ".case")
		link(head, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		link(head, done)
	}

	b.frames = append(b.frames, frame{label: label, brk: done})
	savedFall := b.fallTarget
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		if i+1 < len(blocks) {
			b.fallTarget = blocks[i+1]
		} else {
			b.fallTarget = done
		}
		b.stmtList(cc.Body)
		b.jumpDead(done)
	}
	b.fallTarget = savedFall
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

func (b *builder) buildSelect(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.cur
	done := b.newBlock("select.done")
	b.frames = append(b.frames, frame{label: label, brk: done})
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock("select.case")
		link(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.jumpDead(done)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

func (b *builder) buildBranch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if label == "" || f.label == label {
				b.jumpDead(f.brk)
				return
			}
		}
		b.cur = nil // malformed source; treat as terminator
	case "continue":
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.cont != nil && (label == "" || f.label == label) {
				b.jumpDead(f.cont)
				return
			}
		}
		b.cur = nil
	case "goto":
		if label != "" {
			b.jumpDead(b.labelBlock(label))
			return
		}
		b.cur = nil
	case "fallthrough":
		if b.fallTarget != nil {
			b.jumpDead(b.fallTarget)
			return
		}
		b.cur = nil
	}
}

// BlockOf returns the block whose Nodes contain n (by identity), or
// nil when n is not recorded in the graph (e.g. a node nested inside a
// composite statement's body).
func (g *Graph) BlockOf(n ast.Node) *Block {
	for _, b := range g.Blocks {
		for _, m := range b.Nodes {
			if m == n {
				return b
			}
		}
	}
	return nil
}

// ExistsPath reports whether some execution path leads from src to dst
// along which no node satisfies kill. Within src only the nodes
// strictly after the `after` node are considered (pass nil to consider
// all of src); dst is considered reached at its top, before its own
// nodes run. A block containing a kill node cannot be passed through.
//
// This is the query behind lockguard's Unlock-on-every-path rule: "is
// there a path from the Lock to the function exit that never Unlocks?"
// is ExistsPath(lockBlock, g.Exit, lockStmt, isUnlock).
func (g *Graph) ExistsPath(src, dst *Block, after ast.Node, kill func(ast.Node) bool) bool {
	// The straight-line tail of src after the anchor node.
	start := 0
	if after != nil {
		for i, n := range src.Nodes {
			if n == after {
				start = i + 1
				break
			}
		}
	}
	for _, n := range src.Nodes[start:] {
		if kill(n) {
			return false
		}
	}
	if src == dst && after == nil {
		return true
	}

	seen := make([]bool, len(g.Blocks))
	var stack []*Block
	push := func(b *Block) {
		if !seen[b.Index] {
			seen[b.Index] = true
			stack = append(stack, b)
		}
	}
	for _, s := range src.Succs {
		push(s)
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == dst {
			return true
		}
		blocked := false
		for _, n := range b.Nodes {
			if kill(n) {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		for _, s := range b.Succs {
			push(s)
		}
	}
	return false
}
