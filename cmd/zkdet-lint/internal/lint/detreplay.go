package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetReplay guards the consensus-critical replay path: every node that
// replays the same blocks must reach bit-identical state roots, receipts,
// event order and gas. The Go sources of silent divergence it hunts are
//
//  1. map iteration order escaping into state: a `for ... range m` over a
//     map whose body writes an order-sensitive location (append to an
//     outer slice without a sort afterwards, last-write-wins assignment
//     to an un-keyed outer location, returning an iteration-dependent
//     value, calling an outer closure whose side effects land in map
//     order);
//  2. wall-clock and randomness: direct time.Now() calls and any use of
//     math/rand — block timestamps flow through the injected Chain clock
//     (chain.New wires time.Now as the production default; replay paths
//     take the timestamp from the imported header), so a raw call is
//     always a bug;
//  3. goroutine completion order: appends to a captured slice from inside
//     a `go` statement, which interleave by scheduler whim.
//
// The analyzer is calibrated against the real replay code, so the
// order-INsensitive idioms stay silent: writes keyed by the loop
// variables (`m2[k] = v`, `c.acct(a).balance = bal`), loop-local targets,
// commutative compound assignments (`+=`, `|=`, ...), constant stores
// (`found = true`), delete(), and the collect-keys-then-sort pattern.
//
// Scope: the chain engine (internal/chain) and the contract layer
// (internal/contracts) — plus its own test fixture.
var DetReplay = &Analyzer{
	Name: "detreplay",
	Doc:  "replay determinism: no map-iteration order, wall clock, randomness, or goroutine ordering may reach consensus state",
	Run:  runDetReplay,
}

// detReplayScoped reports whether the package is on the replay path.
func detReplayScoped(path string) bool {
	return strings.Contains(path, "internal/chain") ||
		strings.Contains(path, "internal/contracts") ||
		strings.HasPrefix(path, "fixture/detreplay")
}

func runDetReplay(pass *Pass) {
	if !detReplayScoped(pass.Pkg.Path) {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == "math/rand" || p == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "math/rand on the replay path: consensus state must not depend on randomness")
			}
		}
		sorts := collectSortCalls(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isPkgCall(pass, n, "time", "Now") {
					pass.Reportf(n.Pos(), "direct time.Now() on the replay path: take the timestamp from the injected chain clock or the block header")
				}
			case *ast.GoStmt:
				checkGoroutineAppends(pass, n)
			case *ast.RangeStmt:
				if isMapRange(pass, n) {
					checkMapRange(pass, n, sorts)
				}
			}
			return true
		})
	}
}

// isPkgCall reports whether call is pkg.fn(...) resolved to the named
// standard-library package (a method or field invocation named fn does
// not match — c.now() is the sanctioned clock indirection).
func isPkgCall(pass *Pass, call *ast.CallExpr, pkg, fn string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return false
	}
	obj, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && obj.Pkg() != nil && obj.Pkg().Path() == pkg
}

// sortCall is one sort.* invocation: the object it sorts and where.
type sortCall struct {
	obj types.Object
	pos token.Pos
}

// collectSortCalls gathers every sort.*(x) call in the file together with
// x's object, so checkMapRange can recognize the collect-then-sort idiom
// even across nested loops: an accumulator is order-safe if the same
// local is sorted anywhere after the loop (object identity confines the
// match to the declaring function).
func collectSortCalls(pass *Pass, f *ast.File) []sortCall {
	var out []sortCall
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "sort" {
			return true
		}
		for _, arg := range call.Args {
			if id := baseIdent(arg); id != nil {
				if obj := pass.Pkg.Info.ObjectOf(id); obj != nil {
					out = append(out, sortCall{obj: obj, pos: call.Pos()})
				}
			}
		}
		return true
	})
	return out
}

func isMapRange(pass *Pass, rs *ast.RangeStmt) bool {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange classifies every statement in a map-range body. The body
// may only touch locations that make the final state independent of
// iteration order.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, sorts []sortCall) {
	loopScoped := func(obj types.Object) bool {
		return obj != nil && rs.Pos() <= obj.Pos() && obj.Pos() < rs.End()
	}
	mentionsLoop := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.Pkg.Info.ObjectOf(id); loopScoped(obj) {
					found = true
				}
			}
			return !found
		})
		return found
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN {
				// := declares loop-locals; compound ops (+=, |=, ...) are
				// commutative folds, order-independent by construction.
				return true
			}
			for i, lhs := range n.Lhs {
				checkMapRangeAssign(pass, rs, n, i, lhs, loopScoped, mentionsLoop, sorts)
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if mentionsLoop(res) {
					pass.Reportf(n.Pos(), "returning an iteration-dependent value from a map range: which element wins depends on map order")
					break
				}
			}
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok {
				obj := pass.Pkg.Info.ObjectOf(id)
				if v, isVar := obj.(*types.Var); isVar && !loopScoped(v) {
					if _, isFn := v.Type().Underlying().(*types.Signature); isFn {
						pass.Reportf(n.Pos(), "closure %s called from a map range: its side effects land in map iteration order", id.Name)
					}
				}
			}
		}
		return true
	})
}

// checkMapRangeAssign decides whether one plain `=` target inside a map
// range is order-sensitive.
func checkMapRangeAssign(pass *Pass, rs *ast.RangeStmt, n *ast.AssignStmt, i int, lhs ast.Expr,
	loopScoped func(types.Object) bool, mentionsLoop func(ast.Expr) bool, sorts []sortCall) {
	base := baseIdent(lhs)
	if base == nil || base.Name == "_" {
		return
	}
	obj := pass.Pkg.Info.ObjectOf(base)
	if loopScoped(obj) {
		return // loop-local target: rebuilt every iteration
	}
	if mentionsLoop(lhs) {
		return // keyed by the loop variables: distinct location per entry
	}
	rhs := n.Rhs[0]
	if len(n.Rhs) == len(n.Lhs) {
		rhs = n.Rhs[i]
	}
	if isConstantExpr(pass, rhs) {
		return // same value every iteration: idempotent
	}
	if tgt, ok := appendTarget(rhs); ok && pass.Pkg.Info.ObjectOf(tgt) == obj {
		for _, sc := range sorts {
			if sc.obj == obj && sc.pos >= rs.End() {
				return // collect-then-sort: order erased before use
			}
		}
		pass.Reportf(n.Pos(), "append to %s accumulates in map iteration order; sort it after the loop or iterate sorted keys", base.Name)
		return
	}
	pass.Reportf(n.Pos(), "assignment to %s inside a map range is last-write-wins in map iteration order", base.Name)
}

// baseIdent unwraps selectors, indexes, stars and parens to the root
// identifier of an assignable expression.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isConstantExpr reports whether e evaluates to a compile-time constant
// (literals, true/false, consts) — storing one is iteration-independent.
func isConstantExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// appendTarget matches append(x, ...) and returns x's base identifier.
func appendTarget(e ast.Expr) (*ast.Ident, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil, false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil, false
	}
	id := baseIdent(call.Args[0])
	return id, id != nil
}

// checkGoroutineAppends flags appends to captured slices from inside a go
// statement's function literal: goroutine completion order decides the
// element order.
func checkGoroutineAppends(pass *Pass, g *ast.GoStmt) {
	fl, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			tgt, ok := appendTarget(rhs)
			if !ok {
				continue
			}
			obj := pass.Pkg.Info.ObjectOf(tgt)
			if obj == nil {
				continue
			}
			if obj.Pos() < fl.Pos() || obj.Pos() >= fl.End() {
				pass.Reportf(as.Pos(), "append to captured %s from a goroutine: completion order scrambles the slice",
					types.ExprString(call.Args[0]))
			}
		}
		return true
	})
}
