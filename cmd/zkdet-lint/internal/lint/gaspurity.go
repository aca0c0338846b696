package lint

import (
	"go/ast"
)

// GasPurity enforces the contracts package's gas-accounting invariant: no
// state write may escape the meter. The chain's metered storage view
// charges SSTORE/SLOAD costs inside Set/Get/Delete and EmitIndexed charges
// log gas, so purity reduces to two checkable rules:
//
//  1. The error of every metered operation (Storage.Set/Delete,
//     GasMeter.Charge, CallContext.Emit/EmitIndexed) must be consumed.
//     Discarding it lets execution continue past an out-of-gas, i.e. a
//     write that was never paid for still lands in state.
//  2. Contract code must never construct its own unmetered root store
//     (chain.NewStorage) — all writes go through the metered ctx.Store.
//
// Table II's gas numbers are only reproducible if both hold.
var GasPurity = &Analyzer{
	Name: "gaspurity",
	Doc:  "contract state writes must stay behind the gas meter: no discarded metered-op errors, no unmetered stores",
	Run:  runGasPurity,
}

// meteredOps lists the (type, method) pairs whose error result carries the
// out-of-gas signal.
var meteredOps = []struct{ typeName, method string }{
	{"Storage", "Set"},
	{"Storage", "Delete"},
	{"GasMeter", "Charge"},
	{"CallContext", "EmitIndexed"},
}

func runGasPurity(pass *Pass) {
	if pass.Pkg.Types.Name() != "contracts" {
		return
	}
	info := pass.Pkg.Info
	isMeteredOp := func(call *ast.CallExpr) bool {
		for _, op := range meteredOps {
			if isMethodCall(info, call, "chain", op.typeName, op.method) {
				return true
			}
		}
		return false
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				// A metered op as a bare statement discards its error.
				if call, ok := n.X.(*ast.CallExpr); ok && isMeteredOp(call) {
					pass.Reportf(n.Pos(), "discarded error of metered operation %s; out-of-gas must abort the write path",
						calleeName(call))
				}
			case *ast.AssignStmt:
				// `_ = ctx.Store.Set(...)` discards it just as hard.
				for i, rhs := range n.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || !isMeteredOp(call) {
						continue
					}
					// With a single call rhs, the error is the last lhs.
					lhsIdx := len(n.Lhs) - 1
					if len(n.Rhs) > 1 {
						lhsIdx = i
					}
					if id, ok := n.Lhs[lhsIdx].(*ast.Ident); ok && id.Name == "_" {
						pass.Reportf(n.Pos(), "error of metered operation %s assigned to blank; out-of-gas must abort the write path",
							calleeName(call))
					}
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewStorage" {
					if obj := info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == "chain" {
						pass.Reportf(n.Pos(), "contracts must not create an unmetered store; write through the metered ctx.Store")
					}
				}
			}
			return true
		})
	}
}
