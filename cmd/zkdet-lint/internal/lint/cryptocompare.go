package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CryptoCompare flags raw ==, != and reflect.DeepEqual comparisons on the
// field-arithmetic and curve types (fr.Element, ff.Element, the bn254 tower
// and point types — these are also the repo's digest types: Poseidon
// digests are fr.Elements). Raw comparison bakes in the current memory
// representation (Montgomery form, affine coordinates); the canonical
// .Equal methods are the supported comparison path and keep call sites
// robust to representation changes. The fr/ff/bn254 packages themselves are
// exempt: they implement those canonical paths.
var CryptoCompare = &Analyzer{
	Name: "cryptocompare",
	Doc:  "flags ==/!=/reflect.DeepEqual on field, curve and digest types outside their defining packages",
	Run:  runCryptoCompare,
}

// cryptoCorePkgs are the packages that define the protected types and are
// allowed to compare them directly.
var cryptoCorePkgs = map[string]bool{"fr": true, "ff": true, "bn254": true}

// protectedCompareType reports whether t is a named struct/array type from
// one of the crypto core packages — a type whose comparison must go through
// its Equal method. Pointers are not protected: pointer comparison is
// identity, not value equality.
func protectedCompareType(t types.Type) (*types.Named, bool) {
	if t == nil {
		return nil, false
	}
	if _, isPtr := t.(*types.Pointer); isPtr {
		return nil, false
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return nil, false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || !cryptoCorePkgs[pkg.Name()] {
		return nil, false
	}
	switch named.Underlying().(type) {
	case *types.Struct, *types.Array:
		return named, true
	}
	return nil, false
}

func runCryptoCompare(pass *Pass) {
	if cryptoCorePkgs[pass.Pkg.Types.Name()] {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, operand := range []ast.Expr{n.X, n.Y} {
					if named, ok := protectedCompareType(pass.TypeOf(operand)); ok {
						pass.Reportf(n.OpPos, "raw %s on %s.%s; use the canonical Equal method",
							n.Op, named.Obj().Pkg().Name(), named.Obj().Name())
						break
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "DeepEqual" {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "reflect" {
					return true
				}
				for _, arg := range n.Args {
					t := pass.TypeOf(arg)
					if p, isPtr := t.(*types.Pointer); isPtr {
						t = p.Elem() // DeepEqual dereferences pointers
					}
					if named, ok := protectedCompareType(t); ok {
						pass.Reportf(n.Pos(), "reflect.DeepEqual on %s.%s; use the canonical Equal method",
							named.Obj().Pkg().Name(), named.Obj().Name())
						break
					}
				}
			}
			return true
		})
	}
}
