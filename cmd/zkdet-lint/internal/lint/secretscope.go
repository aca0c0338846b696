package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SecretScope enforces toxic-waste hygiene in the trusted-setup package
// (package kzg): values derived from fresh randomness during an SRS update
// are ceremony secrets. A secret must not escape the function that derives
// it (no return, no store into a field, global, slice or channel), and it
// must be explicitly destroyed before the function returns — either by
// calling its SetZero method or by passing it to a zeroize helper.
//
// Secrets are discovered two ways:
//   - any local assigned directly from fr.MustRandom() or fr.Random(...),
//   - any local whose declaration is annotated with a "// toxic" comment
//     (for secrets derived indirectly, e.g. hashed entropy),
//
// and secrecy propagates through fr.Powers: the powers of a secret are
// themselves secret.
var SecretScope = &Analyzer{
	Name: "secretscope",
	Doc:  "ceremony secrets in package kzg must be zeroized and must not escape the deriving function",
	Run:  runSecretScope,
}

func runSecretScope(pass *Pass) {
	if pass.Pkg.Types.Name() != "kzg" {
		return
	}
	for _, f := range pass.Pkg.Files {
		toxicLines := map[int]bool{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if strings.HasPrefix(body, "toxic") {
					line := pass.Fset.Position(c.Pos()).Line
					// The marker covers its own line (trailing comment) and
					// the next (comment-above style).
					toxicLines[line] = true
					toxicLines[line+1] = true
				}
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkSecretScope(pass, fn, toxicLines)
		}
	}
}

// isRandomSource reports whether call is fr.MustRandom(...) or
// fr.Random(...).
func isRandomSource(pass *Pass, call *ast.CallExpr) bool {
	return isFrCall(pass, call, "MustRandom") || isFrCall(pass, call, "Random")
}

// isFrCall reports whether call invokes the package-level function
// fr.<name> (resolved through type information, not the import alias).
func isFrCall(pass *Pass, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	obj := pass.Pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Name() == "fr"
}

// mentionsAny reports whether expr references any of the given objects.
func mentionsAny(pass *Pass, expr ast.Expr, secrets map[types.Object]bool) types.Object {
	var found types.Object
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Pkg.Info.Uses[id]; obj != nil && secrets[obj] {
				found = obj
				return false
			}
		}
		return true
	})
	return found
}

func checkSecretScope(pass *Pass, fn *ast.FuncDecl, toxicLines map[int]bool) {
	info := pass.Pkg.Info
	secrets := map[types.Object]bool{} // vars holding secret material
	declPos := map[types.Object]ast.Expr{}

	addSecret := func(id *ast.Ident) {
		if obj := info.Defs[id]; obj != nil {
			secrets[obj] = true
			declPos[obj] = id
		} else if obj := info.Uses[id]; obj != nil {
			secrets[obj] = true
			if _, ok := declPos[obj]; !ok {
				declPos[obj] = id
			}
		}
	}

	// Pass 1: discover secrets. Iterate to a fixed point so that powers of
	// secrets discovered late still propagate.
	for {
		before := len(secrets)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			asgn, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			line := pass.Fset.Position(asgn.Pos()).Line
			for i, rhs := range asgn.Rhs {
				if i >= len(asgn.Lhs) && len(asgn.Lhs) > 0 {
					break
				}
				// With a multi-value rhs (v, err := fr.Random(r)) the secret
				// is the first lhs.
				lhsIdx := i
				if len(asgn.Rhs) == 1 {
					lhsIdx = 0
				}
				id, ok := asgn.Lhs[lhsIdx].(*ast.Ident)
				if !ok {
					continue
				}
				call, isCall := rhs.(*ast.CallExpr)
				switch {
				case toxicLines[line]:
					addSecret(id)
				case isCall && isRandomSource(pass, call):
					addSecret(id)
				case isCall && isFrCall(pass, call, "Powers") && mentionsAny(pass, call, secrets) != nil:
					// Powers of a secret are secret.
					addSecret(id)
				}
			}
			return true
		})
		if len(secrets) == before {
			break
		}
	}
	if len(secrets) == 0 {
		return
	}

	zeroized := map[types.Object]bool{}
	escaped := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// v.SetZero() destroys the secret.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "SetZero" {
				if id, ok := sel.X.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && secrets[obj] {
						zeroized[obj] = true
					}
				}
			}
			// zeroize(&v) / zeroizeScalars(vs) destroy the secret too.
			if fnName := calleeName(n); strings.Contains(strings.ToLower(fnName), "zeroize") {
				for _, arg := range n.Args {
					if obj := mentionsAny(pass, arg, secrets); obj != nil {
						zeroized[obj] = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if obj := mentionsAny(pass, res, secrets); obj != nil && !escaped[obj] {
					escaped[obj] = true
					pass.Reportf(n.Pos(), "ceremony secret %q is returned from %s; secrets must not outlive the update",
						obj.Name(), fn.Name.Name)
				}
			}
		case *ast.AssignStmt:
			// A secret stored through a selector, index or dereference
			// outlives the function frame.
			for i, lhs := range n.Lhs {
				switch lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					rhsIdx := i
					if len(n.Rhs) == 1 {
						rhsIdx = 0
					}
					if rhsIdx >= len(n.Rhs) {
						continue
					}
					if obj := mentionsAny(pass, n.Rhs[rhsIdx], secrets); obj != nil && !escaped[obj] {
						escaped[obj] = true
						pass.Reportf(n.Pos(), "ceremony secret %q escapes %s through a store; secrets must stay local",
							obj.Name(), fn.Name.Name)
					}
				}
			}
		case *ast.SendStmt:
			if obj := mentionsAny(pass, n.Value, secrets); obj != nil && !escaped[obj] {
				escaped[obj] = true
				pass.Reportf(n.Pos(), "ceremony secret %q escapes %s through a channel send", obj.Name(), fn.Name.Name)
			}
		}
		return true
	})

	for obj := range secrets {
		if !zeroized[obj] && !escaped[obj] {
			pass.Reportf(declPos[obj].Pos(), "ceremony secret %q is never zeroized in %s; call SetZero (or a zeroize helper) before returning",
				obj.Name(), fn.Name.Name)
		}
	}
}

// calleeName returns the bare name of the called function, if syntactically
// evident.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}
