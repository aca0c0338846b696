// Package lint is a self-contained static-analysis framework for the zkdet
// repository, built purely on the standard library's go/ast, go/parser,
// go/types and go/token (the repo charter forbids external dependencies).
//
// It mirrors the shape of golang.org/x/tools/go/analysis at a fraction of
// the surface: an Analyzer is a named Run function over a type-checked
// package, which may also read the whole module's packages; the driver
// loads packages, fans analyzers out in parallel, and renders
// "file:line: analyzer: message" diagnostics.
//
// Suppressions use the conventional staticcheck syntax:
//
//	//lint:ignore analyzer[,analyzer...] reason
//
// placed on the flagged line or the line directly above it. The reason is
// mandatory: a suppression without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full zkdet analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		CryptoCompare,
		ErrCompare,
		SecretScope,
		GasPurity,
		LockGuard,
		PanicFree,
		DetReplay,
		TestOnly,
	}
}

// Diagnostic is one finding, positioned in the shared FileSet.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Fset     *token.FileSet

	run *run
}

// run is the state the passes of one RunAnalyzers call share: the module
// every pass may read, the findings, and the module-wide facts computed
// once on first use.
type run struct {
	module []*Package

	mu    sync.Mutex
	diags []Diagnostic

	usesOnce sync.Once
	uses     *moduleUses
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	d := Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	p.run.mu.Lock()
	p.run.diags = append(p.run.diags, d)
	p.run.mu.Unlock()
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Pkg.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// RunAnalyzers fans the analyzers out over pkgs (one goroutine per
// package × analyzer), then filters suppressed findings and returns the
// survivors sorted by position. module is every non-test package of the
// module, pkgs among them: findings are reported on pkgs only, but a
// module-wide analyzer (testonly) reads all of module. Suppression
// directives with an empty reason are converted into diagnostics
// themselves, so every silenced finding carries a written justification.
func RunAnalyzers(module, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	r := &run{module: module}
	var wg sync.WaitGroup
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			wg.Add(1)
			go func(pkg *Package, a *Analyzer) {
				defer wg.Done()
				a.Run(&Pass{Analyzer: a, Pkg: pkg, Fset: pkg.Fset, run: r})
			}(pkg, a)
		}
	}
	wg.Wait()

	ignores, bad := collectIgnores(pkgs)
	out := bad
	for _, d := range r.diags {
		if ignores.matches(d) {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// ignoreKey identifies the scope of one //lint:ignore directive.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

type ignoreSet map[ignoreKey]bool

// matches reports whether d is silenced by a directive on its line or the
// line directly above.
func (s ignoreSet) matches(d Diagnostic) bool {
	return s[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
		s[ignoreKey{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}]
}

// collectIgnores gathers every //lint:ignore directive. A directive applies
// to its own line and the one below it (so it works both as a trailing
// comment and as a comment line above the flagged statement). Directives
// missing a justification are returned as diagnostics.
func collectIgnores(pkgs []*Package) (ignoreSet, []Diagnostic) {
	set := ignoreSet{}
	var bad []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					fields := strings.Fields(text)
					if len(fields) == 0 {
						continue
					}
					if len(fields) < 2 {
						// Still honor the suppression (the intent is clear)
						// but demand the justification.
						bad = append(bad, Diagnostic{
							Pos:      pos,
							Analyzer: "lint",
							Message:  "//lint:ignore needs an analyzer list and a written justification",
						})
					}
					for _, name := range strings.Split(fields[0], ",") {
						// The directive covers its own line (trailing
						// comments) and the next (comment-above style).
						set[ignoreKey{pos.Filename, pos.Line, name}] = true
						set[ignoreKey{pos.Filename, pos.Line + 1, name}] = true
					}
				}
			}
		}
	}
	return set, bad
}

// namedType unwraps t to its *types.Named, looking through pointers and
// aliases; it returns nil for unnamed types.
func namedType(t types.Type) *types.Named {
	switch t := t.(type) {
	case *types.Named:
		return t
	case *types.Pointer:
		return namedType(t.Elem())
	case *types.Alias:
		return namedType(types.Unalias(t))
	}
	return nil
}

// isMethodCall reports whether call invokes a method named method on a
// receiver whose named type is pkgName.typeName (pointer receivers
// included), using type information.
func isMethodCall(info *types.Info, call *ast.CallExpr, pkgName, typeName, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return false
	}
	named := namedType(selection.Recv())
	if named == nil || named.Obj().Name() != typeName {
		return false
	}
	p := named.Obj().Pkg()
	return p != nil && p.Name() == pkgName
}

// funcScopePos returns the body extent of the innermost enclosing function
// literal or declaration, used to decide whether a variable is local.
func within(pos token.Pos, node ast.Node) bool {
	return node != nil && node.Pos() <= pos && pos < node.End()
}
