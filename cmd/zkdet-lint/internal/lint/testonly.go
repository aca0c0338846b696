package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// TestOnly keeps internal packages free of code that only tests reach: a
// package-level function, method, type, constant or variable, or an
// exported field of a package-level struct, that no non-test code of the
// module references. Such code reads as part of the product, yet nothing
// the product runs depends on it.
//
// The users are every non-test package of the module — cmd/, examples/,
// benchmark/ and the declaring package itself — whichever packages the run
// was asked to report on; an internal package cannot be imported from
// outside the module, so that set is complete. A use inside the
// declaration's own body (recursion, a type naming itself) and a method's
// receiver are not references. Exempt are
//
//   - a method whose name and signature match a method of an interface
//     type declared or used in the module or declared in an imported
//     standard-library package (fmt.Stringer, error, io.Writer, ...), since
//     it may be called through that interface;
//   - a declaration whose name a file for another GOARCH or GOOS uses
//     (mul_other.go beside mul_amd64.go), since a build for that platform
//     may reference it.
//
// A finding is cleared by deleting the declaration (with its unit tests),
// by moving it into a _test.go file when it is a test oracle, or by a
// //lint:ignore testonly directive naming the other package whose tests
// need it.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "every package-level declaration in an internal package must be referenced by non-test code of the module",
	Run:  runTestOnly,
}

func runTestOnly(pass *Pass) {
	if !slices.Contains(strings.Split(pass.Pkg.Path, "/"), "internal") {
		return
	}
	uses := pass.run.moduleUses()
	check := func(id *ast.Ident, owner string) {
		obj := pass.Pkg.Info.Defs[id]
		if obj == nil || id.Name == "_" || id.Name == "init" || uses.referenced(obj) {
			return
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				owner = namedType(recv.Type()).Obj().Name()
			}
		}
		if owner != "" {
			owner += "."
		}
		pass.Reportf(id.Pos(), "%s%s is referenced by no non-test code of the module", owner, id.Name)
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				check(d.Name, "")
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name, "")
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, name := range field.Names { // embedded fields have none
									if name.IsExported() {
										check(name, s.Name.Name)
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							check(name, "")
						}
					}
				}
			}
		}
	}
}

// moduleUses is what the module's non-test code references, built once per
// run from every package of the module.
type moduleUses struct {
	refs map[types.Object]bool
	// methods maps a method name to the signatures interfaces give it.
	methods map[string][]*types.Signature
	// otherPlatform holds every identifier the module's files for other
	// platforms use; they are parsed, not type-checked, so a use is matched
	// by name alone.
	otherPlatform map[string]bool
}

func (r *run) moduleUses() *moduleUses {
	r.usesOnce.Do(func() { r.uses = collectModuleUses(r.module) })
	return r.uses
}

// referenced reports whether obj has a non-test reference or is exempt.
func (u *moduleUses) referenced(obj types.Object) bool {
	if u.refs[obj] || u.otherPlatform[obj.Name()] {
		return true
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	for _, s := range u.methods[fn.Name()] {
		if types.Identical(sig, s) { // receivers are ignored
			return true
		}
	}
	return false
}

func collectModuleUses(module []*Package) *moduleUses {
	u := &moduleUses{
		refs:          map[types.Object]bool{},
		methods:       map[string][]*types.Signature{},
		otherPlatform: map[string]bool{},
	}
	seen := map[*types.Package]bool{}
	for _, pkg := range module {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					// The receiver is skipped: a method does not use its
					// own type.
					u.addUses(pkg, d.Type, d)
					if d.Body != nil {
						u.addUses(pkg, d.Body, d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						u.addUses(pkg, spec, spec)
					}
				}
			}
		}
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				u.addInterface(tv.Type)
			}
		}
		for _, imp := range pkg.Types.Imports() {
			u.addScope(imp, seen)
		}
		u.addOtherPlatform(pkg)
	}
	u.addInterface(types.Universe.Lookup("error").Type())
	return u
}

// addUses records the objects node uses, except those declared inside self
// (the declaration node belongs to). A struct literal without keys uses
// every field of its type.
func (u *moduleUses) addUses(pkg *Package, node, self ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := pkg.Info.Uses[n]
			if obj == nil || within(obj.Pos(), self) {
				return true
			}
			u.refs[origin(obj)] = true
		case *ast.CompositeLit:
			if len(n.Elts) == 0 {
				return true
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
				return true
			}
			if t := pkg.Info.TypeOf(n); t == nil {
				return true
			} else if st, ok := t.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					u.refs[origin(st.Field(i))] = true
				}
			}
		}
		return true
	})
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// addInterface records the methods of t if t is an interface.
func (u *moduleUses) addInterface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		u.methods[m.Name()] = append(u.methods[m.Name()], m.Type().(*types.Signature))
	}
}

// addScope records the interfaces declared in pkg and, transitively, in the
// packages it imports: the standard library's, and the module's again.
func (u *moduleUses) addScope(pkg *types.Package, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			u.addInterface(tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		u.addScope(imp, seen)
	}
}

// addOtherPlatform records the identifiers of pkg's files that the current
// GOOS/GOARCH does not build.
func (u *moduleUses) addOtherPlatform(pkg *Package) {
	_, others, _ := goFiles(pkg.Dir) // pkg loaded, so its directory lists
	for _, name := range others {
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(pkg.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			continue // a file no build of this package compiles
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				u.otherPlatform[id.Name] = true
			}
			return true
		})
	}
}
