package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the unit analyzers run over.
type Package struct {
	// Path is the package's import path (module-relative packages use the
	// full module path; fixtures use a synthetic "fixture/..." path).
	Path string
	// Dir is the directory the source files were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader discovers, parses and type-checks module packages using only the
// standard library: module-internal imports resolve against the go.mod
// module path, everything else (the standard library) goes through the
// go/importer source importer. No GOPATH placement or build cache is needed.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleRoot string

	std    types.Importer
	loaded map[string]*Package
	types  map[string]*types.Package
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		ModuleRoot: root,
		std:        importer.ForCompiler(fset, "source", nil),
		loaded:     map[string]*Package{},
		types:      map[string]*types.Package{},
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Expand resolves command-line package patterns ("./...", "./internal/kzg")
// into module package directories, skipping testdata, hidden and vendor
// directories.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		if pat == "." || pat == "./" {
			pat = l.ModuleRoot
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(l.ModuleRoot, base)
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	names, err := goFiles(dir)
	return err == nil && len(names) > 0
}

// goFiles lists the non-test Go files of dir that the go command would
// compile for the current GOOS/GOARCH: go/build applies the file-name
// suffixes (_amd64.go, _linux.go) and the //go:build lines, so a package
// split into per-architecture twins loads as the one package the compiler
// sees rather than as a set of redeclarations.
func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("lint: build constraints of %s: %w", filepath.Join(dir, name), err)
		}
		if match {
			names = append(names, name)
		}
	}
	return names, nil
}

// importPathFor maps a module directory to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModuleRoot)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// LoadDir parses and type-checks the package in dir under the given import
// path (pass "" to derive it from the module layout), from the files
// goFiles selects. A func declared without a body — an assembly routine —
// type-checks as declared; analyzers see its signature, never its body.
// Results are memoized by import path.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if path == "" {
		p, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		path = p
	}
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: (*lintImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.loaded[path] = pkg
	l.types[path] = tpkg
	return pkg, nil
}

// lintImporter resolves imports during type checking: module-internal paths
// load from source via the Loader, everything else falls back to the
// standard-library source importer.
type lintImporter Loader

func (li *lintImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if tp, ok := l.types[path]; ok {
		return tp, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	tp, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.types[path] = tp
	return tp, nil
}
