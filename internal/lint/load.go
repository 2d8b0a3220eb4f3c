package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one fully type-checked package: syntax, type information, and
// the file names backing it. Test files are excluded — the analyzer guards
// production code; fixtures and tests time, spawn, and discard whatever
// they like.
type Package struct {
	Path  string // import path ("npdbench/internal/sqldb")
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is the loaded closure of repository packages sharing one FileSet.
type Module struct {
	Root string
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path
}

// LoadModule loads every package of the module rooted at root; the module
// path comes from go.mod.
func LoadModule(root string) (*Module, error) {
	modpath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	return LoadDir(root, modpath)
}

// LoadDir discovers, parses and type-checks every package under root
// (testdata and hidden directories skipped) as a module with the given
// path. The per-pass golden tests call it directly
// on fixture directories, which have no go.mod and import only the
// standard library.
//
// Loading is parallel: all files parse concurrently (token.FileSet is
// safe for concurrent AddFile), the module-internal import graph is read
// off the syntax, and packages type-check on a worker pool in dependency
// waves — a package starts the moment its last module dependency
// finishes, so independent import subtrees (cmd/* on one side, the
// internal/* chains on the other) overlap. Standard-library imports go
// through one shared source importer behind a mutex: the importer
// memoizes, so the first package pays for the stdlib closure and the
// rest hit its cache.
func LoadDir(root, modpath string) (*Module, error) {
	fset := token.NewFileSet()
	units, err := discoverPackages(root, modpath)
	if err != nil {
		return nil, err
	}
	if err := parseUnits(fset, units); err != nil {
		return nil, err
	}
	pl := &parLoader{
		modpath: modpath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
	}
	if err := pl.checkAll(units); err != nil {
		return nil, err
	}
	m := &Module{Root: root, Fset: fset}
	for _, u := range units {
		m.Pkgs = append(m.Pkgs, pl.pkgs[u.path])
	}
	return m, nil
}

// loadUnit is one package directory between discovery and type-checking.
type loadUnit struct {
	path  string // import path
	dir   string
	names []string // .go file names, sorted
	files []*ast.File

	deps []string // module-internal imports present in the unit set
}

// discoverPackages walks the tree under root and collects one unit per
// package directory containing non-test Go files.
func discoverPackages(root, modpath string) ([]*loadUnit, error) {
	seen := map[string]*loadUnit{}
	var units []*loadUnit
	err := filepath.WalkDir(root, func(p string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			name := de.Name()
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		u := seen[dir]
		if u == nil {
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			ip := modpath
			if rel != "." {
				ip = modpath + "/" + filepath.ToSlash(rel)
			}
			u = &loadUnit{path: ip, dir: dir}
			seen[dir] = u
			units = append(units, u)
		}
		u.names = append(u.names, filepath.Base(p))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, u := range units {
		sort.Strings(u.names)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].path < units[j].path })
	return units, nil
}

// parseUnits parses every file of every unit concurrently and resolves
// each unit's module-internal dependencies from the import declarations.
func parseUnits(fset *token.FileSet, units []*loadUnit) error {
	inSet := map[string]bool{}
	for _, u := range units {
		inSet[u.path] = true
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, u := range units {
		u.files = make([]*ast.File, len(u.names))
		for i, name := range u.names {
			wg.Add(1)
			go func(u *loadUnit, i int, name string) {
				defer wg.Done()
				f, err := parser.ParseFile(fset, filepath.Join(u.dir, name), nil, parser.ParseComments)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				u.files[i] = f
			}(u, i, name)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	for _, u := range units {
		depSet := map[string]bool{}
		for _, f := range u.files {
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if inSet[ip] && ip != u.path {
					depSet[ip] = true
				}
			}
		}
		for ip := range depSet {
			u.deps = append(u.deps, ip)
		}
		sort.Strings(u.deps)
	}
	return nil
}

// parLoader type-checks parsed units on a worker pool in dependency
// order. The stdlib source importer is not safe for concurrent use, so
// one shared instance sits behind stdMu; completed module packages are
// read from pkgs under mu.
type parLoader struct {
	modpath string
	fset    *token.FileSet

	stdMu sync.Mutex
	std   types.Importer

	mu   sync.Mutex
	pkgs map[string]*Package
}

// Import implements types.Importer for the concurrent type-checkers. A
// module import is guaranteed complete by the wave scheduling; a nil
// entry means the dependency itself failed to check.
func (pl *parLoader) Import(path string) (*types.Package, error) {
	if path == pl.modpath || strings.HasPrefix(path, pl.modpath+"/") {
		pl.mu.Lock()
		p := pl.pkgs[path]
		pl.mu.Unlock()
		if p == nil {
			return nil, fmt.Errorf("lint: dependency %s failed to load", path)
		}
		return p.Types, nil
	}
	pl.stdMu.Lock()
	defer pl.stdMu.Unlock()
	return pl.std.Import(path)
}

// checkAll schedules the units: each unit is enqueued when its last
// module dependency completes, and up to GOMAXPROCS workers drain the
// queue. Import cycles are rejected up front (Kahn's count), so the
// scheduler cannot stall.
func (pl *parLoader) checkAll(units []*loadUnit) error {
	byPath := map[string]*loadUnit{}
	for _, u := range units {
		byPath[u.path] = u
	}
	remaining := map[string]int{}
	dependents := map[string][]string{}
	for _, u := range units {
		remaining[u.path] = len(u.deps)
		for _, d := range u.deps {
			dependents[d] = append(dependents[d], u.path)
		}
	}
	// Cycle check: peel zero-degree units; anything left sits on a cycle.
	deg := map[string]int{}
	for p, n := range remaining {
		deg[p] = n
	}
	queue := make([]string, 0, len(units))
	for _, u := range units {
		if deg[u.path] == 0 {
			queue = append(queue, u.path)
		}
	}
	peeled := 0
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		peeled++
		for _, d := range dependents[p] {
			if deg[d]--; deg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if peeled != len(units) {
		var cyclic []string
		for p, n := range deg {
			if n > 0 {
				cyclic = append(cyclic, p)
			}
		}
		sort.Strings(cyclic)
		return fmt.Errorf("lint: import cycle through %s", strings.Join(cyclic, ", "))
	}

	ready := make(chan *loadUnit, len(units))
	for _, u := range units {
		if remaining[u.path] == 0 {
			ready <- u
		}
	}
	var (
		wg       sync.WaitGroup
		firstErr error
	)
	wg.Add(len(units))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(units) {
		workers = len(units)
	}
	for w := 0; w < workers; w++ {
		go func() {
			for u := range ready {
				p, err := pl.checkUnit(u)
				pl.mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if p != nil {
					pl.pkgs[u.path] = p
				}
				for _, d := range dependents[u.path] {
					if remaining[d]--; remaining[d] == 0 {
						ready <- byPath[d]
					}
				}
				pl.mu.Unlock()
				wg.Done()
			}
		}()
	}
	wg.Wait()
	close(ready)
	return firstErr
}

// checkUnit type-checks one parsed unit.
func (pl *parLoader) checkUnit(u *loadUnit) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: pl}
	tpkg, err := conf.Check(u.path, pl.fset, u.files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", u.path, err)
	}
	return &Package{Path: u.path, Dir: u.dir, Files: u.files, Types: tpkg, Info: info}, nil
}

// modulePath reads the module declaration out of root's go.mod.
func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s/go.mod", root)
}
