package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceDirs are the service packages whose exported functions and methods
// must each be reached from program code.
var surfaceDirs = []string{
	"internal/api", "internal/campaign", "internal/colstore", "internal/core",
	"internal/kdb", "internal/repl", "internal/schema", "internal/shard",
	"internal/telemetry", "internal/vcs",
}

// surfaceAllowed are the exported names of surfaceDirs that no non-test
// file reaches, each kept for the reason given.
var surfaceAllowed = map[string]string{
	"kdb.(*DB).CommitNotify":           "bench/wrap_test.go asserts it",
	"repl.(*Router).ProbePrimaryLSN":   "bench/wrap_test.go asserts it",
	"kdb.(*DB).Compact":                "the rewrite on demand that BenchmarkAblationKdbCompact, the compaction ablation, measures",
	"kdb.Footprint.HitBy":              "the reference FuzzMarksEqualScan compares against",
	"telemetry.(*Registry).SetEnabled": "the disabled arm of BenchmarkTelemetryOverhead",
	"telemetry.(*Registry).Enabled":    "the disabled arm of BenchmarkTelemetryOverhead",
	"telemetry.SetTracing":             "a seam many packages' tests use",
	"telemetry.(*TraceStore).Reset":    "a seam many packages' tests use",
	"repl.(*Follower).DB":              "a seam many packages' tests use",
}

// TestExportedSurfaceIsReached type-checks the non-test files of this module
// and of bench/ and fails on an exported function or method of surfaceDirs
// that none of them references. A method also counts as reached when its
// name belongs to an interface type the program mentions (its own, a
// literal one, or a standard-library one such as http.ResponseWriter): a
// call through the interface reaches it.
func TestExportedSurfaceIsReached(t *testing.T) {
	c, err := newSurfaceChecker()
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []struct{ dir, path string }{{".", "repro"}, {"bench", "repro/bench"}} {
		err = filepath.WalkDir(root.dir, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if dir != root.dir && (name == "testdata" || strings.HasPrefix(name, ".") || name == "bench" && root.dir == ".") {
				return filepath.SkipDir
			}
			path := root.path
			if dir != root.dir {
				rel, _ := filepath.Rel(root.dir, dir)
				path += "/" + filepath.ToSlash(rel)
			}
			c.dirs[path] = dir
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	paths := make([]string, 0, len(c.dirs))
	for p := range c.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := c.check(p); err != nil {
			t.Fatal(err)
		}
	}

	var unreached []string
	for _, d := range c.decls {
		if c.reached(d) {
			continue
		}
		if _, ok := surfaceAllowed[d.name]; ok {
			delete(c.allowUnused, d.name)
			continue
		}
		unreached = append(unreached, fmt.Sprintf("%s (%s)", d.name, c.fset.Position(d.decl.Pos())))
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s: exported, but no non-test file reaches it; use it, move it into a test file, or allow it with a reason", u)
	}
	for name := range c.allowUnused {
		t.Errorf("%s is allowed but was not found unreached; drop it from surfaceAllowed", name)
	}
}

// surfaceDecl is one exported function or method of surfaceDirs.
type surfaceDecl struct {
	name string // pkg.Func, pkg.Type.Method or pkg.(*Type).Method
	obj  *types.Func
	decl *ast.FuncDecl
}

type surfaceChecker struct {
	fset        *token.FileSet
	std         types.ImporterFrom
	dirs        map[string]string // import path -> directory
	pkgs        map[string]*types.Package
	decls       []surfaceDecl
	uses        map[*types.Func][]token.Pos
	ifaceNames  map[string]bool // method names of every interface the program mentions
	allowUnused map[string]bool
}

// newSurfaceChecker reads the standard library from the compiler's export
// data, located by one `go list` for the module's dependencies (and by one
// more for each package only bench/ imports).
func newSurfaceChecker() (*surfaceChecker, error) {
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{if .Standard}}{{.ImportPath}}={{.Export}}{{end}}", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Fields(string(out)) {
		path, file, _ := strings.Cut(line, "=")
		exports[path] = file
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path).Output()
			if err != nil {
				return nil, fmt.Errorf("go list %s: %w", path, err)
			}
			file = strings.TrimSpace(string(out))
		}
		return os.Open(file)
	}
	fset := token.NewFileSet()
	c := &surfaceChecker{
		fset:        fset,
		std:         importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom),
		dirs:        map[string]string{},
		pkgs:        map[string]*types.Package{},
		uses:        map[*types.Func][]token.Pos{},
		ifaceNames:  map[string]bool{},
		allowUnused: map[string]bool{},
	}
	for name := range surfaceAllowed {
		c.allowUnused[name] = true
	}
	return c, nil
}

func (c *surfaceChecker) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *surfaceChecker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := c.dirs[path]; ok {
		return c.check(path)
	}
	return c.std.ImportFrom(path, dir, mode)
}

// check type-checks the non-test files of the package at path, once, and
// records its exported declarations, its references and the interfaces it
// mentions. A directory without Go files checks to nil.
func (c *surfaceChecker) check(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	dir := c.dirs[path]
	bp, err := build.Default.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		c.pkgs[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	c.pkgs[path] = pkg

	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			c.uses[fn] = append(c.uses[fn], id.Pos())
		}
	}
	for _, tv := range info.Types {
		if !tv.IsType() {
			continue
		}
		if it, ok := tv.Type.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				c.ifaceNames[it.Method(i).Name()] = true
			}
		}
	}
	if !inSurface(dir) {
		return pkg, nil
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn := info.Defs[fd.Name].(*types.Func)
			c.decls = append(c.decls, surfaceDecl{name: surfaceName(pkg, fn), obj: fn, decl: fd})
		}
	}
	return pkg, nil
}

// inSurface reports whether dir is one of surfaceDirs (not below one).
func inSurface(dir string) bool {
	for _, d := range surfaceDirs {
		if filepath.Clean(dir) == filepath.FromSlash(d) {
			return true
		}
	}
	return false
}

// surfaceName spells fn as pkg.Func, pkg.Type.Method or pkg.(*Type).Method.
func surfaceName(pkg *types.Package, fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg.Name() + "." + fn.Name()
	}
	t := recv.Type()
	ptr := ""
	if p, ok := t.(*types.Pointer); ok {
		t, ptr = p.Elem(), "*"
	}
	named := t.(*types.Named).Obj().Name()
	if ptr != "" {
		return fmt.Sprintf("%s.(*%s).%s", pkg.Name(), named, fn.Name())
	}
	return fmt.Sprintf("%s.%s.%s", pkg.Name(), named, fn.Name())
}

// reached reports whether d is referenced outside its own body, or is a
// method whose name an interface the program mentions carries.
func (c *surfaceChecker) reached(d surfaceDecl) bool {
	for _, pos := range c.uses[d.obj] {
		if pos < d.decl.Pos() || pos >= d.decl.End() {
			return true
		}
	}
	return d.obj.Type().(*types.Signature).Recv() != nil && c.ifaceNames[d.obj.Name()]
}
