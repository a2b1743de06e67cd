package mimicnet

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
	"slices"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported top-level identifiers of internal/
// that stay exported although no code outside their package references
// them and no API that outside code uses names them. Each needs a reason.
var surfaceAllowlist = map[string]string{
	"core.CongNone":     "member of the CongestionState enum that Extractor.Cong.State returns",
	"core.CongRising":   "member of the CongestionState enum that Extractor.Cong.State returns",
	"core.CongHigh":     "member of the CongestionState enum that Extractor.Cong.State returns",
	"core.CongFalling":  "member of the CongestionState enum that Extractor.Cong.State returns",
	"serve.StateFailed": "member of the State enum whose other members callers compare against",
	"sim.Nanosecond":    "base of the Time unit family (Microsecond, Millisecond, Second)",
	"transport.Names":   "the protocol names ByName accepts; the cluster goldens and protocol tests enumerate protocols with it",
}

// TestAPISurface fails on any exported top-level identifier in internal/
// that no non-test code outside its own package references and that no
// exported API used from outside names, so that only-tests-reach and
// only-my-package-names exports cannot grow back. cmd/, examples/ and
// the bench/ module count as outside callers; _test.go files never do.
func TestAPISurface(t *testing.T) {
	s, err := loadSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	exported, unused := s.audit()
	t.Logf("%d exported top-level identifiers in internal/", exported)
	var bad []string
	for _, name := range unused {
		if _, ok := surfaceAllowlist[name]; !ok {
			bad = append(bad, name)
		}
	}
	for name := range surfaceAllowlist {
		if !slices.Contains(unused, name) {
			t.Errorf("allowlisted %s is used from outside its package (or gone): drop it from surfaceAllowlist", name)
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d exported identifiers that nothing outside their package needs; unexport or delete them:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
}

// surface type-checks every non-test package of the module (bench/
// included, resolved through its replace directive) from source.
type surface struct {
	root  string
	fset  *token.FileSet
	std   types.ImporterFrom
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
}

const modulePath = "mimicnet"

func loadSurface(root string) (*surface, error) {
	fset := token.NewFileSet()
	s := &surface{
		root:  root,
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
	}
	for _, top := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			bp, err := build.Default.ImportDir(path, 0)
			if _, none := err.(*build.NoGoError); none {
				return nil
			} else if err != nil {
				return err
			}
			if len(bp.GoFiles) == 0 {
				return nil
			}
			_, err = s.Import(modulePath + "/" + filepath.ToSlash(path))
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Import type-checks the module's packages itself, recording their uses,
// and hands the standard library to the source importer.
func (s *surface) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, modulePath+"/") {
		return s.std.ImportFrom(path, s.root, 0)
	}
	if p, ok := s.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	s.pkgs[path] = nil
	dir := filepath.Join(s.root, filepath.FromSlash(strings.TrimPrefix(path, modulePath+"/")))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	p, err := (&types.Config{Importer: s}).Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path], s.infos[path] = p, info
	return p, nil
}

// audit returns how many exported top-level identifiers internal/ has,
// and, as pkg.Name strings, those that nothing outside their package
// references or reaches through an outside-used API.
func (s *surface) audit() (int, []string) {
	// Objects of any kind (methods and fields too) named from outside
	// their package.
	used := map[types.Object]bool{}
	for path, info := range s.infos {
		for _, obj := range info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() != path && strings.HasPrefix(obj.Pkg().Path(), modulePath+"/") {
				used[origin(obj)] = true
			}
		}
	}
	// Close over the types those objects mention: a type an outside
	// caller receives is API, with its exported fields and methods.
	reached := map[types.Object]bool{}
	var work []types.Object
	for obj := range used {
		work = append(work, obj)
	}
	var walk func(types.Type)
	visit := func(obj types.Object) {
		if !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	walk = func(typ types.Type) {
		switch t := typ.(type) {
		case *types.Named:
			visit(t.Origin().Obj())
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Alias:
			visit(t.Obj())
			walk(types.Unalias(t))
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumExplicitMethods(); i++ {
				walk(t.ExplicitMethod(i).Type())
			}
			for i := 0; i < t.NumEmbeddeds(); i++ {
				walk(t.EmbeddedType(i))
			}
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		tn, ok := obj.(*types.TypeName)
		if !ok {
			walk(obj.Type())
			continue
		}
		if tn.IsAlias() {
			walk(types.Unalias(tn.Type()))
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			walk(named.Underlying())
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					walk(m.Type())
				}
			}
		}
	}

	exported := 0
	var unused []string
	for path, p := range s.pkgs {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			exported++
			if !used[obj] && !reached[obj] {
				unused = append(unused, p.Name()+"."+name)
			}
		}
	}
	sort.Strings(unused)
	return exported, unused
}

// origin maps an instantiated generic function, method or field back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
