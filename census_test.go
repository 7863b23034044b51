package wp2p

import (
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
	"testing"
)

// keptByRule is the whole list of funcs and methods under internal/ that no
// non-test file of internal/, cmd/, benchmark/ or examples/ references, each
// with the one reason it stays. TestReachabilityCensus fails when a func is
// missing from it, and when an entry is stale: gone, referenced by product
// code after all, or referenced by nothing, tests included.
//
// Not listed, because the census counts them as reached: a method whose
// receiver type product code references and that some interface declared in
// the module or imported from the standard library requires of that type
// (String, Error, MarshalJSON, the transport and check.Checkable methods).
var keptByRule = []struct{ id, reason string }{
	// Reference paths and paper alternatives under test.
	{"wp2p.PrStability", "the paper's §4.3 alternative p_r schedule (selfishness decays with connection stability), kept under test with MFConfig.Pr since PR 20"},
	{"wp2p.NewStabilityTracker", "PrStability's clock"},
	{"wp2p.StabilityTracker.Reset", "PrStability's clock: a disconnection restarts it"},
	{"ordset.Set.Has", "ordset's own API: the reference bt's dense request index is checked against slot for slot (TestRequestIndexMatchesOrdset)"},
	{"ordset.Set.KeyAt", "as Set.Has: the slot order the differential tests compare"},
	{"ordset.Set.Val", "as Set.Has"},
	{"netem.DeliverFunc.Deliver", "the adapter netem's and tcp's tests use to stand in for a Network behind a medium; a fake, not a product path"},

	// Safety code: what a caught fault leaves behind, read back by the test that proves it is caught.
	{"check.Checker.Violations", "safety code: the violations a custom OnViolation swallowed; package check_test cannot read the field"},
	{"experiments.CheckViolations", "safety code: the count onViolation records under the observers' lock"},

	// Behaviours only tests exercise, kept for a named reason.
	{"bt.Limiter.Acquire", "the closure form of acquire: the limiter's FIFO, refill and re-entrancy tests drive the queue through it without building a peerConn"},
	{"sim.Engine.Stop", "the only way out of Run() once a ticker is armed; Run's contract names it and benchmark/ calls Run"},
	{"netem.Network.SetPairDelay", "the simulator's side of ROADMAP item 7 (a live run shaped with per-connection delays needs a prediction with the same per-pair delays); guarded against sub-lookahead values in a sharded world"},

	// Accessors another package's tests read, so no field is in reach.
	{"bt.Client.PeerID", "tests of wp2p, mobility and experiments identify a client across a restart by it"},
	{"bt.Client.Restarts", "tests of wp2p and mobility count task re-initiations through it"},
	{"bt.Limiter.Rate", "wp2p's LIHD tests read back the cap the controller set"},
}

// TestReachabilityCensus type-checks the module with the standard library's
// source importer and holds keptByRule to be exactly the funcs and methods
// under internal/ that product code does not reference.
func TestReachabilityCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module (a few seconds)")
	}
	c := newCensus()
	for _, top := range []string{"internal", "cmd", "benchmark", "examples"} {
		filepath.WalkDir(top, func(dir string, d os.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				c.load(dir)
			}
			return nil
		})
	}
	if len(c.errs) > 0 {
		t.Fatalf("type-check failed: %v", c.errs[0])
	}
	ifaces := c.interfaces()

	kept := map[string]bool{}
	for _, k := range keptByRule {
		if k.reason == "" {
			t.Errorf("%s is in keptByRule without a reason", k.id)
		}
		kept[k.id] = true
	}
	var ids []string
	for id, e := range c.refs {
		if e.fn != nil && strings.HasPrefix(id, "internal/") {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		e, short := c.refs[id], strings.TrimPrefix(id, "internal/")
		prod, test := e.prod > 0, e.test > 0
		if recv := c.refs[e.recv]; recv != nil && conforms(e.fn, ifaces) {
			prod, test = prod || recv.prod > 0, test || recv.test > 0
		}
		listed := kept[short]
		delete(kept, short)
		switch {
		case prod && listed:
			t.Errorf("%s is referenced by product code: drop it from keptByRule", short)
		case !prod && !listed:
			t.Errorf("%s (%s) is referenced by no non-test file: delete it, reach it from a bundled spec, or give keptByRule its reason", short, e.pos)
		case !prod && !test:
			t.Errorf("%s is referenced by nothing at all, tests included: delete it", short)
		}
	}
	for id := range kept {
		t.Errorf("%s is in keptByRule but no such func exists under internal/", id)
	}
}

const modulePath = "github.com/wp2p/wp2p"

// entry counts the references to one package-level func, method or type:
// from non-test files (prod) and from test files (test).
type entry struct {
	prod, test int
	fn         *types.Func // nil for a type
	recv       string      // a method's receiver type, as an id
	pos        token.Position
}

type census struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*types.Package // module packages, non-test files only
	refs map[string]*entry         // by id: dir.Func or dir.Type.Method, dir relative to the module
	lits []*types.Interface        // interface type literals met in non-test files
	errs []error
}

func newCensus() *census {
	fset := token.NewFileSet()
	return &census{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		refs: map[string]*entry{},
	}
}

// Import resolves a module package to its non-test files, checked once, so
// every package sees the same objects; anything else is the standard library.
func (c *census) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, modulePath+"/") {
		return c.std.Import(path)
	}
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	prod, _, _ := c.parse(strings.TrimPrefix(path, modulePath+"/"))
	c.pkgs[path] = c.check(path, prod, false)
	return c.pkgs[path], nil
}

// load counts dir's references: its non-test files once (through Import),
// then its test files, in-package ones beside a second copy of the package.
func (c *census) load(dir string) {
	prod, inTest, xTest := c.parse(dir)
	if len(prod) == 0 {
		return
	}
	path := modulePath + "/" + filepath.ToSlash(dir)
	c.Import(path)
	if len(inTest) > 0 {
		c.check(path, append(prod, inTest...), true)
	}
	if len(xTest) > 0 {
		c.check(path+"_test", xTest, true)
	}
}

func (c *census) parse(dir string) (prod, inTest, xTest []*ast.File) {
	names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, name := range names {
		if ok, _ := build.Default.MatchFile(dir, filepath.Base(name)); !ok {
			continue
		}
		f, err := parser.ParseFile(c.fset, name, nil, parser.SkipObjectResolution)
		switch {
		case err != nil:
			c.errs = append(c.errs, err)
		case !strings.HasSuffix(name, "_test.go"):
			prod = append(prod, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			xTest = append(xTest, f)
		default:
			inTest = append(inTest, f)
		}
	}
	return
}

// check type-checks files as one package and counts what they reference;
// testOnly skips the non-test files, which the first pass counted.
func (c *census) check(path string, files []*ast.File, testOnly bool) *types.Package {
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: c, Error: func(err error) { c.errs = append(c.errs, err) }}
	pkg, _ := conf.Check(path, c.fset, files, info)

	// A receiver names its type without being a use of it: a type only its
	// own methods mention is unreferenced.
	recvIdent := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recvIdent[id] = true
					}
					return true
				})
			}
		}
	}
	for ident, obj := range info.Uses {
		pos := c.fset.Position(ident.Pos())
		isTest := strings.HasSuffix(pos.Filename, "_test.go")
		if id, _ := objectID(obj); id != "" && !recvIdent[ident] && (isTest || !testOnly) {
			e := c.entry(id)
			if isTest {
				e.test++
			} else {
				e.prod++
			}
		}
	}
	if testOnly {
		return pkg
	}
	for ident, obj := range info.Defs {
		if fn, ok := obj.(*types.Func); ok && ident.Name != "init" && ident.Name != "main" && ident.Name != "_" {
			if id, recv := objectID(fn); id != "" {
				e := c.entry(id)
				e.fn, e.recv, e.pos = fn, recv, c.fset.Position(ident.Pos())
			}
		}
	}
	for expr, tv := range info.Types {
		if _, ok := expr.(*ast.InterfaceType); ok {
			if it, ok := tv.Type.(*types.Interface); ok {
				c.lits = append(c.lits, it)
			}
		}
	}
	return pkg
}

func (c *census) entry(id string) *entry {
	if c.refs[id] == nil {
		c.refs[id] = &entry{}
	}
	return c.refs[id]
}

// objectID names a package-level func or type, or a method of a named type,
// of this module ("internal/bt.Client.Start"), and a method's receiver type
// ("internal/bt.Client"); "" for everything else.
func objectID(obj types.Object) (id, recv string) {
	if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), modulePath+"/") {
		return "", ""
	}
	dir := strings.TrimSuffix(strings.TrimPrefix(obj.Pkg().Path(), modulePath+"/"), "_test")
	switch o := obj.(type) {
	case *types.Func:
		if r := o.Origin().Type().(*types.Signature).Recv(); r != nil {
			t := r.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", "" // an interface's method
			}
			recv = dir + "." + named.Obj().Name()
			return recv + "." + o.Name(), recv
		}
	case *types.TypeName:
	default:
		return "", ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", ""
	}
	return dir + "." + obj.Name(), ""
}

// interfaces collects every interface a method can be called through: those
// the module's non-test files declare or spell out in place, and the named
// ones of the standard-library packages it imports.
func (c *census) interfaces() []*types.Interface {
	out := append(c.lits, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	for _, p := range c.pkgs {
		for _, imp := range p.Imports() {
			if seen[imp] || strings.HasPrefix(imp.Path(), modulePath+"/") {
				continue
			}
			seen[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						out = append(out, it)
					}
				}
			}
		}
	}
	return out
}

// conforms reports whether some interface requires method fn of its
// receiver type (methods of generic types are not tried).
func conforms(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	base := recv.Type()
	if p, ok := base.(*types.Pointer); ok {
		base = p.Elem()
	}
	if n, ok := base.(*types.Named); !ok || n.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(base)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(base, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}
