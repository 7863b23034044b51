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
	"sync"
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
	{"wp2p.PrStability", "the paper's §4.3 alternative p_r schedule (selfishness decays with connection stability); fetch_test.go reaches it through NewMobilityFetch, and MFConfig.Pr is reserved for item 6's schedule sweep"},
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
	{"mobility.Handoff.Changes", "tests of mobility, wp2p and scenario count one host's address changes through it; exports carry the world's sum as the mobility.handoffs counter"},
}

// TestReachabilityCensus type-checks the module with the standard library's
// source importer and holds keptByRule to be exactly the funcs and methods
// under internal/ that product code does not reference.
func TestReachabilityCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module (a few seconds)")
	}
	c := moduleCensus(t)
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

// keptFields is the whole list of exported fields of exported *Config and
// *Options structs under internal/ that no non-test file of internal/, cmd/,
// benchmark/ or examples/ sets, each with the one reason it stays a field.
// TestOptionsCensus fails when a field is missing from it, and when an entry
// is stale: gone, or set by product code after all.
var keptFields = []struct{ id, reason string }{
	// Set only by a test, which reaches the behaviour in bounded sim time.
	{"bt.Config.Corrupt", "the hash-fail path: a test's seed serves corrupt blocks, which the leech must reject and re-fetch"},
	{"bt.Config.MaxPeers", "the connection cap: tests fill it with one or three peers instead of the default 20"},
	{"bt.Config.RequestTimeout", "the re-request timer: tests lengthen its 45 s so that only the path under test can rescue a stall"},
	{"check.Config.DigestEvery", "the digest period: tests record every 16 to 512 events so a short run yields many records"},
	{"ed2k.Config.WaitMemory", "the upload queue's memory of a waiter that left: a test shortens its 30 min to see it lapse"},
	{"flow.Config.Quantum", "the delivery calendar: flow's tests set 10 ms and flow.Exact to see the lateness bound move"},
	{"wp2p.Config.Identities", "identity retention across clients: a test shares one store between two of them"},
	{"wp2p.LIHDConfig.Umin", "LIHD's floor: a test raises its 1 KB/s to see the cap stop there"},
	{"wp2p.RRConfig.CheckInterval", "the watchdog's poll: tests shorten its 2 s to see an address change sooner"},
	{"wp2p.RRConfig.DeadPeersGrace", "the watchdog's patience with no live peer: a test shortens its 10 s to see the re-dial"},

	// ROADMAP item 6's sweep axes, reserved for the figures it widens.
	{"experiments.Fig3Config.LeechesPerSwarm", "item 6's swarm-size sweep of Figures 3(a, b)"},
	{"experiments.Fig8cConfig.Leeches", "item 6's swarm-size sweep of Figure 8(c)"},
	{"experiments.Fig9cConfig.Leeches", "item 6's swarm-size sweep of Figure 9(c)"},
	{"wp2p.MFConfig.Pr", "item 6's schedule sweep: the paper's §4.3 alternative PrStability beside the default PrProgress"},
}

// TestOptionsCensus holds keptFields to be exactly the exported fields of
// exported *Config/*Options structs under internal/ that product code does
// not set. A setter is a keyed (or positional) literal, or any assignment to
// the field except the struct's own package filling in a default (an
// assignment directly inside an if whose condition reads the same field).
func TestOptionsCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module (a few seconds)")
	}
	c := moduleCensus(t)
	kept := map[string]bool{}
	for _, k := range keptFields {
		if k.reason == "" {
			t.Errorf("%s is in keptFields without a reason", k.id)
		}
		kept[k.id] = true
	}
	fields := c.optionFields()
	for _, f := range fields {
		listed := kept[f.id]
		delete(kept, f.id)
		switch set := c.set[f.v]; {
		case set && listed:
			t.Errorf("%s is set by product code: drop it from keptFields", f.id)
		case !set && !listed:
			t.Errorf("%s (%s) is set by no non-test file: make it a constant beside its one use, or give keptFields its reason", f.id, c.fset.Position(f.v.Pos()))
		}
	}
	for id := range kept {
		t.Errorf("%s is in keptFields but no such field exists", id)
	}
	t.Logf("%d exported Config/Options fields, %d set only by tests or by nothing", len(fields), len(keptFields))
}

var (
	censusOnce sync.Once
	theCensus  *census
)

// moduleCensus type-checks every package of internal/ cmd/ benchmark/
// examples/ once per test binary.
func moduleCensus(t *testing.T) *census {
	censusOnce.Do(func() {
		theCensus = newCensus()
		for _, top := range []string{"internal", "cmd", "benchmark", "examples"} {
			filepath.WalkDir(top, func(dir string, d os.DirEntry, err error) error {
				if err == nil && d.IsDir() {
					theCensus.load(dir)
				}
				return nil
			})
		}
	})
	if len(theCensus.errs) > 0 {
		t.Fatalf("type-check failed: %v", theCensus.errs[0])
	}
	return theCensus
}

// optionField is one exported field of an exported *Config/*Options struct
// declared under internal/, named "pkg.Struct.Field".
type optionField struct {
	id string
	v  *types.Var
}

func (c *census) optionFields() (out []optionField) {
	for path, p := range c.pkgs {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					out = append(out, optionField{p.Name() + "." + name + "." + f.Name(), f})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// countSetters marks every struct field that files (one package's non-test
// files) set: by a keyed or positional literal, or by an assignment that is
// not that package defaulting its own field.
func (c *census) countSetters(pkg *types.Package, files []*ast.File, info *types.Info) {
	mark := func(id *ast.Ident) {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			c.set[v] = true
		}
	}
	defaults := map[ast.Stmt]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				cond := map[string]bool{}
				ast.Inspect(n.Cond, func(e ast.Node) bool {
					if e, ok := e.(ast.Expr); ok {
						cond[types.ExprString(e)] = true
					}
					return true
				})
				for _, s := range n.Body.List {
					if as, ok := s.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && cond[types.ExprString(as.Lhs[0])] {
						defaults[as] = true
					}
				}
			case *ast.CompositeLit:
				st, isStruct := info.TypeOf(n).Underlying().(*types.Struct)
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							mark(id)
						}
					} else if isStruct && i < st.NumFields() {
						c.set[st.Field(i)] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						v, _ := info.Uses[sel.Sel].(*types.Var)
						if v != nil && v.IsField() && !(defaults[n] && v.Pkg() == pkg) {
							c.set[v] = true
						}
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					mark(sel.Sel)
				}
			}
			return true
		})
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
	set  map[*types.Var]bool       // struct fields a non-test file sets (countSetters)
	errs []error
}

func newCensus() *census {
	fset := token.NewFileSet()
	return &census{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		refs: map[string]*entry{},
		set:  map[*types.Var]bool{},
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
	c.countSetters(pkg, files, info)
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
