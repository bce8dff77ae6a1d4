package lint

// This file is the interprocedural substrate of the suite: a per-package
// fact base (function call edges, alloc sites, hotpath annotations,
// interface implementations, shared-state directives) and the Session
// that accumulates facts across packages. The same facts flow through
// both runners: standalone Load/Run feeds packages to a Session in
// dependency order, and under `go vet -vettool` each unit imports its
// dependencies' facts from their .vetx files and exports the merged set
// through VetxOutput (see vet.go). Call-graph edges are of two kinds:
//
//   - static: the callee resolves through go/types to a concrete
//     function or method;
//   - interface dispatch: a call through an interface method (e.g.
//     sim.Handler.OnEvent, routing.Policy.Choose, the
//     congestion.Controller hooks) links, soundly, to every in-module
//     implementation of that method recorded by any package's facts.
//
// Calls through plain function values (completion callbacks, builders)
// resolve to nothing; they form the deliberate firewall between the
// per-event spine and cold setup/notification code.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// SrcPos is a serializable source position for cross-package facts.
type SrcPos struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

func srcPos(fset *token.FileSet, pos token.Pos) SrcPos {
	p := fset.Position(pos)
	return SrcPos{File: p.Filename, Line: p.Line, Col: p.Column}
}

// Position converts back to the token form diagnostics carry.
func (p SrcPos) Position() token.Position {
	return token.Position{Filename: p.File, Line: p.Line, Column: p.Col}
}

// AllocSite is one allocation-causing construct found in a function
// body. Sites already excused by an //simlint:allocok directive in their
// own package are filtered at collection time and never become facts.
type AllocSite struct {
	Pos  SrcPos `json:"pos"`
	What string `json:"what"`
}

// FuncFact is the call-graph record of one declared function or method,
// keyed by its *types.Func.FullName (e.g.
// "(*repro/internal/sim.Engine).Step").
type FuncFact struct {
	Name string `json:"name"`
	Pos  SrcPos `json:"pos"`
	// Hotpath marks //simlint:hotpath-annotated declarations — the spine
	// roots and the functions the intra-procedural hotpath analyzer owns.
	Hotpath bool        `json:"hotpath,omitempty"`
	Allocs  []AllocSite `json:"allocs,omitempty"`
	// Calls are statically resolved callees (full names); IfaceCalls are
	// interface methods called through dynamic dispatch.
	Calls      []string `json:"calls,omitempty"`
	IfaceCalls []string `json:"iface_calls,omitempty"`
}

// PkgFacts is everything one package exports to its dependents.
type PkgFacts struct {
	Funcs map[string]*FuncFact `json:"funcs,omitempty"`
	// Impls maps an interface method (full name) to the in-module
	// methods implementing it — the sound dispatch edges.
	Impls map[string][]string `json:"impls,omitempty"`
	// SharedVars are package-level variables annotated
	// //simlint:shared, so dependents can excuse writes to them.
	SharedVars []string `json:"shared_vars,omitempty"`
}

// Session accumulates facts package by package (dependency order) and
// answers the interprocedural questions the spine analyzer asks. One
// Session spans a whole standalone run; under vet each unit gets a fresh
// Session seeded with its dependencies' imported facts.
type Session struct {
	pkgs  map[string]*PkgFacts
	order []string
	// byFunc indexes every known FuncFact by full name, with its package.
	byFunc map[string]factRef
}

type factRef struct {
	fact *FuncFact
	pkg  string
}

// NewSession returns an empty fact base.
func NewSession() *Session {
	return &Session{pkgs: map[string]*PkgFacts{}, byFunc: map[string]factRef{}}
}

func (s *Session) add(path string, pf *PkgFacts) {
	if _, ok := s.pkgs[path]; ok {
		return
	}
	s.pkgs[path] = pf
	s.order = append(s.order, path)
	for name, f := range pf.Funcs {
		s.byFunc[name] = factRef{fact: f, pkg: path}
	}
}

// ImportFacts merges a serialized fact set (a dependency's .vetx
// payload) into the session. Empty payloads — what pre-fact simlint
// versions wrote — carry no facts and are accepted.
func (s *Session) ImportFacts(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var pkgs map[string]*PkgFacts
	if err := json.Unmarshal(data, &pkgs); err != nil {
		return fmt.Errorf("lint: decoding facts: %w", err)
	}
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs { //simlint:sortediter -- keys are sorted before use
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		s.add(p, pkgs[p])
	}
	return nil
}

// ExportFacts serializes the session's full fact base — the analyzed
// package plus everything imported — so a unit's .vetx is cumulative
// and dependents only need their direct dependencies' files.
func (s *Session) ExportFacts() ([]byte, error) {
	return json.Marshal(s.pkgs)
}

// RunPackage collects the package's facts into the session and then runs
// the analyzers over it, returning the surviving diagnostics sorted by
// position. Passing no analyzers collects facts only (vet's VetxOnly
// dependency units).
func (s *Session) RunPackage(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File,
	pkg *types.Package, info *types.Info) []Diagnostic {
	// Test files are out of scope for every analyzer: the invariants
	// guard simulation code; tests assert, time out, and iterate maps
	// freely.
	kept := files[:0:0]
	for _, f := range files {
		if !isTestFile(fset, f) {
			kept = append(kept, f)
		}
	}
	dirs := parseDirectives(fset, kept)

	// Fact collection runs before the analyzers so the spine sees the
	// current package's own edges; the pre-insertion reachable set is
	// what lets it report only findings this package's edges introduce.
	before := s.reachable(hotpathRoot)
	s.add(pkg.Path(), collectFacts(fset, kept, pkg, info, dirs))
	after := s.reachable(hotpathRoot)
	newly := map[string]bool{}
	for name := range after {
		if !before[name] {
			newly[name] = true
		}
	}

	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    kept,
			Pkg:      pkg,
			Info:     info,
			dirs:     dirs,
			diags:    &diags,
			sess:     s,
			newly:    newly,
		})
	}
	sortDiags(diags)
	return diags
}

// hotpathRoot treats every //simlint:hotpath-annotated function as a
// spine root: annotations are the reviewed statement "this runs
// per-event", and reachability propagates from all of them.
func hotpathRoot(f *FuncFact) bool { return f.Hotpath }

// engineRootRE matches the ultimate spine roots — the event-loop
// dispatch and the scheduling call every handler runs through.
var engineRootRE = regexp.MustCompile(`^\(\*[^)]*\bsim\.Engine\)\.(Step|Schedule)$`)

func engineRoot(f *FuncFact) bool {
	return f.Hotpath && engineRootRE.MatchString(f.Name)
}

// reachable computes the transitive closure of call edges (static plus
// sound interface dispatch) from every fact satisfying isRoot.
func (s *Session) reachable(isRoot func(*FuncFact) bool) map[string]bool {
	impls := map[string][]string{}
	for _, pf := range s.pkgs { //simlint:sortediter -- set union; consumer order is independent of build order
		for m, is := range pf.Impls { //simlint:sortediter -- set union; consumer order is independent of build order
			impls[m] = append(impls[m], is...)
		}
	}
	seen := map[string]bool{}
	var stack []string
	push := func(n string) {
		if !seen[n] {
			seen[n] = true
			stack = append(stack, n)
		}
	}
	for name, ref := range s.byFunc { //simlint:sortediter -- seeds a worklist whose fixed point is order-independent
		if isRoot(ref.fact) {
			push(name)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ref, ok := s.byFunc[n]
		if !ok {
			continue
		}
		for _, c := range ref.fact.Calls {
			push(c)
		}
		for _, m := range ref.fact.IfaceCalls {
			push(m)
			for _, impl := range impls[m] {
				push(impl)
			}
		}
	}
	return seen
}

// SpineList returns the sorted full names of every function reachable
// from the hotpath roots — the inventory behind `simlint -list-spine`.
func (s *Session) SpineList() []string {
	reach := s.reachable(hotpathRoot)
	var out []string
	for name := range reach { //simlint:sortediter -- sorted below
		if ref, ok := s.byFunc[name]; ok && spineScope(ref.pkg) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// DriftDiags reports annotation drift: //simlint:hotpath functions no
// longer reachable from the Engine.Step/Schedule roots. It is meaningful
// only over a whole program, so the standalone runner calls it after the
// full ./... package set is in (never under vet, whose per-unit view
// would misread every not-yet-linked handler as drifted). When the
// session contains no engine at all (a fixture or foreign module), there
// is nothing to measure and it reports nothing.
func (s *Session) DriftDiags() []Diagnostic {
	hasEngine := false
	for _, ref := range s.byFunc { //simlint:sortediter -- existence check only
		if engineRoot(ref.fact) {
			hasEngine = true
			break
		}
	}
	if !hasEngine {
		return nil
	}
	reach := s.reachable(engineRoot)
	var diags []Diagnostic
	for name, ref := range s.byFunc { //simlint:sortediter -- diagnostics are sorted before return
		if !ref.fact.Hotpath || reach[name] {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      ref.fact.Pos.Position(),
			Pkg:      ref.pkg,
			Analyzer: "spine",
			Message: fmt.Sprintf("%s is annotated //simlint:hotpath but is not reachable from Engine.Step/Schedule (annotation drift)",
				name),
			Hint: "remove the stale annotation, or reconnect the function to the spine it claims to be on",
		})
	}
	sortDiags(diags)
	return diags
}

// spineScope excludes binaries and examples from spine reporting, by
// path segment so it works for any analyzed module, not just repro.
func spineScope(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "cmd" || seg == "examples" {
			return false
		}
	}
	return true
}

// moduleRoot is the first import-path segment — the coarse "same module"
// test used to bound interface collection (stdlib interfaces like
// io.Writer must not become dispatch fan-out).
func moduleRoot(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// collectFacts builds one package's fact record: per-function call
// edges, alloc sites (allocok-filtered), hotpath annotations, interface
// implementations, and //simlint:shared-annotated package variables.
func collectFacts(fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, dirs *directiveIndex) *PkgFacts {
	pf := &PkgFacts{Funcs: map[string]*FuncFact{}, Impls: map[string][]string{}}

	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fact := &FuncFact{
				Name:    obj.FullName(),
				Pos:     srcPos(fset, fd.Pos()),
				Hotpath: funcIsHotpath(dirs, fset, fd),
			}
			collectFuncBody(fset, fd, info, dirs, fact)
			pf.Funcs[fact.Name] = fact
		}
	}

	collectImpls(pkg, pf)

	scope := pkg.Scope()
	for _, name := range scope.Names() {
		v, ok := scope.Lookup(name).(*types.Var)
		if !ok {
			continue
		}
		if dirs.suppresses("shared", fset.Position(v.Pos())) {
			pf.SharedVars = append(pf.SharedVars, pkg.Path()+"."+name)
		}
	}
	return pf
}

// collectFuncBody walks one function body for call edges and alloc
// constructs. Constructs inside panic arguments are cold by definition
// (the pervasive panic(fmt.Sprintf(...)) guard idiom) and are skipped.
func collectFuncBody(fset *token.FileSet, fd *ast.FuncDecl, info *types.Info,
	dirs *directiveIndex, fact *FuncFact) {
	var cold []token.Pos // sorted Lparen/Rparen pairs of panic calls
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				cold = append(cold, call.Lparen, call.Rparen)
			}
		}
		return true
	})
	inCold := func(p token.Pos) bool {
		for i := 0; i+1 < len(cold); i += 2 {
			if p > cold[i] && p < cold[i+1] {
				return true
			}
		}
		return false
	}
	addAlloc := func(pos token.Pos, what string) {
		if inCold(pos) || dirs.suppresses("allocok", fset.Position(pos)) {
			return
		}
		fact.Allocs = append(fact.Allocs, AllocSite{Pos: srcPos(fset, pos), What: what})
	}

	calls, iface := map[string]bool{}, map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if name := capturedVar(info, fd, n); name != "" {
				addAlloc(n.Pos(), fmt.Sprintf("closure capturing %q", name))
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					addAlloc(n.Pos(), "map literal")
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					if id.Name == "make" {
						if tv, ok := info.Types[n]; ok {
							if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
								addAlloc(n.Pos(), "make(map)")
							}
						}
					}
					return true
				}
			}
			fn := funcObj(info, n)
			if fn == nil {
				return true // builtin, conversion, or call through a func value: no edge
			}
			if fn.Pkg() != nil && allocPkgs[fn.Pkg().Path()] {
				addAlloc(n.Pos(), fmt.Sprintf("%s.%s call", fn.Pkg().Name(), fn.Name()))
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
				types.IsInterface(sig.Recv().Type()) {
				iface[fn.FullName()] = true
			} else {
				calls[fn.FullName()] = true
			}
		}
		return true
	})
	fact.Calls = sortedKeys(calls)
	fact.IfaceCalls = sortedKeys(iface)
}

// collectImpls records, for every named non-interface type of the
// package, which in-module interface methods its method set implements —
// the receiving end of the sound dispatch edges.
func collectImpls(pkg *types.Package, pf *PkgFacts) {
	ifaces := moduleInterfaces(pkg)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		for _, ifaceNamed := range ifaces {
			it, ok := ifaceNamed.Underlying().(*types.Interface)
			if !ok {
				continue
			}
			var impl types.Type
			switch {
			case types.Implements(named, it):
				impl = named
			case types.Implements(ptr, it):
				impl = ptr
			default:
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
				f, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				pf.Impls[m.FullName()] = append(pf.Impls[m.FullName()], f.FullName())
			}
		}
	}
	for m, impls := range pf.Impls { //simlint:sortediter -- each value list is sorted in place; key order irrelevant
		sort.Strings(impls)
		pf.Impls[m] = dedupSorted(impls)
	}
}

// moduleInterfaces gathers every exported-or-not named interface type
// declared in the package or any transitive import sharing its module
// root. Interfaces from other modules (the stdlib) are deliberately out:
// dispatch through them is not simulator spine structure.
func moduleInterfaces(pkg *types.Package) []*types.Named {
	root := moduleRoot(pkg.Path())
	seen := map[*types.Package]bool{}
	var out []*types.Named
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] || moduleRoot(p.Path()) != root {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, named)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	visit(pkg)
	return out
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m { //simlint:sortediter -- sorted below
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func dedupSorted(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// sortDiags orders diagnostics by position then analyzer.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
