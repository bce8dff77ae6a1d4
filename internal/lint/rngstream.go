package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RNGStream enforces the simulator's RNG-stream ownership discipline, so
// the deterministic draw order survives engines running concurrently on
// the grid worker pool. Every *sim.RNG is an owned stream: components
// receive their own via Split() at construction and draw from it
// single-threadedly. The analyzer flags the three ways a stream leaks
// into shared or concurrent hands (module-wide):
//
//   - a package-level variable whose type contains *sim.RNG — one
//     stream visible to every Engine in the process;
//   - a *sim.RNG passed into a goroutine (as a `go` argument, a method
//     receiver, or a closure capture) — concurrent draws race and
//     scramble replay order;
//   - a *sim.RNG function parameter stored into an existing struct's
//     field or a package variable — the callee aliases the caller's
//     stream, so two owners now interleave draws. Constructing a fresh
//     value around the parameter (a composite literal, the constructor
//     idiom where ownership transfers) is sanctioned; so is storing the
//     result of rng.Split(), which mints a new stream.
//
// Justified exceptions carry //simlint:rngok -- <why>.
var RNGStream = &Analyzer{
	Name:      "rngstream",
	Doc:       "flags *sim.RNG streams in package state, shared fields, or goroutines",
	Directive: "rngok",
	Run:       runRNGStream,
}

func runRNGStream(pass *Pass) {
	if !moduleOnly(pass.Pkg.Path()) {
		return
	}

	for _, f := range pass.Files {
		// Package-level state containing a stream.
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					v, ok := pass.Info.Defs[name].(*types.Var)
					if !ok || !containsRNG(v.Type(), nil) {
						continue
					}
					pass.Reportf(name.Pos(),
						"give each component an owned stream via rng.Split() at construction; package-level streams are shared by every Engine",
						"package-level var %s holds a *sim.RNG stream (shared draw order)", name.Name)
				}
			}
		}

		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkRNGFunc(pass, fd)
		}
	}
}

func checkRNGFunc(pass *Pass, fd *ast.FuncDecl) {
	// The function's own *sim.RNG parameters: the streams it borrows but
	// does not own.
	params := map[types.Object]bool{}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil && isRNGPtr(pass.Info, obj.Type()) {
					params[obj] = true
				}
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			checkGoStmt(pass, fd, n)
		case *ast.AssignStmt:
			if len(params) == 0 || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				id, ok := ast.Unparen(rhs).(*ast.Ident)
				if !ok || !params[pass.Info.Uses[id]] {
					continue
				}
				if storesToSharedPlace(pass.Info, n.Lhs[i]) {
					pass.Reportf(rhs.Pos(),
						"store rng.Split() instead: the field then owns a fresh stream instead of aliasing the caller's",
						"*sim.RNG parameter %q stored into shared state aliases the caller's stream (two owners interleave draws)",
						id.Name)
				}
			}
		}
		return true
	})
}

// checkGoStmt flags streams crossing into a goroutine: via arguments,
// via the receiver of a method call, or via closure capture.
func checkGoStmt(pass *Pass, fd *ast.FuncDecl, g *ast.GoStmt) {
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos,
			"keep each stream inside one goroutine; hand workers their own Split() streams before the go statement",
			"*sim.RNG %s into a goroutine: concurrent draws scramble the deterministic replay order", what)
	}
	for _, arg := range g.Call.Args {
		if tv, ok := pass.Info.Types[arg]; ok && containsRNG(tv.Type, nil) {
			report(arg.Pos(), "passed")
		}
	}
	if sel, ok := ast.Unparen(g.Call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := pass.Info.Types[sel.X]; ok && containsRNG(tv.Type, nil) {
			report(sel.X.Pos(), "is the receiver of a call launched")
		}
	}
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pass.Info.Uses[id].(*types.Var)
			if !ok || v.IsField() || !containsRNG(v.Type(), nil) {
				return true
			}
			// Captured from the enclosing function (not declared in the
			// literal itself, not package-level — that is rule one).
			if v.Pos() >= fd.Pos() && v.Pos() < fd.End() &&
				!(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
				report(id.Pos(), "captured by a closure launched")
			}
			return true
		})
	}
}

// storesToSharedPlace reports whether an lvalue is a struct field of an
// existing value or a package-level variable — the destinations where a
// stored stream outlives the call and gains a second owner.
func storesToSharedPlace(info *types.Info, lhs ast.Expr) bool {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
				return true
			}
		}
		// pkg.Var qualified reference.
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && isPkgLevel(v) {
			return true
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && isPkgLevel(v) {
			return true
		}
	}
	return false
}

// isRNGPtr reports whether t is exactly *sim.RNG.
func isRNGPtr(info *types.Info, t types.Type) bool {
	return isNamedPtr(t, "repro/internal/sim", "RNG")
}

// containsRNG reports whether a value of type t holds (directly or
// through struct fields, arrays, slices, maps, or pointers) a *sim.RNG.
func containsRNG(t types.Type, seen map[types.Type]bool) bool {
	if isNamedPtr(t, "repro/internal/sim", "RNG") {
		return true
	}
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsRNG(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Pointer:
		return containsRNG(u.Elem(), seen)
	case *types.Slice:
		return containsRNG(u.Elem(), seen)
	case *types.Array:
		return containsRNG(u.Elem(), seen)
	case *types.Map:
		return containsRNG(u.Key(), seen) || containsRNG(u.Elem(), seen)
	}
	return false
}
