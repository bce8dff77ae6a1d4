package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SharedState audits the state that concurrently running engines could
// share: the grid worker pool runs one Engine per goroutine, so every
// piece of mutable state reachable from more than one Engine must be
// known. The analyzer flags, in the sim-core packages plus the
// experiment harness:
//
//   - package-level variables of mutable type (anything holding a
//     pointer, slice, map, or channel), and immutable-typed ones the
//     package itself writes after initialization;
//   - writes to another module package's package-level variables
//     (cross-package escape), unless the target's own package annotated
//     the variable //simlint:shared (carried through the facts).
//
// Effectively-constant globals — basic/func/interface-typed (or structs
// and arrays thereof) that no code ever writes — are clean: they are
// initialization-time configuration, not shared mutable state. Every
// finding must be fixed, confined to a per-Engine/per-Network instance,
// or justified with //simlint:shared -- <why>.
var SharedState = &Analyzer{
	Name:      "sharedstate",
	Doc:       "flags mutable package-level state in sim-core packages (concurrent-engine audit)",
	Directive: "shared",
	Run:       runSharedState,
}

// sharedScope is the audit's package set: the sim-core packages plus
// the harness, whose registry and experiment tables sit directly above
// the engines its worker pool runs concurrently.
func sharedScope(path string) bool {
	return corePackages[path] || path == "repro/internal/harness"
}

func runSharedState(pass *Pass) {
	if !sharedScope(pass.Pkg.Path()) {
		return
	}

	writes := map[types.Object][]token.Pos{}
	noteWrite := func(expr ast.Expr, pos token.Pos) {
		if obj := rootVar(pass.Info, expr); obj != nil {
			writes[obj] = append(writes[obj], pos)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range n.Lhs {
					noteWrite(lhs, n.TokPos)
				}
			case *ast.IncDecStmt:
				noteWrite(n.X, n.TokPos)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					// Address taken: the variable may be written through
					// the alias; treat it as mutable.
					noteWrite(n.X, n.OpPos)
				}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					noteWrite(n.Key, n.TokPos)
					noteWrite(n.Value, n.TokPos)
				}
			}
			return true
		})
	}

	// Package-level variable declarations.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue // compile-time interface assertions and the like
					}
					v, ok := pass.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					written := len(writes[v]) > 0
					if !written && immutableType(v.Type(), nil) {
						continue
					}
					reason := "has mutable type " + types.TypeString(v.Type(), types.RelativeTo(pass.Pkg))
					if written {
						reason = "is written by package code"
					}
					pass.Reportf(name.Pos(),
						"confine the state to a per-Engine/per-Network instance, make it immutable, or justify with //simlint:shared -- <why sharing is sound>",
						"package-level var %s %s: shared state visible to every Engine in the process", name.Name, reason)
				}
			}
		}
	}

	// Cross-package escapes: writes whose target is another module
	// package's package-level variable.
	for obj, positions := range writes { //simlint:sortediter -- diagnostics are position-sorted by the runner
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() == nil || v.Pkg() == pass.Pkg || !isPkgLevel(v) {
			continue
		}
		if moduleRoot(v.Pkg().Path()) != moduleRoot(pass.Pkg.Path()) {
			continue
		}
		if pass.sess != nil && pass.sess.sharedOK(v.Pkg().Path(), v.Name()) {
			continue
		}
		for _, pos := range positions {
			pass.Reportf(pos,
				"route the mutation through an owning instance's API, or have the owning package justify the variable with //simlint:shared",
				"write to package-level var %s.%s from outside its package (cross-package shared state)",
				v.Pkg().Name(), v.Name())
		}
	}
}

// sharedOK reports whether a package's facts carry an //simlint:shared
// annotation for the named package-level variable.
func (s *Session) sharedOK(pkgPath, name string) bool {
	pf := s.pkgs[pkgPath]
	if pf == nil {
		return false
	}
	qualified := pkgPath + "." + name
	for _, sv := range pf.SharedVars {
		if sv == qualified {
			return true
		}
	}
	return false
}

// isPkgLevel reports whether a variable is declared at package scope.
func isPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// rootVar peels selectors/indexes/derefs off an lvalue and resolves the
// base identifier's object: the variable a write ultimately mutates.
func rootVar(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			if v, ok := info.Uses[e].(*types.Var); ok {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			// A qualified package reference (pkg.Var) resolves through the
			// selected identifier, not the package name.
			if _, isPkg := info.Uses[rootIdent(e.X)].(*types.PkgName); isPkg {
				if v, ok := info.Uses[e.Sel].(*types.Var); ok {
					return v
				}
				return nil
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

func rootIdent(expr ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(expr).(*ast.Ident)
	return id
}

// immutableType reports whether a type cannot be mutated in place:
// basics, funcs and interfaces (mutable only by rebinding, which the
// write scan catches), and structs/arrays composed of such. Anything
// with reference semantics — pointers, slices, maps, channels — is
// mutable shared state when it sits at package level.
func immutableType(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return true // recursive named type: judged by its other fields
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return true
	case *types.Signature:
		return true
	case *types.Interface:
		return true
	case *types.Struct:
		if seen == nil {
			seen = map[types.Type]bool{}
		}
		seen[t] = true
		for i := 0; i < u.NumFields(); i++ {
			if !immutableType(u.Field(i).Type(), seen) {
				return false
			}
		}
		return true
	case *types.Array:
		return immutableType(u.Elem(), seen)
	}
	return false
}
