package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader reads.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// Load loads and type-checks the packages matching the go-list patterns
// (run in dir), resolving imports through compiled export data from the
// build cache. This is the standalone/test entry point; under
// `go vet -vettool` the toolchain supplies the same information through
// vet.cfg instead (see vet.go).
//
// The loader shells out to `go list -export -deps`, so it needs the go
// tool on PATH — acceptable for a development-time linter, and the only
// way to typecheck against dependency packages without golang.org/x/tools.
func Load(dir string, patterns ...string) ([]*Package, error) {
	pkgs, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	var targets []*listPkg
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	imp := exportImporter(fset, func(path string) string { return exports[path] })

	var out []*Package
	for _, p := range targets {
		if len(p.GoFiles) == 0 {
			continue
		}
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: parse %s: %w", name, err)
			}
			files = append(files, f)
		}
		info := NewInfo()
		tpkg, err := typecheck(fset, p.ImportPath, files, imp, info)
		if err != nil {
			return nil, fmt.Errorf("lint: typecheck %s: %w", p.ImportPath, err)
		}
		out = append(out, &Package{Path: p.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info})
	}
	return out, nil
}

// Report is a standalone run's outcome: the surviving diagnostics plus
// the spine inventory (every hotpath-reachable function, sorted) — the
// list behind `simlint -list-spine`.
type Report struct {
	Diags []Diagnostic
	Spine []string
}

// Run loads the patterns and threads every package, in the dependency
// order `go list -deps` guarantees, through one fact Session, so the
// interprocedural analyzers see cross-package call edges exactly as
// they do under `go vet -vettool`. A whole-module run (the single
// pattern "./...") additionally checks hotpath-annotation drift, which
// only a complete call graph can judge.
func Run(dir string, analyzers []*Analyzer, patterns ...string) (*Report, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	sess := NewSession()
	var diags []Diagnostic
	for _, p := range pkgs {
		diags = append(diags, sess.RunPackage(analyzers, p.Fset, p.Files, p.Types, p.Info)...)
	}
	wholeModule := len(patterns) == 1 && patterns[0] == "./..."
	if wholeModule && hasAnalyzer(analyzers, Spine) {
		diags = append(diags, sess.DriftDiags()...)
	}
	sortDiags(diags)
	return &Report{Diags: diags, Spine: sess.SpineList()}, nil
}

func hasAnalyzer(analyzers []*Analyzer, want *Analyzer) bool {
	for _, a := range analyzers {
		if a == want {
			return true
		}
	}
	return false
}

// goList runs `go list -export -deps -json` and decodes the package
// stream. -export populates each package's build-cache export data file,
// which is what lets the stdlib gc importer resolve dependencies without
// recompiling from source.
func goList(dir string, patterns ...string) ([]*listPkg, error) {
	args := []string{"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,Export,Standard,DepOnly"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list: %w\n%s", err, strings.TrimSpace(stderr.String()))
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter returns a types.Importer that reads gc export data
// files resolved by lookup (import path -> file path). The fallback
// default importer would try to find packages itself and fail for
// module-local ones; the lookup closure pins every import to the exact
// compiled artifact go list (or vet.cfg) named.
func exportImporter(fset *token.FileSet, lookup func(path string) string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := lookup(path)
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// typecheck runs the types checker over one package's files.
func typecheck(fset *token.FileSet, path string, files []*ast.File,
	imp types.Importer, info *types.Info) (*types.Package, error) {
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	return conf.Check(path, fset, files, info)
}
