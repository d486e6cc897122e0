// Package load turns Go package patterns into type-checked
// analysis.Package values without any dependency outside the standard
// library.
//
// It shells out to `go list -e -export -deps -json`, which makes the go
// tool compile export data for every dependency (standard library
// included) into the build cache and report the file paths. The
// packages matched by the patterns themselves are then parsed from
// source and type-checked with go/types, resolving imports through the
// gc importer pointed at that export map. This is the same division of
// labor as golang.org/x/tools/go/packages in LoadAllSyntax mode for the
// root packages and LoadTypes mode for dependencies — rebuilt on the
// standard library because this module builds hermetically, with no
// module proxy access.
package load

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
	"sort"

	"udm/internal/analysis"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *listError
}

type listError struct {
	Pos string
	Err string
}

// Packages runs `go list` over the patterns, resolved relative to dir
// (the module to analyze), then parses and type-checks every matched
// package. Test files are not loaded: the project's contracts bind
// library code, and tests are free to use context.Background, fixed
// seeds, and string matching as they please. Packages come back sorted
// by import path and share one FileSet.
func Packages(dir string, patterns ...string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	// Export data for every package in the dependency closure, keyed by
	// import path, for the gc importer's lookup function.
	exports := make(map[string]string, len(listed))
	var targets []*listPackage
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(file)
	})
	pkgs := make([]*analysis.Package, 0, len(targets))
	for _, p := range targets {
		pkg, err := check(fset, imp, p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// check parses and type-checks one listed package.
func check(fset *token.FileSet, imp types.Importer, p *listPackage) (*analysis.Package, error) {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", p.ImportPath, err)
	}
	return &analysis.Package{
		PkgPath:   p.ImportPath,
		Dir:       p.Dir,
		Fset:      fset,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// goList runs `go list` in dir and decodes its JSON stream.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := []string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Error",
		"--",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load: go list: %w\n%s", err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
