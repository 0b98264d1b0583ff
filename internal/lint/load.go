package lint

import (
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

// Loader parses and type-checks packages for the analyzers. Imports are
// resolved through gc export data located by `go list -export`, so only the
// package under analysis is ever parsed from source — the toolchain's build
// cache does the heavy lifting and module resolution stays exactly what the
// build uses. This keeps plasmalint stdlib-only (no x/tools dependency)
// without reimplementing module resolution.
type Loader struct {
	Dir  string // module root the go tool runs in
	fset *token.FileSet

	exports map[string]string // import path → export data file
	dirs    map[string]string // import path → source dir
	files   map[string][]string
	pkgs    map[string]*Package // memoized loads
	imp     types.ImporterFrom
	checks  int // parse+type-check runs actually performed
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
}

// NewLoader indexes the module rooted at dir plus the standard library.
// The std roots are listed explicitly so testdata fixture packages may
// import stdlib packages the module itself does not.
func NewLoader(dir string) (*Loader, error) {
	l := &Loader{
		Dir:     dir,
		fset:    token.NewFileSet(),
		exports: make(map[string]string),
		dirs:    make(map[string]string),
		files:   make(map[string][]string),
		pkgs:    make(map[string]*Package),
	}
	out, err := l.goList("-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles", "./...", "std")
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(strings.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: parsing go list output: %w", err)
		}
		if e.Export != "" {
			l.exports[e.ImportPath] = e.Export
		}
		l.dirs[e.ImportPath] = e.Dir
		files := make([]string, 0, len(e.GoFiles))
		for _, f := range e.GoFiles {
			files = append(files, filepath.Join(e.Dir, f))
		}
		l.files[e.ImportPath] = files
	}
	l.imp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(exp)
	}).(types.ImporterFrom)
	return l, nil
}

func (l *Loader) goList(args ...string) (string, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = l.Dir
	var sb, eb strings.Builder
	cmd.Stdout = &sb
	cmd.Stderr = &eb
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("lint: go list: %v\n%s", err, eb.String())
	}
	return sb.String(), nil
}

// Expand resolves package patterns ("./...", import paths) to the module's
// import paths in go list order.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	out, err := l.goList(append([]string{"-json=ImportPath"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var paths []string
	dec := json.NewDecoder(strings.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		paths = append(paths, e.ImportPath)
	}
	return paths, nil
}

// Load type-checks one module package by import path. Results are memoized.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	files, ok := l.files[path]
	if !ok {
		return nil, fmt.Errorf("lint: unknown package %q", path)
	}
	p, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

func (l *Loader) check(path string, filenames []string) (*Package, error) {
	l.checks++
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var firstErr error
	conf := types.Config{
		Importer: l.imp,
		Error: func(err error) {
			// Tolerate type errors: analyzers work off whatever Info was
			// resolvable, and the build tier reports compile errors with
			// better messages than we would.
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if tpkg == nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, firstErr)
	}
	return &Package{
		ImportPath: path,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
