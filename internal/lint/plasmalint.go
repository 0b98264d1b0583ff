package lint

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// Default analyzer configuration: the invariants this repo has shipped
// bugfixes for, scoped to the code that carries them. The golden tests
// exercise the analyzers against fixture packages with fixture-local
// configs; this block is the production wiring.
var (
	// determinismPkgs are the packages whose outputs must be bit-identical
	// run to run (the differential ingest harness compares them exactly).
	determinismPkgs = []string{
		"plasmahd/internal/bayeslsh",
		"plasmahd/internal/core",
		"plasmahd/internal/experiments",
		"plasmahd/internal/lam",
		"plasmahd/internal/itemset",
	}
	// decodeFiles are the codec files that parse untrusted bytes. New
	// codec files must be added here.
	decodeFiles = []string{
		"internal/wire/wire.go",
		"internal/bayeslsh/snapshot.go",
		"internal/server/rowscan.go",
	}
	serverPkgs = []string{"plasmahd/internal/server"}
	// envelopeFuncs implement the JSON error envelope and may touch the
	// ResponseWriter directly.
	envelopeFuncs = []string{"writeJSON", "writeError"}
)

// DefaultAnalyzers returns the production analyzer suite — all four.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewMapiter(MapiterConfig{Packages: determinismPkgs}),
		NewAtomicmix(),
		NewPrealloc(PreallocConfig{Files: decodeFiles}),
		NewHTTPErr(HTTPErrConfig{Packages: serverPkgs, AllowFuncs: envelopeFuncs}),
	}
}

// Main is the plasmalint driver: load every package matching the patterns
// (default ./...) exactly once, run the suite over them, and print
// findings as "file:line: [analyzer] message". Exit status: 0 clean,
// 1 findings, 2 usage or load failure.
func Main(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plasmalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: plasmalint [-only analyzers] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers := DefaultAnalyzers()
	if *only != "" {
		sel := make(map[string]bool)
		for _, n := range strings.Split(*only, ",") {
			sel[strings.TrimSpace(n)] = true
		}
		var keep []*Analyzer
		for _, az := range analyzers {
			if sel[az.Name] {
				keep = append(keep, az)
				delete(sel, az.Name)
			}
		}
		for n := range sel {
			fmt.Fprintf(stderr, "plasmalint: unknown analyzer %q\n", n)
			return 2
		}
		analyzers = keep
	}

	loader, err := NewLoader(dir)
	if err != nil {
		fmt.Fprintf(stderr, "plasmalint: %v\n", err)
		return 2
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "plasmalint: %v\n", err)
		return 2
	}
	var pkgs []*Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "plasmalint: %v\n", err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}
	all := Lint(pkgs, analyzers)
	for _, f := range all {
		f.Pos.Filename = relPath(dir, f.Pos.Filename)
		fmt.Fprintln(stdout, f.String())
	}
	if len(all) > 0 {
		fmt.Fprintf(stderr, "plasmalint: %d finding(s)\n", len(all))
		return 1
	}
	return 0
}

func relPath(dir, name string) string {
	if rel, err := filepath.Rel(dir, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}
