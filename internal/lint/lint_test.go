package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// ---- shared loader (go list once per test process) ----

var (
	loaderOnce sync.Once
	testLoader *Loader
	loaderErr  error
)

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/lint → repo root
}

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	root := repoRoot(t)
	loaderOnce.Do(func() { testLoader, loaderErr = NewLoader(root) })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return testLoader
}

// loadDir type-checks an out-of-module directory of Go files — the golden
// fixture packages under testdata, which the go tool refuses to list. The
// synthetic import path is the directory path itself.
func loadDir(l *Loader, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return l.check(dir, files)
}

// ---- golden fixture harness ----

// want is one expected finding, declared in fixture source as
//
//	… // want "message substring"
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

type want struct {
	file string
	line int
	sub  string
	hit  bool
}

func collectWants(t *testing.T, dir string) []*want {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		for line := 1; sc.Scan(); line++ {
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				wants = append(wants, &want{file: e.Name(), line: line, sub: m[1]})
			}
		}
	}
	return wants
}

// runGolden loads a fixture package, runs one analyzer through Lint, and
// matches findings
// against the fixture's want comments — both directions: every finding
// needs a want, every want a finding.
func runGolden(t *testing.T, az *Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loadDir(sharedLoader(t), abs)
	if err != nil {
		t.Fatalf("loadDir(%s): %v", dir, err)
	}
	findings := Lint([]*Package{pkg}, []*Analyzer{az})
	wants := collectWants(t, dir)
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.hit && filepath.Base(f.Pos.Filename) == w.file &&
				f.Pos.Line == w.line && strings.Contains(f.Message, w.sub) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("missing finding at %s:%d matching %q", w.file, w.line, w.sub)
		}
	}
}

// Fixture-local configs: the fixture's synthetic import path is its
// directory, so package patterns match by suffix and file patterns by
// base name.

func TestMapiterGolden(t *testing.T) {
	runGolden(t, NewMapiter(MapiterConfig{Packages: []string{"src/mapiter"}}), "mapiter")
}

func TestAtomicmixGolden(t *testing.T) {
	runGolden(t, NewAtomicmix(), "atomicmix")
}

func TestPreallocGolden(t *testing.T) {
	runGolden(t, NewPrealloc(PreallocConfig{Files: []string{"prealloc/decode.go"}}), "prealloc")
}

func TestHTTPErrGolden(t *testing.T) {
	runGolden(t, NewHTTPErr(HTTPErrConfig{
		Packages:   []string{"src/httperr"},
		AllowFuncs: []string{"writeJSON", "writeError"},
	}), "httperr")
}

// ---- loader tests ----

// TestLoaderSingleCheck asserts the load-once contract: every package is
// parsed and type-checked exactly once no matter how many times it is
// requested or how many analyzers consume it — the analyzers share one
// types.Info/AST per package.
func TestLoaderSingleCheck(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/core/a.go":   "package core\n\nfunc A() int { return 1 }\n",
		"internal/server/b.go": "package server\n\nfunc B() int { return 2 }\n",
	})
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("Expand = %v, want 2 packages", paths)
	}
	var pkgs []*Package
	for round := 0; round < 2; round++ {
		for _, path := range paths {
			pkg, err := loader.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				pkgs = append(pkgs, pkg)
			}
		}
	}
	Lint(pkgs, DefaultAnalyzers())
	// Every analyzer shares one load: no package is parsed and
	// type-checked twice.
	if got := loader.checks; got != len(paths) {
		t.Errorf("loader ran %d parse+type-check passes for %d packages; loads are not shared", got, len(paths))
	}
}

// ---- end-to-end driver tests ----

// buildLint builds the plasmalint binary once for subprocess tests.
var (
	lintBinOnce sync.Once
	lintBin     string
	lintBinErr  error
)

func plasmalintBin(t *testing.T) string {
	t.Helper()
	lintBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "plasmalint")
		if err != nil {
			lintBinErr = err
			return
		}
		lintBin = filepath.Join(dir, "plasmalint")
		cmd := exec.Command("go", "build", "-o", lintBin, "./cmd/plasmalint")
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			lintBinErr = fmt.Errorf("build: %v\n%s", err, out)
		}
	})
	if lintBinErr != nil {
		t.Fatal(lintBinErr)
	}
	return lintBin
}

// writeModule materializes a throwaway module that reuses the production
// module path, so the default analyzer configuration applies to it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module plasmahd\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestDriverEndToEnd runs the built plasmalint binary over a fixture
// module containing one violation per analyzer and asserts the exit code
// and the output shape: every line "file:line: [analyzer] message", every
// analyzer represented, deterministic order.
func TestDriverEndToEnd(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/core/bad.go": `package core

func curve(m map[uint64]float64) float64 {
	var est float64
	for _, p := range m {
		est += p
	}
	return est
}
`,
		"internal/core/race.go": `package core

import "sync/atomic"

type stats struct{ n int64 }

func (s *stats) bump() { atomic.AddInt64(&s.n, 1) }
`,
		"internal/bayeslsh/snapshot.go": `package bayeslsh

func decodeRows(n uint32) []float64 {
	return make([]float64, n)
}
`,
		"internal/server/handlers.go": `package server

import "net/http"

func handle(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "nope", http.StatusNotFound)
}
`,
	})
	cmd := exec.Command(plasmalintBin(t), "./...")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit = %v, want exit status 1\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
	}

	lineRe := regexp.MustCompile(`^[^:\s]+\.go:\d+: \[(mapiter|atomicmix|prealloc|httperr)\] .+$`)
	seen := map[string]bool{}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	for _, line := range lines {
		m := lineRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("output line %q does not match file:line: [analyzer] message", line)
			continue
		}
		seen[m[1]] = true
	}
	for _, az := range []string{"mapiter", "atomicmix", "prealloc", "httperr"} {
		if !seen[az] {
			t.Errorf("no finding from %s in output:\n%s", az, &stdout)
		}
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr %q missing findings summary", stderr.String())
	}
}

// TestDriverCleanModule pins the zero-exit path.
func TestDriverCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/core/ok.go": `package core

import (
	"maps"
	"slices"
)

func keys(m map[string]int) []string {
	return slices.Sorted(maps.Keys(m))
}
`,
	})
	cmd := exec.Command(plasmalintBin(t), "./...")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("clean module: exit %v\n%s", err, out)
	}
}

// TestRepoTreeClean is the merge gate in test form: the production suite
// over the production tree must report nothing.
func TestRepoTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree lint is covered by make lint / ci tier 1b")
	}
	var stdout, stderr bytes.Buffer
	if code := Main(repoRoot(t), []string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("plasmalint over the repo tree exited %d:\n%s%s", code, &stdout, &stderr)
	}
}
