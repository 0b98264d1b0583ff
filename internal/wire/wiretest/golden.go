// Package wiretest holds the golden-stream check every wire format's tests
// share: checked-in streams, named by format version, that the current code
// must still decode and re-encode byte for byte.
package wiretest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Format describes one versioned wire format to Golden.
type Format struct {
	Name         string // golden files are testdata/golden/<Name>-v<version>-*
	Version      int    // the current version
	VersionConst string // the constant to bump, named in failures
	// Sums pins each golden file's SHA-256 by base name: a golden is a
	// record of what a released encoder wrote and is never edited in place.
	Sums map[string]string
	// Recode decodes a stream and encodes the result again.
	Recode func(data []byte) ([]byte, error)
	// ErrVersion is what Recode returns for a version it no longer reads.
	ErrVersion error
}

// Files returns the golden streams under testdata/golden whose base name
// matches the glob, keyed by base name; fuzz targets seed from it.
func Files(t testing.TB, glob string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", glob))
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(p)] = data
	}
	return files
}

// Golden is the layout-drift guard. Every golden of the current version
// must decode and re-encode to identical bytes, so a layout change that
// does not bump the version constant fails here; every golden of another
// version must still decode or be refused with ErrVersion; and no golden's
// bytes may change under its name.
func Golden(t *testing.T, f Format) {
	t.Helper()
	current := 0
	for name, data := range Files(t, f.Name+"-v*") {
		var version int
		if _, err := fmt.Sscanf(name, f.Name+"-v%d-", &version); err != nil {
			t.Errorf("%s: golden names are %s-v<version>-<what>: %v", name, f.Name, err)
			continue
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != f.Sums[name] {
			t.Errorf("%s: bytes changed (sha256 %s) under an unchanged name: a new layout needs a bump of %s and a new golden, never an edit of an old one",
				name, got, f.VersionConst)
		}
		out, err := f.Recode(data)
		if version != f.Version {
			if err != nil && !errors.Is(err, f.ErrVersion) {
				t.Errorf("%s: a v%d stream must decode or be refused with %v, got: %v", name, version, f.ErrVersion, err)
			}
			continue
		}
		current++
		if err != nil {
			t.Errorf("%s no longer decodes, so the layout changed while %s is still %d: %v", name, f.VersionConst, f.Version, err)
		} else if !bytes.Equal(out, data) {
			t.Errorf("%s re-encodes to different bytes (%d vs %d), so the layout changed while %s is still %d",
				name, len(out), len(data), f.VersionConst, f.Version)
		}
	}
	if current == 0 {
		t.Errorf("no testdata/golden/%s-v%d-* file: %s was bumped without adding a golden written by the new encoder",
			f.Name, f.Version, f.VersionConst)
	}
}
