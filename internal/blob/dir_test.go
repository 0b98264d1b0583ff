package blob_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"plasmahd/internal/blob"
	"plasmahd/internal/blob/blobtest"
)

// TestDirConformance runs the full Store conformance suite against the
// local-directory implementation.
func TestDirConformance(t *testing.T) {
	blobtest.Run(t, func(t *testing.T) blob.Store {
		d, err := blob.NewDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return d
	})
}

// TestDirLayoutCompat pins the on-disk layout: the key IS the file name,
// so state directories written by earlier plasmad releases ("<id>.snap")
// read back unchanged, and vice versa.
func TestDirLayoutCompat(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "s7.snap"), []byte("legacy"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := blob.NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := d.List()
	if err != nil || len(keys) != 1 || keys[0] != "s7.snap" {
		t.Fatalf("List = (%v, %v), want [s7.snap]", keys, err)
	}
	if err := d.Put("s8.snap", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(filepath.Join(root, "s8.snap")); err != nil || string(data) != "new" {
		t.Fatalf("Put did not land at <root>/<key>: %q, %v", data, err)
	}
}

// TestDirIgnoresStrayTempFiles: a crash mid-put leaves a hidden temp file;
// it must never surface as a key.
func TestDirIgnoresStrayTempFiles(t *testing.T) {
	root := t.TempDir()
	d, err := blob.NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, ".s1.snap.tmp123"), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("s1.snap", []byte("whole")); err != nil {
		t.Fatal(err)
	}
	keys, err := d.List()
	if err != nil || len(keys) != 1 || keys[0] != "s1.snap" {
		t.Fatalf("List = (%v, %v), want only s1.snap", keys, err)
	}
}

// TestDirFailedPutLeavesNoTempFile: a put whose write fails, or panics,
// removes its temp file, so failed spills do not pile up on disk.
func TestDirFailedPutLeavesNoTempFile(t *testing.T) {
	root := t.TempDir()
	d, err := blob.NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	half := func(w io.Writer) error {
		_, err := w.Write(make([]byte, 100_000))
		return err
	}
	if err := d.PutFunc("s1.snap", func(w io.Writer) error {
		if err := half(w); err != nil {
			return err
		}
		return errors.New("encode failed")
	}); err == nil {
		t.Fatal("a failing write func was stored")
	}
	func() {
		defer func() { _ = recover() }()
		_ = d.PutFunc("s2.snap", func(w io.Writer) error {
			_ = half(w)
			panic("encoder bug")
		})
	}()
	if entries, err := os.ReadDir(root); err != nil || len(entries) != 0 {
		t.Fatalf("after failed puts the directory holds %v (%v), want nothing", entries, err)
	}
}
