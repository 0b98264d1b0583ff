package blob

import (
	"bufio"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Dir is the local-directory Store: one file per key, written atomically
// (unique temp file + rename) so a crash or a failed write mid-put leaves
// the previous blob intact rather than a truncated one. A shared filesystem
// mount makes the same directory a cluster-wide store — this is what the
// 3-node smoke harness runs on.
//
// The on-disk layout is exactly the key as the file name, which keeps it
// byte-compatible with the state directories written by earlier plasmad
// releases ("<id>.snap" files).
type Dir struct {
	root string
}

// NewDir opens (creating if needed) root as a blob store.
func NewDir(root string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &Dir{root: root}, nil
}

// Path returns where key lives on disk (logs and operator tooling; the
// generic Store contract knows nothing about paths).
func (d *Dir) Path(key string) string { return filepath.Join(d.root, key) }

// PutFunc streams what write writes into a unique temp file through a
// buffer, then renames it over key. The temp file gets a leading dot, an
// invalid key byte, so neither a crash nor a failed write can leave a
// half-written blob visible to List; a failed put removes it.
func (d *Dir) PutFunc(key string, write func(io.Writer) error) error {
	if !ValidKey(key) {
		return errInvalidKey(key)
	}
	tmp, err := os.CreateTemp(d.root, "."+key+".tmp*")
	if err != nil {
		return err
	}
	renamed := false
	defer func() {
		if !renamed { // a failed write or a panic in it
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, putBufferSize)
	if err := write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), d.Path(key)); err != nil {
		return err
	}
	renamed = true
	return nil
}

// putBufferSize is PutFunc's write buffer: small writes gather into blocks
// this size, and larger ones go straight to the file.
const putBufferSize = 64 << 10

// Put atomically writes data under key.
func (d *Dir) Put(key string, data []byte) error {
	return d.PutFunc(key, func(w io.Writer) error { _, err := w.Write(data); return err })
}

// Get opens the blob under key for reading.
func (d *Dir) Get(key string) (io.ReadCloser, error) {
	if !ValidKey(key) {
		return nil, errInvalidKey(key)
	}
	f, err := os.Open(d.Path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNotFound
	}
	return f, err
}

// Delete removes the blob under key, reporting whether one existed.
func (d *Dir) Delete(key string) (bool, error) {
	if !ValidKey(key) {
		return false, errInvalidKey(key)
	}
	err := os.Remove(d.Path(key))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	return err == nil, err
}

// List returns the stored keys in lexicographic order. Entries that are
// not valid keys (directories, temp files, strays) are skipped — they can
// never have been written by PutFunc under a valid key.
func (d *Dir) List() ([]string, error) {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !ValidKey(e.Name()) {
			continue
		}
		keys = append(keys, e.Name())
	}
	sort.Strings(keys)
	return keys, nil
}
