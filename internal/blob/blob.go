// Package blob defines the shared-storage interface plasmad persistence
// rides on. A Store is a flat keyspace of byte blobs — session snapshots,
// in practice — that every node of a cluster can reach: eviction spill,
// transparent revival, warm boot, and explicit persists all go through it,
// so any node can revive any session regardless of where it was created.
//
// The local state directory (Dir) is the first implementation; the
// interface is deliberately minimal (PutFunc/Get/Delete/List) so an S3-style
// backend can plug in behind the same four calls. New implementations are
// validated against the conformance suite in the blobtest subpackage.
package blob

import (
	"errors"
	"fmt"
	"io"
)

// ErrNotFound is returned by Get for keys with no blob.
var ErrNotFound = errors.New("blob: key not found")

// Store is a flat keyspace of byte blobs shared by every node that mounts
// the same backing storage.
//
// Implementations must guarantee:
//   - PutFunc is atomic: a concurrent Get (from this or another process)
//     observes either the previous blob or the new one in full, never a
//     torn mix, even if the writer crashes mid-put.
//   - A put whose write func fails stores nothing: the previous blob under
//     the key, if any, stays readable in full, and List shows no new key.
//   - All methods are safe for concurrent use by multiple goroutines and
//     multiple processes sharing the backing storage.
//   - Keys must satisfy ValidKey; operations on invalid keys fail with an
//     error rather than touching storage.
type Store interface {
	// PutFunc atomically stores under key what write writes to the
	// writer it is given, replacing any existing blob once write returns
	// nil. The bytes stream to storage as they are written, so a blob never
	// has to sit whole in memory. If write returns an error, PutFunc
	// returns it and stores nothing.
	PutFunc(key string, write func(io.Writer) error) error
	// Get returns a reader over the blob stored under key, or ErrNotFound.
	// The caller must Close the reader.
	Get(key string) (io.ReadCloser, error)
	// Delete removes the blob under key. It reports whether a blob was
	// actually removed; deleting an absent key is (false, nil), not an
	// error, so callers can distinguish "gone now" from "never there".
	Delete(key string) (removed bool, err error)
	// List returns every stored key in lexicographic order.
	List() ([]string, error)
}

// ValidKey reports whether key is usable with any Store: 1-255 bytes of
// [A-Za-z0-9._-], not beginning with a dot. The character set keeps keys
// portable across backends (safe as file names, object keys, and URL path
// segments); the no-leading-dot rule reserves hidden names for backend
// internals such as Dir's temporary files.
func ValidKey(key string) bool {
	if len(key) == 0 || len(key) > 255 || key[0] == '.' {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// errInvalidKey builds the uniform invalid-key error.
func errInvalidKey(key string) error {
	return fmt.Errorf("blob: invalid key %q", key)
}
