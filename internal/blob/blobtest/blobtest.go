// Package blobtest is the reusable conformance suite for blob.Store
// implementations. The local-directory store passes it today; an S3-style
// backend plugs in by calling Run with its own constructor — the suite
// encodes the contract (atomic streaming put, a failed put that stores
// nothing, typed not-found, ordered List, concurrent safety) that plasmad's
// persistence layer assumes.
package blobtest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"plasmahd/internal/blob"
)

// Run exercises every Store contract against a fresh store from open.
// open is called once per subtest, so implementations get an isolated
// namespace each time (e.g. a fresh temp dir).
func Run(t *testing.T, open func(t *testing.T) blob.Store) {
	t.Run("PutGetRoundTrip", func(t *testing.T) { testPutGetRoundTrip(t, open(t)) })
	t.Run("Overwrite", func(t *testing.T) { testOverwrite(t, open(t)) })
	t.Run("GetMissing", func(t *testing.T) { testGetMissing(t, open(t)) })
	t.Run("DeleteThenGet", func(t *testing.T) { testDeleteThenGet(t, open(t)) })
	t.Run("ListOrdering", func(t *testing.T) { testListOrdering(t, open(t)) })
	t.Run("InvalidKeys", func(t *testing.T) { testInvalidKeys(t, open(t)) })
	t.Run("ConcurrentPutGet", func(t *testing.T) { testConcurrentPutGet(t, open(t)) })
	t.Run("FailedPutStoresNothing", func(t *testing.T) { testFailedPutStoresNothing(t, open(t)) })
	t.Run("GetDuringStreamingPut", func(t *testing.T) { testGetDuringStreamingPut(t, open(t)) })
}

// put stores data under key in one write.
func put(s blob.Store, key string, data []byte) error {
	return s.PutFunc(key, func(w io.Writer) error { _, err := w.Write(data); return err })
}

func get(t *testing.T, s blob.Store, key string) []byte {
	t.Helper()
	rc, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("Get(%q): read: %v", key, err)
	}
	return data
}

func testPutGetRoundTrip(t *testing.T, s blob.Store) {
	blobs := map[string][]byte{
		"s1.snap":     []byte("alpha"),
		"s2.snap":     bytes.Repeat([]byte{0x00, 0xFF, 0x7E}, 4096), // binary-safe
		"weird-.key_": {},                                           // empty blob is a valid blob
	}
	for k, v := range blobs {
		if err := put(s, k, v); err != nil {
			t.Fatalf("put(%q): %v", k, err)
		}
	}
	for k, v := range blobs {
		if got := get(t, s, k); !bytes.Equal(got, v) {
			t.Errorf("Get(%q) = %d bytes, want %d (content differs)", k, len(got), len(v))
		}
	}
}

func testOverwrite(t *testing.T, s blob.Store) {
	if err := put(s, "k", []byte("first version, longer")); err != nil {
		t.Fatal(err)
	}
	if err := put(s, "k", []byte("second")); err != nil {
		t.Fatal(err)
	}
	if got := get(t, s, "k"); string(got) != "second" {
		t.Errorf("after overwrite Get = %q, want %q (no truncation leftovers)", got, "second")
	}
}

func testGetMissing(t *testing.T, s blob.Store) {
	if _, err := s.Get("never-written"); !errors.Is(err, blob.ErrNotFound) {
		t.Errorf("Get(missing) = %v, want blob.ErrNotFound", err)
	}
}

func testDeleteThenGet(t *testing.T, s blob.Store) {
	if err := put(s, "doomed", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if removed, err := s.Delete("doomed"); err != nil || !removed {
		t.Fatalf("Delete(existing) = (%v, %v), want (true, nil)", removed, err)
	}
	if _, err := s.Get("doomed"); !errors.Is(err, blob.ErrNotFound) {
		t.Errorf("Get after Delete = %v, want blob.ErrNotFound", err)
	}
	if removed, err := s.Delete("doomed"); err != nil || removed {
		t.Errorf("Delete(absent) = (%v, %v), want (false, nil)", removed, err)
	}
}

func testListOrdering(t *testing.T, s blob.Store) {
	if keys, err := s.List(); err != nil || len(keys) != 0 {
		t.Fatalf("List on empty store = (%v, %v), want ([], nil)", keys, err)
	}
	// Inserted out of order; List must return lexicographic order.
	for _, k := range []string{"s9.snap", "s1.snap", "s10.snap", "a.snap"} {
		if err := put(s, k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a.snap", "s1.snap", "s10.snap", "s9.snap"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("List = %v, want %v", keys, want)
	}
	if _, err := s.Delete("s9.snap"); err != nil {
		t.Fatal(err)
	}
	keys, _ = s.List()
	if !reflect.DeepEqual(keys, want[:3]) {
		t.Errorf("List after delete = %v, want %v", keys, want[:3])
	}
}

func testInvalidKeys(t *testing.T, s blob.Store) {
	bad := []string{"", "a/b", "../escape", ".hidden", "nul\x00byte", "sp ace",
		string(bytes.Repeat([]byte{'k'}, 256))}
	for _, k := range bad {
		if err := put(s, k, []byte("x")); err == nil {
			t.Errorf("PutFunc(%q) accepted an invalid key", k)
		}
		if _, err := s.Get(k); err == nil || errors.Is(err, blob.ErrNotFound) {
			t.Errorf("Get(%q) = %v, want an invalid-key error", k, err)
		}
		if _, err := s.Delete(k); err == nil {
			t.Errorf("Delete(%q) accepted an invalid key", k)
		}
	}
	// None of the rejected operations may have created anything.
	if keys, err := s.List(); err != nil || len(keys) != 0 {
		t.Errorf("List after invalid-key ops = (%v, %v), want ([], nil)", keys, err)
	}
}

// testConcurrentPutGet hammers one key with concurrent writers and readers:
// every read must observe exactly one writer's blob in full (atomic put),
// never a torn mix of two.
func testConcurrentPutGet(t *testing.T, s blob.Store) {
	const writers, readers, rounds = 4, 4, 25
	value := func(w, round int) []byte {
		return bytes.Repeat([]byte{byte('A' + w)}, 1024+round) // length encodes the round
	}
	if err := put(s, "hot", value(0, 0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if err := put(s, "hot", value(w, round)); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				data := get(t, s, "hot")
				if len(data) == 0 {
					errc <- fmt.Errorf("reader %d: empty blob", r)
					return
				}
				for _, b := range data {
					if b != data[0] {
						errc <- fmt.Errorf("reader %d: torn blob: %q and %q interleaved", r, data[0], b)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// testFailedPutStoresNothing: a put whose write func fails after streaming
// some bytes returns that error and stores nothing — the previous blob
// reads back in full, a fresh key stays absent, and List shows no
// temporary or partial key.
func testFailedPutStoresNothing(t *testing.T, s blob.Store) {
	old := bytes.Repeat([]byte("old"), 10_000)
	if err := put(s, "k", old); err != nil {
		t.Fatal(err)
	}
	writeErr := errors.New("encoder failed")
	failing := func(w io.Writer) error {
		for i := 0; i < 8; i++ {
			if _, err := w.Write(bytes.Repeat([]byte{'N'}, 16<<10)); err != nil {
				return err
			}
		}
		return writeErr
	}
	for _, key := range []string{"k", "fresh"} {
		if err := s.PutFunc(key, failing); !errors.Is(err, writeErr) {
			t.Fatalf("PutFunc(%q) with a failing write = %v, want its error", key, err)
		}
	}
	if got := get(t, s, "k"); !bytes.Equal(got, old) {
		t.Errorf("after a failed put Get = %d bytes, want the previous %d in full", len(got), len(old))
	}
	if _, err := s.Get("fresh"); !errors.Is(err, blob.ErrNotFound) {
		t.Errorf("Get of a key whose only put failed = %v, want blob.ErrNotFound", err)
	}
	if keys, err := s.List(); err != nil || !reflect.DeepEqual(keys, []string{"k"}) {
		t.Errorf("List after failed puts = (%v, %v), want ([k], nil)", keys, err)
	}
}

// testGetDuringStreamingPut holds a streaming put halfway through its
// bytes: Gets meanwhile must read the previous blob in full, and the first
// Get after the put returns must read the new one in full.
func testGetDuringStreamingPut(t *testing.T, s blob.Store) {
	old, next := bytes.Repeat([]byte{'O'}, 100_000), bytes.Repeat([]byte{'N'}, 150_000)
	if err := put(s, "k", old); err != nil {
		t.Fatal(err)
	}
	halfway, resume := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- s.PutFunc("k", func(w io.Writer) error {
			if _, err := w.Write(next[:len(next)/2]); err != nil {
				return err
			}
			close(halfway)
			<-resume
			_, err := w.Write(next[len(next)/2:])
			return err
		})
	}()
	select {
	case <-halfway:
	case err := <-done:
		t.Fatalf("streaming put ended before its second write: %v", err)
	}
	for i := 0; i < 3; i++ {
		rc, err := s.Get("k")
		if err != nil {
			t.Errorf("Get during a streaming put: %v", err)
			break
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || !bytes.Equal(got, old) {
			t.Errorf("Get during a streaming put = %d bytes (%v), want the previous %d in full", len(got), err, len(old))
		}
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := get(t, s, "k"); !bytes.Equal(got, next) {
		t.Errorf("Get after the streaming put = %d bytes, want the new %d in full", len(got), len(next))
	}
}
