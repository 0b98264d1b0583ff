package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/core"
	"plasmahd/internal/vec"
)

// newStateServer returns a daemon with persistence on, rooted at dir.
func newStateServer(t *testing.T, capacity int, dir string) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{Capacity: capacity, RequestTimeout: 30 * time.Second, StateDir: dir})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// rawPost sends an arbitrary byte body and returns status + response bytes.
func rawPost(t *testing.T, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read response: %v", url, err)
	}
	return resp.StatusCode, out
}

// probeAt runs one probe with pairs included and returns the response.
func probeAt(t *testing.T, base, id string, threshold float64) probeResponse {
	t.Helper()
	var pr probeResponse
	st := call(t, "POST", base+"/v1/sessions/"+id+"/probe",
		map[string]any{"threshold": threshold, "includePairs": true}, &pr)
	if st != 200 {
		t.Fatalf("probe %s at %v: status %d", id, threshold, st)
	}
	return pr
}

// sameProbe compares everything deterministic about two probe responses.
func sameProbe(t *testing.T, label string, a, b probeResponse) {
	t.Helper()
	if a.PairCount != b.PairCount || a.Candidates != b.Candidates || a.Pruned != b.Pruned ||
		a.CacheHits != b.CacheHits || a.HashesCompared != b.HashesCompared {
		t.Fatalf("%s: probe counters differ:\n  a=%+v\n  b=%+v", label, a, b)
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("%s: %d vs %d pairs", label, len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatalf("%s: pair %d differs: %+v vs %+v", label, i, a.Pairs[i], b.Pairs[i])
		}
	}
}

// TestRestartCycleWarmStart is the acceptance scenario: create -> probe ->
// shutdown (state saved) -> boot a fresh daemon on the same state dir ->
// the session is back with its cached pairs, and continues byte-identically
// to a never-restarted daemon.
func TestRestartCycleWarmStart(t *testing.T) {
	dir := t.TempDir()

	// Reference run, no restart.
	_, refTS := newTestServer(t, 4)
	refID := createToy(t, refTS.URL)
	probeAt(t, refTS.URL, refID, 0.5)
	refSecond := probeAt(t, refTS.URL, refID, 0.7)

	// First daemon: create, probe, graceful save, gone.
	srv1, ts1 := newStateServer(t, 4, dir)
	id := createToy(t, ts1.URL)
	first := probeAt(t, ts1.URL, id, 0.5)
	if first.PairCount == 0 {
		t.Fatal("first probe found nothing")
	}
	if n, failed, err := srv1.SaveState(context.Background()); err != nil || n != 1 || failed != 0 {
		t.Fatalf("SaveState: n=%d failed=%d err=%v", n, failed, err)
	}
	ts1.Close()

	if _, err := os.Stat(filepath.Join(dir, id+".snap")); err != nil {
		t.Fatalf("snapshot file missing after save: %v", err)
	}

	// Second daemon warm-starts from the same dir.
	srv2, ts2 := newStateServer(t, 4, dir)
	var info sessionInfo
	if st := call(t, "GET", ts2.URL+"/v1/sessions/"+id, nil, &info); st != 200 {
		t.Fatalf("warm-started session not found: status %d", st)
	}
	if info.CachedPairs == 0 || info.Probes != 1 {
		t.Fatalf("warm cache lost: %+v", info)
	}
	var stats map[string]float64
	if st := call(t, "GET", ts2.URL+"/v1/stats", nil, &stats); st != 200 {
		t.Fatalf("stats: status %d", st)
	}
	if stats["plasmad_sessions_restored_total"] < 1 {
		t.Fatalf("stats do not show the warm cache: %+v", stats)
	}

	// Restart determinism end to end: the next probe must match the
	// uninterrupted daemon's, byte for byte.
	second := probeAt(t, ts2.URL, id, 0.7)
	sameProbe(t, "post-restart probe", refSecond, second)

	// New sessions must not collide with the warm-started ID.
	id2 := createToy(t, ts2.URL)
	if id2 == id {
		t.Fatalf("fresh session reused warm-started ID %s", id)
	}
	_ = srv2
}

// TestWarmBootAtCapacityKeepsSavedIDs: a warm boot that stops at capacity
// leaves the later sessions in the store, and a new session must not be
// minted over one of them. A capacity-1 daemon saves s1 (probed at 0.7) and
// s2 (probed at 0.5); the next daemon loads only s1, its next create gets a
// fresh ID, and GET s2 revives the saved session whole.
func TestWarmBootAtCapacityKeepsSavedIDs(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := newStateServer(t, 1, dir)
	s1 := createToy(t, ts1.URL)
	probeAt(t, ts1.URL, s1, 0.7)
	s2 := createToy(t, ts1.URL) // evicts s1 into the store
	probeAt(t, ts1.URL, s2, 0.5)
	var saved sessionInfo
	if st := call(t, "GET", ts1.URL+"/v1/sessions/"+s2, nil, &saved); st != 200 || saved.CachedPairs == 0 {
		t.Fatalf("saved session: status %d, %+v", st, saved)
	}
	if _, failed, err := srv1.SaveState(context.Background()); err != nil || failed != 0 {
		t.Fatalf("SaveState: failed=%d err=%v", failed, err)
	}
	ts1.Close()

	srv2, ts2 := newStateServer(t, 1, dir)
	if ids := srv2.mgr.List(); len(ids) != 1 || ids[0].ID != s1 {
		t.Fatalf("warm boot loaded %d sessions, want only %s", len(ids), s1)
	}
	if fresh := createToy(t, ts2.URL); fresh == s1 || fresh == s2 {
		t.Fatalf("new session minted as saved ID %s", fresh)
	}
	var revived sessionInfo
	if st := call(t, "GET", ts2.URL+"/v1/sessions/"+s2, nil, &revived); st != 200 {
		t.Fatalf("GET %s: status %d", s2, st)
	}
	if revived.CachedPairs != saved.CachedPairs || !slices.Equal(revived.Thresholds, saved.Thresholds) || revived.Probes != 1 {
		t.Fatalf("GET %s = %+v, want the saved session %+v", s2, revived, saved)
	}
}

// TestSnapshotRestoreEndpoints drives the snapshot/restore API: download a
// binary snapshot, upload it back, and get an identical (fresh-ID) session.
func TestSnapshotRestoreEndpoints(t *testing.T) {
	_, ts := newTestServer(t, 4)
	id := createToy(t, ts.URL)
	probeAt(t, ts.URL, id, 0.5)

	st, snap := rawPost(t, ts.URL+"/v1/sessions/"+id+"/snapshot", "application/json", nil)
	if st != 200 {
		t.Fatalf("snapshot: status %d body %s", st, snap)
	}
	if !bytes.HasPrefix(snap, []byte("PLHDSESS")) {
		t.Fatalf("snapshot does not start with the session magic: %q...", snap[:12])
	}

	var restored sessionInfo
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions/restore", bytes.NewReader(snap))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("restore: status %d body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &restored); err != nil {
		t.Fatal(err)
	}
	if restored.ID == id {
		t.Fatal("restore must mint a fresh ID")
	}
	if restored.CachedPairs == 0 || restored.Probes != 1 {
		t.Fatalf("restored session lost its cache: %+v", restored)
	}

	// Both sessions continue identically from here.
	a := probeAt(t, ts.URL, id, 0.8)
	b := probeAt(t, ts.URL, restored.ID, 0.8)
	sameProbe(t, "original vs restored", a, b)

	// Garbage uploads are refused with the typed envelope.
	st, body = rawPost(t, ts.URL+"/v1/sessions/restore", "application/octet-stream", []byte("not a snapshot"))
	if st != http.StatusBadRequest || !strings.Contains(string(body), "bad_snapshot") {
		t.Fatalf("garbage restore: status %d body %s", st, body)
	}
	// A truncated (CRC-less) snapshot is refused too.
	st, body = rawPost(t, ts.URL+"/v1/sessions/restore", "application/octet-stream", snap[:len(snap)/2])
	if st != http.StatusBadRequest || !strings.Contains(string(body), "bad_snapshot") {
		t.Fatalf("truncated restore: status %d body %s", st, body)
	}
}

// TestEvictionSpillsAndRevives: with a state dir, capacity eviction writes
// the victim to disk, and a later request for it transparently revives it,
// warm cache intact.
func TestEvictionSpillsAndRevives(t *testing.T) {
	dir := t.TempDir()
	_, ts := newStateServer(t, 2, dir)

	// Reference: same probe sequence on a daemon that never evicts.
	_, refTS := newTestServer(t, 4)
	refID := createToy(t, refTS.URL)
	probeAt(t, refTS.URL, refID, 0.5)
	refAgain := probeAt(t, refTS.URL, refID, 0.5)

	id1 := createToy(t, ts.URL)
	probeAt(t, ts.URL, id1, 0.5)
	createToy(t, ts.URL) // id2
	createToy(t, ts.URL) // id3 -> evicts id1 (LRU idle), spilling it

	if _, err := os.Stat(filepath.Join(dir, id1+".snap")); err != nil {
		t.Fatalf("evicted session was not spilled: %v", err)
	}
	var stats map[string]float64
	call(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	if stats["plasmad_sessions_spilled_total"] < 1 {
		t.Fatalf("spill not counted: %+v", stats)
	}

	// Touching the spilled session revives it (evicting another victim).
	var info sessionInfo
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id1, nil, &info); st != 200 {
		t.Fatalf("spilled session not revived: status %d", st)
	}
	if info.CachedPairs == 0 || info.Probes != 1 {
		t.Fatalf("revived session lost its cache: %+v", info)
	}
	// Probing the revived session behaves exactly like probing a session
	// that was never evicted: same cache hits, same resumed hash work.
	again := probeAt(t, ts.URL, id1, 0.5)
	if again.CacheHits == 0 {
		t.Fatalf("revived probe hit nothing in the cache: %+v", again)
	}
	sameProbe(t, "revived vs never-evicted", refAgain, again)

	call(t, "GET", ts.URL+"/v1/stats", nil, &stats)
	if stats["plasmad_sessions_restored_total"] < 1 {
		t.Fatalf("revival not counted: %+v", stats)
	}
}

// TestDeleteRemovesSpilledState: DELETE kills the on-disk snapshot too, so
// deleted sessions stay dead across reboots.
func TestDeleteRemovesSpilledState(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newStateServer(t, 4, dir)
	id := createToy(t, ts.URL)
	probeAt(t, ts.URL, id, 0.5)
	if _, _, err := srv.SaveState(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := call(t, "DELETE", ts.URL+"/v1/sessions/"+id, nil, nil); st != 200 {
		t.Fatalf("delete: status %d", st)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".snap")); !os.IsNotExist(err) {
		t.Fatalf("state file survived delete: %v", err)
	}
	// A fresh boot must not resurrect it.
	_, ts2 := newStateServer(t, 4, dir)
	if st := call(t, "GET", ts2.URL+"/v1/sessions/"+id, nil, nil); st != http.StatusNotFound {
		t.Fatalf("deleted session resurrected: status %d", st)
	}
}

// TestCorruptStateFileSkippedOnBoot: a damaged snapshot must not take the
// daemon down or become a session; it is logged and skipped.
func TestCorruptStateFileSkippedOnBoot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "s1.snap"), []byte("PLHDSESSgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, ts := newStateServer(t, 4, dir)
	if srv.Manager().Len() != 0 {
		t.Fatalf("corrupt snapshot became a session")
	}
	if st := call(t, "GET", ts.URL+"/v1/sessions/s1", nil, nil); st != http.StatusNotFound {
		t.Fatalf("corrupt session acquired: status %d", st)
	}
}

// TestOldVersionStateFileSkippedOnBoot is the upgrade path across a session
// snapshot version bump: a state dir holding a blob the running version no
// longer reads boots, restores nothing, logs the refusal, and answers 404
// for the session — the handling of any unreadable blob. Both earlier
// versions are fed: v2 (per-probe pair lists) and v3 (cache snapshot v2).
func TestOldVersionStateFileSkippedOnBoot(t *testing.T) {
	for _, golden := range []string{"session-v2-spec.snap", "session-v3-spec.snap"} {
		t.Run(golden, func(t *testing.T) {
			old, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden", golden))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "s1.snap"), old, 0o644); err != nil {
				t.Fatal(err)
			}
			var logBuf syncBuffer
			srv := New(Config{Capacity: 4, RequestTimeout: 30 * time.Second, StateDir: dir, Logger: log.New(&logBuf, "", 0)})
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			if n, err := srv.LoadState(); n != 0 || err != nil || srv.Manager().Len() != 0 {
				t.Fatalf("LoadState = %d, %v with %d resident, want 0 sessions and no error", n, err, srv.Manager().Len())
			}
			if logs := logBuf.String(); !strings.Contains(logs, "revive s1 failed") || !strings.Contains(logs, bayeslsh.ErrSnapshotVersion.Error()) {
				t.Errorf("the refusal is not logged; log:\n%s", logs)
			}
			if st := call(t, "GET", ts.URL+"/v1/sessions/s1", nil, nil); st != http.StatusNotFound {
				t.Fatalf("old-version session acquired: status %d", st)
			}
		})
	}
}

// TestRestoreReadsOnlyWhatItDecodes: restore reads its upload through a
// buffer, yet plasmad_snapshot_bytes_in_total counts exactly the bytes the
// decoder consumed, and the body cap answers 413 only when the decoder
// itself needs bytes past it — not when the buffer reads ahead into bytes
// after the snapshot.
func TestRestoreReadsOnlyWhatItDecodes(t *testing.T) {
	src := httptest.NewServer(New(Config{Capacity: 2, RequestTimeout: 30 * time.Second}).Handler())
	defer src.Close()
	id := createToy(t, src.URL)
	probeAt(t, src.URL, id, 0.5)
	st, snap := rawPost(t, src.URL+"/v1/sessions/"+id+"/snapshot", "application/octet-stream", nil)
	if st != http.StatusOK {
		t.Fatalf("snapshot: status %d", st)
	}
	junk := bytes.Repeat([]byte{0xAB}, 100<<10)
	badSum := append([]byte{}, snap...)
	badSum[len(badSum)-1] ^= 1

	for _, tc := range []struct {
		name     string
		cap      int // MaxSnapshotBytes
		body     []byte
		status   int
		code     string
		consumed int // the bytes the decoder reads
	}{
		{"snapshot then bytes past the cap", len(snap), append(append([]byte{}, snap...), junk...), http.StatusCreated, "", len(snap)},
		{"bad checksum at the cap, bytes past it", len(snap), append(badSum, junk...), http.StatusBadRequest, "bad_snapshot", len(snap)},
		{"snapshot one byte over the cap", len(snap) - 1, snap, http.StatusRequestEntityTooLarge, "too_large", len(snap) - 1},
	} {
		srv := New(Config{Capacity: 2, RequestTimeout: 30 * time.Second, MaxBodyBytes: 1024, MaxSnapshotBytes: int64(tc.cap)})
		ts := httptest.NewServer(srv.Handler())
		st, out := rawPost(t, ts.URL+"/v1/sessions/restore", "application/octet-stream", tc.body)
		if st != tc.status || !strings.Contains(string(out), tc.code) {
			t.Errorf("%s: status %d body %s, want %d %s", tc.name, st, out, tc.status, tc.code)
		}
		if got := metricValue(scrapeMetrics(t, ts.URL), "plasmad_snapshot_bytes_in_total"); got != float64(tc.consumed) {
			t.Errorf("%s: plasmad_snapshot_bytes_in_total = %v, want the %d bytes decoded", tc.name, got, tc.consumed)
		}
		ts.Close()
	}
}

// TestBodyCap413: a body over the configured cap gets the 413 envelope with
// the too_large code — it must not be read to completion or crash the
// daemon.
func TestBodyCap413(t *testing.T) {
	srv := New(Config{Capacity: 2, RequestTimeout: 30 * time.Second,
		MaxBodyBytes: 2048, MaxSnapshotBytes: 4096})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = '1'
	}
	body := []byte(`{"dense": [[` + string(big) + `]]}`)
	st, out := rawPost(t, ts.URL+"/v1/sessions", "application/json", body)
	if st != http.StatusRequestEntityTooLarge || !strings.Contains(string(out), "too_large") {
		t.Fatalf("oversized create: status %d body %s", st, out)
	}

	// The restore endpoint (binary body) has its own, larger cap — the
	// daemon's own snapshots routinely exceed the JSON body cap — but it
	// is still a cap. The decoder streams, so the cap trips when a
	// well-formed prefix keeps it reading: a real snapshot's magic,
	// version, params and seed (63 bytes), then a declared dataset name
	// longer than the whole cap.
	var head bytes.Buffer
	tiny := core.NewSession(vec.FromDenseMatrix("t", [][]float64{{1, 0}, {0, 1}}, vec.CosineSim), bayeslsh.DefaultParams(), 1)
	if err := tiny.Snapshot(&head); err != nil {
		t.Fatal(err)
	}
	snapBody := slices.Clone(head.Bytes()[:63])
	snapBody = append(snapBody, 0x60, 0xEA, 0x00, 0x00) // name length 60000
	snapBody = append(snapBody, big...)
	st, out = rawPost(t, ts.URL+"/v1/sessions/restore", "application/octet-stream", snapBody)
	if st != http.StatusRequestEntityTooLarge || !strings.Contains(string(out), "too_large") {
		t.Fatalf("oversized restore: status %d body %s", st, out)
	}
	// A body that is invalid from its first bytes is refused as a bad
	// snapshot without reading the rest, however large it is.
	st, out = rawPost(t, ts.URL+"/v1/sessions/restore", "application/octet-stream", big)
	if st != http.StatusBadRequest || !strings.Contains(string(out), "bad_snapshot") {
		t.Fatalf("oversized garbage restore: status %d body %s", st, out)
	}
	// Between the two caps, restore accepts what a plain JSON route rejects.
	st, out = rawPost(t, ts.URL+"/v1/sessions/restore", "application/octet-stream", big[:3000])
	if st != http.StatusBadRequest || !strings.Contains(string(out), "bad_snapshot") {
		t.Fatalf("mid-size restore should pass the cap and fail decoding: status %d body %s", st, out)
	}
}

// TestTrailingGarbageRejected: the JSON body must be exactly one value.
func TestTrailingGarbageRejected(t *testing.T) {
	_, ts := newTestServer(t, 2)
	id := createToy(t, ts.URL)
	st, out := rawPost(t, ts.URL+"/v1/sessions/"+id+"/probe", "application/json",
		[]byte(`{"threshold":0.5}{"threshold":0.9}`))
	if st != http.StatusBadRequest || !strings.Contains(string(out), "trailing data") {
		t.Fatalf("trailing garbage: status %d body %s", st, out)
	}
	st, out = rawPost(t, ts.URL+"/v1/sessions/"+id+"/probe", "application/json",
		[]byte(`{"threshold":0.5} xx`))
	if st != http.StatusBadRequest || !strings.Contains(string(out), "trailing data") {
		t.Fatalf("trailing garbage: status %d body %s", st, out)
	}
	// Trailing whitespace is fine.
	st, _ = rawPost(t, ts.URL+"/v1/sessions/"+id+"/probe", "application/json",
		[]byte(`{"threshold":0.5}`+"\n\t "))
	if st != 200 {
		t.Fatalf("trailing whitespace rejected: status %d", st)
	}
}
