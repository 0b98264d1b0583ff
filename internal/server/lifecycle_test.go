package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plasmahd/internal/blob"
	"plasmahd/internal/core"
)

// gatedStore is a directory blob store whose PutFunc or Get on a chosen key
// can be made to block until the test lets it go, so a test can hold a
// session in the middle of its blob I/O and aim a second request at it. A
// put can be held before its encode starts ("put") or at its first write,
// with the encoder inside the snapshot ("write").
type gatedStore struct {
	blob.Store
	failPut atomic.Bool

	mu    sync.Mutex
	gates map[string]*gate // "put|write|get <key>": armed, consumed by the first call
	gets  map[string]int   // Get calls per key
}

// gate blocks one store call: entered is closed when the call arrives,
// which then waits for open.
type gate struct {
	entered, release chan struct{}
	once             sync.Once
}

func (gt *gate) open() { gt.once.Do(func() { close(gt.release) }) }

func newGatedStore(t *testing.T) *gatedStore {
	t.Helper()
	dir, err := blob.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return &gatedStore{Store: dir, gates: make(map[string]*gate), gets: make(map[string]int)}
}

// arm makes the next op ("put", "write" or "get") on key block until the
// gate is opened, at the latest when the test ends.
func (g *gatedStore) arm(t *testing.T, op, key string) *gate {
	gt := &gate{entered: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(gt.open)
	g.mu.Lock()
	g.gates[op+" "+key] = gt
	g.mu.Unlock()
	return gt
}

func (g *gatedStore) pass(op, key string) {
	g.mu.Lock()
	gt := g.gates[op+" "+key]
	delete(g.gates, op+" "+key)
	if op == "get" {
		g.gets[key]++
	}
	g.mu.Unlock()
	if gt != nil {
		close(gt.entered)
		<-gt.release
	}
}

// PutFunc passes the put gate, then streams into the directory, passing
// the write gate at the first write; with failPut set, the disk fills after
// failAfter bytes, mid-stream.
func (g *gatedStore) PutFunc(key string, write func(io.Writer) error) error {
	g.pass("put", key)
	return g.Store.PutFunc(key, func(w io.Writer) error {
		if g.failPut.Load() {
			w = &fullDisk{w: w, room: failAfter}
		}
		return write(&gatedWriter{w: w, first: func() { g.pass("write", key) }})
	})
}

// gatedWriter calls first before its first write.
type gatedWriter struct {
	w     io.Writer
	first func()
	once  sync.Once
}

func (gw *gatedWriter) Write(p []byte) (int, error) {
	gw.once.Do(gw.first)
	return gw.w.Write(p)
}

// failAfter is how many bytes a failing put streams before its disk fills:
// past the session snapshot's header, inside its arrays.
const failAfter = 600

// fullDisk accepts room bytes, then fails every write.
type fullDisk struct {
	w    io.Writer
	room int
}

func (d *fullDisk) Write(p []byte) (int, error) {
	if len(p) > d.room {
		n, _ := d.w.Write(p[:d.room])
		d.room = 0
		return n, errors.New("disk on fire")
	}
	d.room -= len(p)
	return d.w.Write(p)
}

func (g *gatedStore) Get(key string) (io.ReadCloser, error) {
	g.pass("get", key)
	return g.Store.Get(key)
}

func (g *gatedStore) getCount(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gets[key]
}

func (g *gatedStore) has(t *testing.T, key string) bool {
	t.Helper()
	keys, err := g.List()
	if err != nil {
		t.Fatal(err)
	}
	return slices.Contains(keys, key)
}

func newGatedServer(t *testing.T, capacity int) (*Server, *httptest.Server, *gatedStore) {
	t.Helper()
	store := newGatedStore(t)
	srv := New(Config{Capacity: capacity, RequestTimeout: 30 * time.Second, Store: store})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, store
}

// status issues a bodyless request and returns the response status; unlike
// call it is safe off the test goroutine.
func status(method, url string) (int, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// goStatus runs status in the background; the result arrives on the channel.
func goStatus(method, url string) <-chan int {
	done := make(chan int, 1)
	go func() {
		st, err := status(method, url)
		if err != nil {
			st = -1
		}
		done <- st
	}()
	return done
}

// goCreateToy is createToy in the background, for creates that block.
func goCreateToy(base string) <-chan int {
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/sessions", "application/json",
			strings.NewReader(`{"dataset": {"kind": "toy"}, "seed": 1}`))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	return done
}

// awaitInflight waits until n requests are inside the daemon, then a moment
// more for the newest to get from the middleware to wherever it will wait.
func awaitInflight(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.inflight.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests arrived", srv.inflight.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
}

func await(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestLifecycleDeleteDuringPersist: a DELETE that lands while ?persist=1 is
// inside PutFunc must win — once both have answered, the store holds no blob
// for the session, so it cannot resurrect on the next boot or another node.
func TestLifecycleDeleteDuringPersist(t *testing.T) {
	_, ts, store := newGatedServer(t, 4)
	id := createToy(t, ts.URL)
	probeAt(t, ts.URL, id, 0.5)

	put := store.arm(t, "put", stateKey(id))
	persist := goStatus("POST", ts.URL+"/v1/sessions/"+id+"/snapshot?persist=1")
	await(t, "the persist to reach PutFunc", put.entered)
	del := goStatus("DELETE", ts.URL+"/v1/sessions/"+id)
	// The DELETE is now waiting for the persist — or, the defect, has
	// already answered, so this cannot wait for it to be in flight.
	time.Sleep(50 * time.Millisecond)
	put.open()

	if st := <-persist; st != 200 {
		t.Errorf("persist: status %d", st)
	}
	if st := <-del; st != 200 {
		t.Errorf("delete: status %d", st)
	}
	if store.has(t, stateKey(id)) {
		t.Fatalf("blob of deleted session %s is back in the store", id)
	}
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id, nil, nil); st != http.StatusNotFound {
		t.Fatalf("deleted session answers %d", st)
	}
}

// TestLifecyclePersistAfterDelete: a session deleted while a request holds
// it is not written back by that request's persist, which answers 404.
func TestLifecyclePersistAfterDelete(t *testing.T) {
	srv, ts, store := newGatedServer(t, 4)
	id := createToy(t, ts.URL)
	ms, release, err := srv.Manager().Acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if st := call(t, "DELETE", ts.URL+"/v1/sessions/"+id, nil, nil); st != 200 {
		t.Fatalf("delete: status %d", st)
	}
	if _, err := srv.Manager().Persist(ms); !errors.Is(err, ErrNotFound) {
		t.Fatalf("persist of a deleted session: err %v, want ErrNotFound", err)
	}
	if store.has(t, stateKey(id)) {
		t.Fatal("persist wrote a deleted session back")
	}
}

// TestLifecycleSpilledReadOnce: concurrent requests for a spilled session
// share one revival — the blob is read and decoded once.
func TestLifecycleSpilledReadOnce(t *testing.T) {
	srv, ts, store := newGatedServer(t, 1)
	id := createToy(t, ts.URL)
	createToy(t, ts.URL) // capacity 1: spills id
	if !store.has(t, stateKey(id)) {
		t.Fatal("set-up: session was not spilled")
	}

	get := store.arm(t, "get", stateKey(id))
	first := goStatus("GET", ts.URL+"/v1/sessions/"+id)
	await(t, "the revival to reach Get", get.entered)
	second := goStatus("GET", ts.URL+"/v1/sessions/"+id)
	awaitInflight(t, srv, 2)
	get.open()

	if a, b := <-first, <-second; a != 200 || b != 200 {
		t.Fatalf("concurrent GETs of a spilled session: status %d and %d", a, b)
	}
	if n := store.getCount(stateKey(id)); n != 1 {
		t.Fatalf("blob read %d times, want 1", n)
	}
}

// TestLifecycleVictimNever404: a request for an eviction victim whose spill
// is still being written waits for it and revives the session; it never
// sees the gap between unlink and the put.
func TestLifecycleVictimNever404(t *testing.T) {
	srv, ts, store := newGatedServer(t, 1)
	id := createToy(t, ts.URL)
	probeAt(t, ts.URL, id, 0.5)

	put := store.arm(t, "put", stateKey(id))
	evictor := goCreateToy(ts.URL) // evicts id, blocks in its spill
	await(t, "the eviction to reach PutFunc", put.entered)

	get := goStatus("GET", ts.URL+"/v1/sessions/"+id)
	awaitInflight(t, srv, 2)
	select {
	case st := <-get:
		t.Fatalf("GET of a victim mid-spill answered %d before the spill landed", st)
	default:
	}
	put.open()
	if st := <-get; st != 200 {
		t.Fatalf("GET of a victim mid-spill: status %d, want 200", st)
	}
	if st := <-evictor; st != http.StatusCreated {
		t.Fatalf("evicting create: status %d", st)
	}
	var info sessionInfo
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id, nil, &info); st != 200 || info.Probes != 1 {
		t.Fatalf("revived victim: status %d, %+v", st, info)
	}
}

// TestLifecycleChurn: six sessions on a capacity-2 daemon, six clients
// touching all of them while three are deleted. Every request sent after a
// DELETE answered gets 404, no deleted session leaves a blob behind, and
// residency stays within capacity. Run under -race.
func TestLifecycleChurn(t *testing.T) {
	srv, ts, store := newGatedServer(t, 2)
	ids := make([]string, 6)
	for i := range ids {
		ids[i] = createToy(t, ts.URL)
	}
	gone := make([]atomic.Bool, len(ids)) // set once the DELETE has answered

	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				k := (c + i) % len(ids)
				wasGone := gone[k].Load()
				st, err := status("GET", ts.URL+"/v1/sessions/"+ids[k])
				switch {
				case err != nil:
					errs <- err
					return
				case wasGone && st != http.StatusNotFound:
					errs <- fmt.Errorf("deleted session %s answered %d", ids[k], st)
					return
				case st != 200 && st != http.StatusNotFound && st != http.StatusServiceUnavailable:
					errs <- fmt.Errorf("session %s answered %d", ids[k], st)
					return
				case st == http.StatusNotFound && k >= 3:
					errs <- fmt.Errorf("live session %s answered 404", ids[k])
					return
				}
			}
		}()
	}
	for k := 0; k < 3; k++ {
		time.Sleep(5 * time.Millisecond)
		if st, err := status("DELETE", ts.URL+"/v1/sessions/"+ids[k]); err != nil || st != 200 {
			t.Errorf("delete %s: status %d, err %v", ids[k], st, err)
		}
		gone[k].Store(true)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for k, id := range ids {
		st := call(t, "GET", ts.URL+"/v1/sessions/"+id, nil, nil)
		if k < 3 {
			if st != http.StatusNotFound {
				t.Errorf("deleted session %s answers %d", id, st)
			}
			if store.has(t, stateKey(id)) {
				t.Errorf("deleted session %s left a blob", id)
			}
		} else if st != 200 {
			t.Errorf("live session %s answers %d", id, st)
		}
	}
	if n := srv.Manager().Len(); n > 2 {
		t.Errorf("%d sessions resident on a capacity-2 daemon", n)
	}
}

// TestLifecycleTransitions applies every manager operation to a session ID
// in every state and checks where the ID ends up and what was counted. The
// manager has capacity 1, so "evict" — admitting another session — can only
// make room by taking the target.
func TestLifecycleTransitions(t *testing.T) {
	type counts struct{ evicted, spilled, restored, deleted, spillFailures int64 }
	read := func(m *Manager) counts {
		s := m.stats
		return counts{s.SessionsEvicted.Load(), s.SessionsSpilled.Load(), s.SessionsRestored.Load(),
			s.SessionsDeleted.Load(), s.SpillFailures.Load()}
	}
	// Target states. "moving" is a handoff spill held inside PutFunc (so its
	// spill is counted after the operation starts): the operation must wait
	// for it, then sees a spilled session.
	const (
		absent   = "absent"
		spilled  = "spilled"
		resident = "resident"
		busy     = "resident, busy"
		moving   = "moving"
	)
	cases := []struct {
		state, op string
		failPut   bool
		err       error  // sentinel the operation must return (nil: success)
		unloaded  bool   // Unload's first result
		end       string // absent, spilled, resident or resident+blob
		delta     counts
	}{
		{state: absent, op: "acquire", err: ErrNotFound, end: absent},
		{state: absent, op: "delete", err: ErrNotFound, end: absent},
		{state: absent, op: "unload", end: absent},
		{state: absent, op: "persist", err: ErrNotFound, end: absent},
		{state: absent, op: "evict", end: absent},

		{state: spilled, op: "acquire", end: "resident+blob", delta: counts{restored: 1}},
		{state: spilled, op: "delete", end: absent, delta: counts{deleted: 1}},
		{state: spilled, op: "unload", end: spilled},
		{state: spilled, op: "persist", err: ErrNotFound, end: spilled},
		{state: spilled, op: "evict", end: spilled},

		{state: resident, op: "acquire", end: resident},
		{state: resident, op: "delete", end: absent, delta: counts{deleted: 1}},
		{state: resident, op: "unload", unloaded: true, end: spilled, delta: counts{spilled: 1}},
		{state: resident, op: "persist", end: "resident+blob"},
		{state: resident, op: "evict", end: spilled, delta: counts{evicted: 1, spilled: 1}},
		{state: resident, op: "unload", failPut: true, unloaded: true, err: errAny, end: absent, delta: counts{spillFailures: 1}},
		{state: resident, op: "evict", failPut: true, end: absent, delta: counts{evicted: 1, spillFailures: 1}},

		{state: busy, op: "acquire", end: resident},
		{state: busy, op: "delete", end: absent, delta: counts{deleted: 1}},
		{state: busy, op: "unload", end: resident},
		{state: busy, op: "persist", end: "resident+blob"},
		{state: busy, op: "evict", err: ErrCapacity, end: resident},

		{state: moving, op: "acquire", end: "resident+blob", delta: counts{spilled: 1, restored: 1}},
		{state: moving, op: "delete", end: absent, delta: counts{spilled: 1, deleted: 1}},
		{state: moving, op: "unload", end: spilled, delta: counts{spilled: 1}},
		{state: moving, op: "persist", err: ErrNotFound, end: spilled, delta: counts{spilled: 1}},
		{state: moving, op: "evict", end: spilled, delta: counts{spilled: 1}},
	}
	for _, tc := range cases {
		name := tc.state + "/" + tc.op
		if tc.failPut {
			name += "/put fails"
		}
		t.Run(name, func(t *testing.T) {
			srv, ts, store := newGatedServer(t, 1)
			m := srv.Manager()

			// Bring the target into its state.
			id, target := "s999", &ManagedSession{ID: "s999"}
			var inFlight chan struct{} // the moving state's handoff, done when closed
			var put *gate
			if tc.state != absent {
				id = createToy(t, ts.URL)
				var release func()
				var err error
				if target, release, err = m.Acquire(id); err != nil {
					t.Fatal(err)
				}
				if tc.state == busy {
					defer release()
				} else {
					release()
				}
			}
			switch tc.state {
			case spilled:
				if ok, err := m.Unload(id, true); !ok || err != nil {
					t.Fatalf("set-up unload: %v %v", ok, err)
				}
			case moving:
				put = store.arm(t, "put", stateKey(id))
				inFlight = make(chan struct{})
				go func() {
					defer close(inFlight)
					m.Unload(id, true)
				}()
				await(t, "the handoff to reach PutFunc", put.entered)
			}
			store.failPut.Store(tc.failPut)
			before := read(m)

			// Apply the operation.
			var err error
			var unloaded bool
			done := make(chan struct{})
			go func() {
				defer close(done)
				switch tc.op {
				case "acquire":
					var release func()
					if _, release, err = m.Acquire(id); err == nil {
						release()
					}
				case "delete":
					err = m.Delete(id)
				case "unload":
					unloaded, err = m.Unload(id, true)
				case "persist":
					_, err = m.Persist(target)
				case "evict":
					switch st := <-goCreateToy(ts.URL); st {
					case http.StatusCreated:
					case http.StatusServiceUnavailable:
						err = ErrCapacity
					default:
						err = fmt.Errorf("create: status %d", st)
					}
				}
			}()
			if tc.state == moving {
				if tc.op != "evict" { // an admission does not name the target, so it has nothing to wait for
					select {
					case <-done:
						t.Fatalf("%s did not wait for the ID to settle", tc.op)
					case <-time.After(20 * time.Millisecond):
					}
				}
				put.open()
				await(t, "the handoff", inFlight)
			}
			await(t, tc.op, done)

			switch {
			case tc.err == nil && err != nil:
				t.Errorf("err = %v, want success", err)
			case tc.err == errAny && err == nil:
				t.Error("want an error")
			case tc.err != nil && tc.err != errAny && !errors.Is(err, tc.err):
				t.Errorf("err = %v, want %v", err, tc.err)
			}
			if unloaded != tc.unloaded {
				t.Errorf("unloaded = %v, want %v", unloaded, tc.unloaded)
			}
			after := read(m)
			got := counts{after.evicted - before.evicted, after.spilled - before.spilled,
				after.restored - before.restored, after.deleted - before.deleted,
				after.spillFailures - before.spillFailures}
			if got != tc.delta {
				t.Errorf("counter deltas %+v, want %+v", got, tc.delta)
			}

			end := absent
			isResident, hasBlob := holderHas(srv, id), store.has(t, stateKey(id))
			switch {
			case isResident && hasBlob:
				end = "resident+blob"
			case isResident:
				end = resident
			case hasBlob:
				end = spilled
			}
			if end != tc.end {
				t.Errorf("ends %s, want %s", end, tc.end)
			}
			m.mu.Lock()
			sl := m.slots[id]
			m.mu.Unlock()
			if sl != nil && (sl.ms == nil || sl.moving != nil) {
				t.Errorf("slot left unsettled: %+v", sl)
			}
		})
	}
}

// errAny stands for "some error" in TestLifecycleTransitions.
var errAny = errors.New("any error")

// TestSaveFailsMidStream: a persist or spill whose disk fills partway
// through the snapshot is counted and leaves each session intact or cleanly
// absent. The store keeps the last good blob in full, or none; a failed
// persist leaves the session resident; a failed eviction spill drops the
// victim from memory, after which it revives from its last good blob, or
// answers 404 if it never had one.
func TestSaveFailsMidStream(t *testing.T) {
	srv, ts, store := newGatedServer(t, 1)
	kept := createToy(t, ts.URL)
	probeAt(t, ts.URL, kept, 0.9)
	if st := call(t, "POST", ts.URL+"/v1/sessions/"+kept+"/snapshot?persist=1", nil, nil); st != http.StatusOK {
		t.Fatalf("good persist: status %d", st)
	}
	var good sessionInfo
	call(t, "GET", ts.URL+"/v1/sessions/"+kept, nil, &good)
	goodBlob := readBlob(t, store, stateKey(kept))
	if len(goodBlob) <= failAfter {
		t.Fatalf("snapshot is %d bytes, so a put failing after %d would not fail mid-stream", len(goodBlob), failAfter)
	}
	probeAt(t, ts.URL, kept, 0.5) // evidence only the failing saves would carry

	store.failPut.Store(true)
	if st := call(t, "POST", ts.URL+"/v1/sessions/"+kept+"/snapshot?persist=1", nil, nil); st != http.StatusInternalServerError {
		t.Fatalf("persist onto a full disk: status %d, want 500", st)
	}
	if !holderHas(srv, kept) {
		t.Fatal("a failed persist dropped its session from memory")
	}
	lost := createToy(t, ts.URL) // capacity 1: evicts kept, whose spill fails
	createToy(t, ts.URL)         // evicts lost, which has no blob to fall back on
	if n := srv.mgr.stats.SpillFailures.Load(); n != 2 {
		t.Fatalf("spill failures = %d, want 2", n)
	}
	if exp := scrapeMetrics(t, ts.URL); !strings.Contains(exp, "plasmad_spill_failures_total 2") {
		t.Fatal("metrics missing plasmad_spill_failures_total 2")
	}
	if got := readBlob(t, store, stateKey(kept)); !bytes.Equal(got, goodBlob) {
		t.Fatalf("after failed saves the blob is %d bytes, want the last good %d in full", len(got), len(goodBlob))
	}
	if store.has(t, stateKey(lost)) {
		t.Fatal("a failed spill left a blob for a session that never had one")
	}
	if keys, err := store.List(); err != nil || len(keys) != 1 {
		t.Fatalf("store keys = %v (%v), want only the last good blob", keys, err)
	}

	store.failPut.Store(false)
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+lost, nil, nil); st != http.StatusNotFound {
		t.Fatalf("session lost to a failed spill answers %d, want 404", st)
	}
	var revived sessionInfo
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+kept, nil, &revived); st != http.StatusOK {
		t.Fatalf("revive from the last good blob: status %d", st)
	}
	if revived.Probes != good.Probes || revived.CachedPairs != good.CachedPairs ||
		!slices.Equal(revived.Thresholds, good.Thresholds) {
		t.Fatalf("revived %+v, want the last good save %+v", revived, good)
	}
}

// readBlob reads the blob under key in full.
func readBlob(t *testing.T, s blob.Store, key string) []byte {
	t.Helper()
	rc, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAppendWaitsForStreamingSave: a save streams the snapshot into the
// store while it holds the session's append lock, so an append that lands
// mid-put waits for the put, then finishes. The blob holds the view from
// before the append, and the session answers with the grown one.
func TestAppendWaitsForStreamingSave(t *testing.T) {
	srv, ts, store := newGatedServer(t, 4)
	full := ingestRows(0, 40)
	id := createDense(t, ts.URL, full[:25]).ID

	write := store.arm(t, "write", stateKey(id))
	persist := goStatus("POST", ts.URL+"/v1/sessions/"+id+"/snapshot?persist=1")
	await(t, "the persist to stream into the store", write.entered)
	body, err := json.Marshal(map[string]any{"dense": full[25:]})
	if err != nil {
		t.Fatal(err)
	}
	appended := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/rows", "application/json", bytes.NewReader(body))
		if err != nil {
			appended <- -1
			return
		}
		resp.Body.Close()
		appended <- resp.StatusCode
	}()
	awaitInflight(t, srv, 2)
	select {
	case st := <-appended:
		t.Fatalf("the append answered %d while the save was mid-put", st)
	case <-time.After(50 * time.Millisecond):
	}

	write.open()
	if st := <-persist; st != http.StatusOK {
		t.Fatalf("persist: status %d", st)
	}
	select {
	case st := <-appended:
		if st != http.StatusOK {
			t.Fatalf("append after the put: status %d", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the append did not finish once the put was released")
	}
	saved, err := core.RestoreSession(bytes.NewReader(readBlob(t, store, stateKey(id))), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := saved.Dataset().N(); n != 25 {
		t.Fatalf("the saved blob holds %d rows, want the 25 from before the append", n)
	}
	var info sessionInfo
	if st := call(t, "GET", ts.URL+"/v1/sessions/"+id, nil, &info); st != http.StatusOK || info.Rows != 40 {
		t.Fatalf("session after the append: status %d, %d rows, want 40", st, info.Rows)
	}
}
