package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"plasmahd/internal/blob"
)

// clusterNode is one member of an httptest-backed cluster: a full Server
// with cluster config plus the listener it serves on.
type clusterNode struct {
	name string
	srv  *Server
	ts   *httptest.Server
}

func (n *clusterNode) URL() string { return n.ts.URL }

// newCluster boots a cluster of named nodes over one shared blob directory.
// Listeners are bound before any Server is built so every node's config can
// carry the complete peer map.
func newCluster(t *testing.T, dir string, capacity int, names ...string) map[string]*clusterNode {
	t.Helper()
	nodes := make(map[string]*clusterNode, len(names))
	peers := make(map[string]string, len(names))
	for _, name := range names {
		ts := httptest.NewUnstartedServer(nil)
		nodes[name] = &clusterNode{name: name, ts: ts}
		peers[name] = "http://" + ts.Listener.Addr().String()
	}
	for _, name := range names {
		node := nodes[name]
		node.srv = New(Config{
			Capacity:       capacity,
			RequestTimeout: 30 * time.Second,
			StateDir:       dir,
			NodeID:         name,
			Peers:          peers,
		})
		node.ts.Config.Handler = node.srv.Handler()
		node.ts.Start()
		t.Cleanup(node.ts.Close)
	}
	return nodes
}

// stopNode gracefully retires a node: save resident sessions to the shared
// blob store (what SIGTERM does via Serve), then stop listening. Returns
// the address it was bound to, so rejoin tests can bring a node back on the
// same peer URL.
func stopNode(t *testing.T, node *clusterNode) string {
	t.Helper()
	addr := node.ts.Listener.Addr().String()
	if _, failed, err := node.srv.SaveState(t.Context()); err != nil || failed != 0 {
		t.Fatalf("stopping %s: save state failed %d, err %v", node.name, failed, err)
	}
	node.ts.Close()
	return addr
}

// callHdr is call plus request headers in and response headers out, for
// asserting which node actually served a request (NodeHeader).
func callHdr(t *testing.T, method, url string, body any, out any, hdr map[string]string) (int, http.Header) {
	t.Helper()
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			t.Fatalf("marshal body: %v", err)
		}
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	// The response ends only after the handler's middleware has run, so a
	// body read to its end orders the caller after the request's metrics.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("%s %s: read response: %v", method, url, err)
	}
	return resp.StatusCode, resp.Header
}

// servedBy asserts a request was answered by the expected node.
func servedBy(t *testing.T, h http.Header, want string) {
	t.Helper()
	if got := h.Get(NodeHeader); got != want {
		t.Fatalf("%s = %q, want %q", NodeHeader, got, want)
	}
}

// otherNode picks any cluster member that is not `not`.
func otherNode(nodes map[string]*clusterNode, not string) *clusterNode {
	for name, n := range nodes {
		if name != not {
			return n
		}
	}
	return nil
}

// TestClusterDifferential is the acceptance gate: the same
// create → append → probe → curve → cues script, entering the cluster
// through nodes that do NOT own the session (every hop proxied), must
// produce byte-for-byte the results of a single-node daemon. Knowledge
// caches, probe evidence, engine counters — all of it identical: the
// cluster changes where a session lives, never what it computes.
func TestClusterDifferential(t *testing.T) {
	nodes := newCluster(t, t.TempDir(), 4, "a", "b", "c")
	_, single := newTestServer(t, 4)
	rows := ingestRows(0, 40)

	runScript := func(base string, appendVia, probeVia func(id string) string) (probeResponse, curveResponse, cuesResponse, sessionInfo) {
		info := createDense(t, base, rows[:25])
		var ar appendRowsResponse
		if st := call(t, "POST", appendVia(info.ID)+"/v1/sessions/"+info.ID+"/rows",
			map[string]any{"dense": rows[25:]}, &ar); st != http.StatusOK || ar.Rows != 40 {
			t.Fatalf("append: status %d resp %+v", st, ar)
		}
		pr := probePairs(t, probeVia(info.ID), info.ID, 0.8)
		var cv curveResponse
		if st := call(t, "GET", probeVia(info.ID)+"/v1/sessions/"+info.ID+"/curve?lo=0.3&hi=0.95&steps=14", nil, &cv); st != http.StatusOK {
			t.Fatalf("curve: status %d", st)
		}
		var cu cuesResponse
		if st := call(t, "GET", appendVia(info.ID)+"/v1/sessions/"+info.ID+"/cues?t=0.8", nil, &cu); st != http.StatusOK {
			t.Fatalf("cues: status %d", st)
		}
		var si sessionInfo
		if st := call(t, "GET", probeVia(info.ID)+"/v1/sessions/"+info.ID, nil, &si); st != http.StatusOK {
			t.Fatalf("summary: status %d", st)
		}
		return pr, cv, cu, si
	}

	local := func(string) string { return single.URL }
	wantPr, wantCv, wantCu, wantSi := runScript(single.URL, local, local)

	// Cluster run: create on the owner (creation always mints a locally
	// owned ID), then do every follow-up through OTHER nodes so each request
	// crosses the proxy hop.
	entry := nodes["a"]
	nonOwner := func(id string) string {
		return otherNode(nodes, entry.srv.OwnerNode(id)).URL()
	}
	gotPr, gotCv, gotCu, gotSi := runScript(entry.URL(), nonOwner, nonOwner)

	if gotPr.PairCount != wantPr.PairCount || gotPr.Candidates != wantPr.Candidates ||
		gotPr.Pruned != wantPr.Pruned || gotPr.HashesCompared != wantPr.HashesCompared {
		t.Errorf("probe diverged: cluster %+v, single %+v", gotPr, wantPr)
	}
	if len(gotPr.Pairs) != len(wantPr.Pairs) {
		t.Fatalf("pair lists: %d vs %d", len(gotPr.Pairs), len(wantPr.Pairs))
	}
	for i := range wantPr.Pairs {
		if gotPr.Pairs[i] != wantPr.Pairs[i] {
			t.Fatalf("pair %d: %+v vs %+v", i, gotPr.Pairs[i], wantPr.Pairs[i])
		}
	}
	if gotCv.Knee != wantCv.Knee || len(gotCv.Points) != len(wantCv.Points) {
		t.Errorf("curve diverged: knee %v/%v, %d/%d points", gotCv.Knee, wantCv.Knee, len(gotCv.Points), len(wantCv.Points))
	}
	for i := range wantCv.Points {
		if gotCv.Points[i] != wantCv.Points[i] {
			t.Fatalf("curve point %d: %+v vs %+v", i, gotCv.Points[i], wantCv.Points[i])
		}
	}
	if gotCu.Triangles != wantCu.Triangles || gotCu.CurveAt != wantCu.CurveAt ||
		fmt.Sprint(gotCu.TriangleHistogram) != fmt.Sprint(wantCu.TriangleHistogram) ||
		fmt.Sprint(gotCu.DensityProfile) != fmt.Sprint(wantCu.DensityProfile) {
		t.Errorf("cues diverged: cluster %+v, single %+v", gotCu, wantCu)
	}
	if gotSi.Rows != wantSi.Rows || gotSi.Probes != wantSi.Probes || gotSi.CachedPairs != wantSi.CachedPairs {
		t.Errorf("session summary diverged: cluster %+v, single %+v", gotSi, wantSi)
	}

	// The proxy hop really happened: a request through a non-owner reports
	// the owner in NodeHeader, and the non-owner counted a forward.
	id := gotSi.ID
	owner := entry.srv.OwnerNode(id)
	via := otherNode(nodes, owner)
	var si sessionInfo
	_, h := callHdr(t, "GET", via.URL()+"/v1/sessions/"+id, nil, &si, nil)
	servedBy(t, h, owner)
	if got := via.srv.clusterProxied.Load(); got == 0 {
		t.Errorf("node %s proxied %d requests, want > 0", via.name, got)
	}
}

// TestClusterOwnedIDMinting: every node mints IDs it owns, so creates on
// different nodes can never collide, and the creator is always the owner
// (no proxy hop on the create path).
func TestClusterOwnedIDMinting(t *testing.T) {
	nodes := newCluster(t, t.TempDir(), 8, "a", "b", "c")
	seen := make(map[string]string)
	for i := 0; i < 4; i++ {
		for name, node := range nodes {
			var info sessionInfo
			st, h := callHdr(t, "POST", node.URL()+"/v1/sessions",
				map[string]any{"dataset": map[string]any{"kind": "toy"}, "seed": 1}, &info, nil)
			if st != http.StatusCreated {
				t.Fatalf("create on %s: status %d", name, st)
			}
			servedBy(t, h, name)
			if prev, dup := seen[info.ID]; dup {
				t.Fatalf("id %s minted by both %s and %s", info.ID, prev, name)
			}
			seen[info.ID] = name
			if owner := node.srv.OwnerNode(info.ID); owner != name {
				t.Fatalf("node %s minted %s owned by %s", name, info.ID, owner)
			}
		}
	}
}

// TestClusterForwardLoopGuard: a request carrying ForwardedHeader is served
// locally no matter who owns the ID — the single-hop guarantee that makes
// routing disagreements unable to loop.
func TestClusterForwardLoopGuard(t *testing.T) {
	nodes := newCluster(t, t.TempDir(), 4, "a", "b", "c")
	// An ID nobody has: without the header the request proxies to the owner;
	// with it, the receiving node answers itself.
	const id = "s999999"
	var node *clusterNode
	for _, n := range nodes {
		if !n.srv.resolver.owns(id) {
			node = n
			break
		}
	}
	owner := node.srv.OwnerNode(id)

	var env errorEnvelope
	st, h := callHdr(t, "GET", node.URL()+"/v1/sessions/"+id, nil, &env, nil)
	if st != http.StatusNotFound {
		t.Fatalf("proxied miss: status %d", st)
	}
	servedBy(t, h, owner)

	st, h = callHdr(t, "GET", node.URL()+"/v1/sessions/"+id, nil, &env,
		map[string]string{ForwardedHeader: owner})
	if st != http.StatusNotFound {
		t.Fatalf("forwarded miss: status %d", st)
	}
	servedBy(t, h, node.name)
	if node.srv.clusterFailovers.Load() != 0 {
		t.Error("loop-guarded request counted as a failover")
	}
}

// TestClusterFailoverRevival: kill a session's owner after it gracefully
// saved state; a request through a surviving node must revive the session
// from the shared blob store with its evidence intact — the "any node can
// revive any session" property the blob extraction exists for.
func TestClusterFailoverRevival(t *testing.T) {
	nodes := newCluster(t, t.TempDir(), 4, "a", "b", "c")
	rows := ingestRows(0, 40)

	info := createDense(t, nodes["a"].URL(), rows)
	id := info.ID
	owner := nodes["a"].srv.OwnerNode(id) // == "a": creation mints owned IDs
	probePairs(t, nodes[owner].URL(), id, 0.8)

	// Snapshot the state now, then take the reference probe from it: the
	// revived copy resumes from this snapshot, so its re-probe must match a
	// warm re-probe from the same state, not the cold first probe (resumed
	// evidence can carry pairs past pruning checkpoints the cold pass
	// stopped at — see TestAppendRowsSurvivesPersistence).
	if _, failed, err := nodes[owner].srv.SaveState(t.Context()); err != nil || failed != 0 {
		t.Fatalf("save state on %s: failed %d, err %v", owner, failed, err)
	}
	want := probePairs(t, nodes[owner].URL(), id, 0.8)
	nodes[owner].ts.Close()
	survivor := otherNode(nodes, owner)

	var si sessionInfo
	st, h := callHdr(t, "GET", survivor.URL()+"/v1/sessions/"+id, nil, &si, nil)
	if st != http.StatusOK {
		t.Fatalf("session lost with its owner: status %d", st)
	}
	if by := h.Get(NodeHeader); by == owner {
		t.Fatalf("dead node %q answered", owner)
	}
	if si.Probes != 1 || si.CachedPairs == 0 {
		t.Fatalf("revived without evidence: %d probes, %d cached pairs; want 1 probe and a warm cache",
			si.Probes, si.CachedPairs)
	}
	// Same threshold re-probe on the revived copy: identical pairs, and the
	// evidence cache (not a recompute) answers — cacheHits covers the pairs.
	got := probePairs(t, survivor.URL(), id, 0.8)
	if got.PairCount != want.PairCount || len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("failover probe differs: %+v vs %+v", got, want)
	}
	for i := range want.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Fatalf("pair %d: %+v vs %+v", i, got.Pairs[i], want.Pairs[i])
		}
	}
}

// TestClusterHandoffOnRejoin: after a failover leaves a session resident on
// a non-owner, the owner's return must pull it home through the blob store
// — the previous holder spills its fresh evidence and proxies; the owner
// revives it. Nothing accumulated during the failover window is lost.
func TestClusterHandoffOnRejoin(t *testing.T) {
	dir := t.TempDir()
	nodes := newCluster(t, dir, 4, "a", "b", "c")
	rows := ingestRows(0, 40)

	info := createDense(t, nodes["a"].URL(), rows)
	id := info.ID
	owner := "a"
	probePairs(t, nodes[owner].URL(), id, 0.8)

	addr := stopNode(t, nodes[owner])

	// Failover: a survivor revives the session and accumulates MORE evidence
	// (a second threshold) that the owner's blob snapshot does not have.
	survivor := otherNode(nodes, owner)
	probePairs(t, survivor.URL(), id, 0.6)
	// The revived copy lives on whichever survivor the failover walk landed
	// on (the entry node, or the peer it successfully proxied to).
	var holder *clusterNode
	for name, n := range nodes {
		if name != owner && holderHas(n.srv, id) {
			holder = n
		}
	}
	if holder == nil {
		t.Fatal("no surviving node holds the revived session")
	}

	// The owner rejoins on its old address (same peer URL for everyone).
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	reborn := &clusterNode{name: owner}
	reborn.srv = New(Config{
		Capacity:       4,
		RequestTimeout: 30 * time.Second,
		StateDir:       dir,
		NodeID:         owner,
		Peers:          clusterPeers(nodes, owner, addr),
	})
	reborn.ts = &httptest.Server{Listener: ln, Config: &http.Server{Handler: reborn.srv.Handler()}}
	reborn.ts.Start()
	t.Cleanup(reborn.ts.Close)
	nodes[owner] = reborn

	// A direct request to the holder for a session it does not own: handoff.
	// The holder spills its copy (with the 0.6 evidence) and proxies; the
	// owner revives the fresh snapshot.
	var si sessionInfo
	st, h := callHdr(t, "GET", holder.URL()+"/v1/sessions/"+id, nil, &si, nil)
	if st != http.StatusOK {
		t.Fatalf("post-rejoin request: status %d", st)
	}
	servedBy(t, h, owner)
	if si.Probes != 2 {
		t.Fatalf("owner revived %d probes, want 2 (failover evidence lost in handoff)", si.Probes)
	}
	if holderHas(holder.srv, id) {
		t.Errorf("session still resident on %s after handoff", holder.name)
	}
	if got := holder.srv.clusterHandoffs.Load(); got != 1 {
		t.Errorf("handoffs on %s = %d, want 1", holder.name, got)
	}
}

// holderHas reports whether a session is resident on a server.
func holderHas(s *Server, id string) bool {
	for _, ms := range s.mgr.List() {
		if ms.ID == id {
			return true
		}
	}
	return false
}

// clusterPeers rebuilds the peer map of a running cluster, overriding one
// node's URL (for a node that rejoined on a fresh listener).
func clusterPeers(nodes map[string]*clusterNode, override, addr string) map[string]string {
	peers := make(map[string]string, len(nodes))
	for name, n := range nodes {
		if name == override {
			peers[name] = "http://" + addr
		} else {
			peers[name] = "http://" + n.ts.Listener.Addr().String()
		}
	}
	return peers
}

// failingStore is a blob.Store whose writes always fail — the eviction
// spill's worst day.
type failingStore struct{}

func (failingStore) PutFunc(string, func(io.Writer) error) error { return errors.New("disk on fire") }
func (failingStore) Get(string) (io.ReadCloser, error)           { return nil, blob.ErrNotFound }
func (failingStore) Delete(string) (bool, error)                 { return false, nil }
func (failingStore) List() ([]string, error)                     { return nil, nil }

// TestSpillFailureVisible: a failed eviction spill must be loud — counted in
// plasmad_spill_failures_total (and the stats JSON), logged with the session
// ID and the evidence size lost — never a silent downgrade to discard.
func TestSpillFailureVisible(t *testing.T) {
	var buf syncBuffer
	srv := New(Config{
		Capacity:       1,
		RequestTimeout: 30 * time.Second,
		Store:          failingStore{},
		Logger:         log.New(&buf, "", 0),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	first := createToy(t, ts.URL)
	probePairs(t, ts.URL, first, 0.8) // give the victim evidence worth mourning
	createToy(t, ts.URL)              // capacity 1: evicts and tries to spill the first

	if n := srv.mgr.stats.SpillFailures.Load(); n != 1 {
		t.Fatalf("spill failures = %d, want 1", n)
	}
	if n := srv.mgr.stats.SessionsSpilled.Load(); n != 0 {
		t.Fatalf("sessions spilled = %d, want 0 (the spill failed)", n)
	}
	logged := buf.String()
	if !strings.Contains(logged, "spill "+first+" failed") || !strings.Contains(logged, "cached pairs lost") {
		t.Fatalf("spill failure not logged with id and lost pair count:\n%s", logged)
	}
	if exp := scrapeMetrics(t, ts.URL); !strings.Contains(exp, "plasmad_spill_failures_total 1") {
		t.Fatal("metrics missing plasmad_spill_failures_total 1")
	}
}
