package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/blob"
	"plasmahd/internal/core"
	"plasmahd/internal/lsh"
	"plasmahd/internal/ring"
	"plasmahd/internal/server"
	"plasmahd/internal/vec"
)

// replayUnits is how many scripted units each inner layer replays. Fixed,
// so that every count the traced pass reports repeats exactly for a seed.
const (
	replayUnits  = 1  // single-node workloads: session scripts
	replayVisits = 15 // serve-mixed: visits of client 0 (three of them lifecycle visits)
)

// kernels holds the traced pass's inner-layer replays and direct calls into
// the leaf packages.
type kernels struct {
	e     *env
	spans *spanLog
	dir   string // scratch dir: the in-process server's blob store and the blob kernels

	srv   *server.Server
	cache *cacheTarget
	cores *coreTarget

	// leaf[class][package] is the time, in seconds per operation of the
	// class, spent in a leaf package as measured by calling it directly.
	leaf map[string]map[string]float64
	// inner[class] is the core- and bayeslsh-level work inside a spill or a
	// revive (seconds per operation). Those two happen inside the server's
	// eviction and acquire paths, so the shadow replays, which have no
	// residency, never see them; they are measured by calling the codecs.
	inner  map[string][2]float64
	spillS float64 // snapshot + blob write of one evicted session

	sink int // takes kernel results, so the calls cannot be optimised away
}

func newKernels(e *env, spans *spanLog) (*kernels, error) {
	dir := filepath.Join(e.cfg.outDir, fmt.Sprintf("trace-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	leaf := make(map[string]map[string]float64)
	for _, cls := range timedClasses {
		leaf[cls] = make(map[string]float64)
	}
	return &kernels{e: e, spans: spans, dir: dir, leaf: leaf, inner: make(map[string][2]float64)}, nil
}

func (k *kernels) close() { os.RemoveAll(k.dir) }

// replay runs the fixed replay units at one inner layer.
func (k *kernels) replay(ctx context.Context, layer string, rec *recorder) error {
	var t target
	switch layer {
	case "server":
		capacity := topologyOf(k.e.cfg.workload, "").capacity
		if k.e.mixed != nil {
			capacity *= len(k.e.nodes) // one handler stands in for the cluster: same total residency
		}
		var ht *httpTarget
		k.srv, ht = inProcessServer(capacity, filepath.Join(k.dir, "server-state"))
		if k.e.mixed != nil {
			p := k.e.mixed
			warm := newRecorder()
			for i, s := range p.sessions {
				runScript(ht, layer, -1, warmOps(i, s), warm, nil)
			}
			if warm.failed > 0 {
				return fmt.Errorf("in-process warm-up failed: %v", warm.errs)
			}
			p.visitLoop(ctx, ht, layer, func(int) *httpTarget { return ht }, 0,
				func(v int) bool { return v >= replayVisits }, rec, false)
			return ctx.Err()
		}
		t = ht
	case "core":
		k.cores = newCoreTarget()
		t = k.cores
	case "bayeslsh":
		k.cache = newCacheTarget()
		t = k.cache
	}
	if k.e.mixed != nil {
		k.e.mixed.replay(t, layer, 0, replayVisits, rec)
		return ctx.Err()
	}
	for u := 0; u < replayUnits && rec.failed == 0; u++ {
		runScript(t, layer, u, k.e.pool[u], rec, nil)
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// kernelScript is the operation list the direct-call measurements walk: a
// session brought to the state in which the workload reads cues and takes
// its snapshot.
func (k *kernels) kernelScript() []op {
	if p := k.e.mixed; p != nil {
		ops := warmOps(slotMain, p.sessions[0])
		ops = append(ops, op{kind: opProbe, slot: slotMain, t: 0.7, body: probeBody(0.7)},
			op{kind: opCues, slot: slotMain, class: clsCuesCold, t: 0.7},
			op{kind: opSnapshot, slot: slotMain, class: clsSnapshot})
		return ops
	}
	return k.e.pool[0]
}

// timeIt returns the wall time of f in seconds and records it as a span.
func (k *kernels) timeIt(layer, opID, name string, f func()) float64 {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	k.spans.record(layer, opID, name, "", t0, d)
	return d.Seconds()
}

// repeat runs f until it has taken at least 20 ms (at least 3 times) and
// returns the mean seconds per call: for kernels too short to time once.
func repeat(f func()) float64 {
	var n int
	t0 := time.Now()
	for n < 3 || time.Since(t0) < 20*time.Millisecond {
		f()
		n++
	}
	return time.Since(t0).Seconds() / float64(n)
}

// sketchAll sketches rows on the engine's worker count and returns the
// wall time: what lsh contributes to a NewCache or AppendRows span.
func sketchAll(rows []vec.Sparse, sketch func(vec.Sparse)) float64 {
	workers := bayeslsh.DefaultParams().WorkerCount()
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(rows); i += workers {
				sketch(rows[i])
			}
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// measure calls the leaf packages directly on the workload's own rows and
// fills the per-layer metrics that do not come from subtracting replays.
func (k *kernels) measure(m map[string]float64, layers map[string]*recorder) error {
	ops := k.kernelScript()
	create := &ops[0]
	ds := create.data.Dataset(0, create.to)
	p := bayeslsh.DefaultParams()

	// lsh: both sketch families over the same rows (the family the workload
	// does not use still costs what it would cost on this shape), and the
	// match kernels at the shortest and the full prefix.
	mh := lsh.NewMinHasher(p.MaxHashes, create.seed)
	srp := lsh.NewSRP(p.MaxHashes, ds.Dim, create.seed)
	sample := ds.Rows[:min(len(ds.Rows), 400)]
	minSigs := make([][]uint32, len(sample))
	srpSigs := make([][]uint64, len(sample))
	var sampleNnz int
	for _, r := range sample {
		sampleNnz += len(r.Indices)
	}
	m["lsh.minhash_ns_per_nnz"] = 1e9 * k.timeIt("lsh", "kernel", "minhash.sketch", func() {
		for i, r := range sample {
			minSigs[i] = mh.Sketch(r)
		}
	}) / float64(sampleNnz)
	m["lsh.srp_ns_per_nnz"] = 1e9 * k.timeIt("lsh", "kernel", "srp.sketch", func() {
		for i, r := range sample {
			srpSigs[i] = srp.Sketch(r)
		}
	}) / float64(sampleNnz)
	pairs := len(sample) - 1
	for _, n := range []int{32, 256} {
		m[fmt.Sprintf("lsh.match_packed_%d_ns", n)] = 1e9 * repeat(func() {
			for i := 0; i < pairs; i++ {
				k.sink += lsh.MatchesPacked(srpSigs[i], srpSigs[i+1], n)
			}
		}) / float64(pairs)
		m[fmt.Sprintf("lsh.match_u32_%d_ns", n)] = 1e9 * repeat(func() {
			for i := 0; i < pairs; i++ {
				k.sink += lsh.MatchesU32(minSigs[i], minSigs[i+1], n)
			}
		}) / float64(pairs)
	}
	m["vec.similarity_ns"] = 1e9 * repeat(func() {
		for i := 0; i < pairs; i++ {
			if ds.Similarity(i, i+1) > 2 {
				k.sink++
			}
		}
	}) / float64(pairs)

	// What lsh contributes to the create and append spans: the rows the
	// workload uploads, sketched with the family it uses, on the engine's
	// worker count. A fresh SRP sketcher: its per-dimension directions are
	// generated lazily, and NewCache pays for that too.
	fresh := lsh.NewSRP(p.MaxHashes, ds.Dim, create.seed)
	sketch := func(r vec.Sparse) { fresh.Sketch(r) }
	if ds.Measure == vec.JaccardSim {
		sketch = func(r vec.Sparse) { mh.Sketch(r) }
	}
	k.leaf[clsCreate]["lsh"] = sketchAll(ds.Rows, sketch)
	k.spans.record("lsh", "u0.o0", "sketch", clsCreate, time.Now(), time.Duration(k.leaf[clsCreate]["lsh"]*1e9))
	for i := range ops {
		if o := &ops[i]; o.kind == opAppend {
			k.leaf[clsAppend]["lsh"] = sketchAll(normalized(o.data, o.from, o.to), sketch)
			break
		}
	}

	// Walk the kernel script on a shadow session; stop at the workload's
	// first cold cue set (graph kernels) and at its snapshot (codec and
	// blob kernels).
	ct := newCoreTarget()
	store, err := blob.NewDir(filepath.Join(k.dir, "blobs"))
	if err != nil {
		return err
	}
	sawCues, cueT := false, 0.0
	for i := range ops {
		o := &ops[i]
		if _, err := ct.do(o); err != nil {
			return fmt.Errorf("kernel script op %d (%v): %w", i, o.kind, err)
		}
		sess := ct.sess[slotMain]
		if o.class == clsCuesCold && !sawCues {
			sawCues, cueT = true, o.t
			k.graphKernels(m, sess, o.t, fmt.Sprintf("u0.o%d", i))
		}
		if o.kind == opSnapshot {
			if err := k.codecKernels(m, sess, store, ct.snap, fmt.Sprintf("u0.o%d", i)); err != nil {
				return err
			}
			k.engineKernels(m, sess, create, cueT)
			break
		}
	}

	// bayeslsh: exact counts and ratios from the replay at that layer.
	c, rec := k.cache, layers["bayeslsh"]
	for name, v := range map[string]int{
		"bayeslsh.candidates": c.total.Candidates, "bayeslsh.pruned": c.total.Pruned,
		"bayeslsh.cache_hits": c.total.CacheHits, "bayeslsh.pairs_emitted": c.total.Pairs,
		"bayeslsh.cached_pairs": c.cachedPairs, "bayeslsh.index_rebuilds": int(c.rebuilds),
	} {
		m[name] = float64(v)
	}
	m["bayeslsh.hashes_compared"] = float64(c.total.Hashes)
	m["bayeslsh.yield"] = ratio(float64(c.cold.Pairs), float64(c.cold.Candidates))
	m["bayeslsh.hashes_per_candidate"] = ratio(float64(c.cold.Hashes), float64(c.cold.Candidates))
	m["bayeslsh.ns_per_candidate"] = 1e9 * ratio(classMean(rec, clsFirst), float64(c.cold.Candidates))
	m["bayeslsh.sketch_share"] = ratio(c.sketch.Seconds(), c.sketch.Seconds()+classMean(rec, clsFirst))
	m["bayeslsh.append_rows_per_s"] = ratio(float64(c.appended), sum(rec.lat[clsAppend]))
	m["core.curve_ns_per_pair_point"] = 1e9 * ratio(sum(layers["core"].lat[clsCurve]), k.cores.curvePairPoints)
	hits, misses := k.cores.cueHits, k.cores.cueMisses
	for _, s := range k.cores.sess {
		h, mi := s.CueCacheStats()
		hits, misses = hits+h, misses+mi
	}
	m["core.cue_hit_ratio"] = ratio(float64(hits), float64(hits+misses))

	// server: upload decode rate, the proxy hop, the metrics scrape.
	decode := classMean(layers["server"], clsCreate) - classMean(layers["core"], clsCreate)
	m["server.decode_mb_per_s"] = ratio(float64(len(create.body))/1e6, decode)
	m["metrics.scrape_us"] = 1e6 * repeat(func() {
		_ = k.srv.Manager().Registry().WritePrometheus(io.Discard) // io.Discard cannot fail
	})
	r := ring.New([]string{"a", "b", "c"}, ring.DefaultReplicas)
	m["ring.owner_ns"] = 1e9 * repeat(func() {
		for i := 0; i < 1000; i++ {
			k.sink += len(r.Owner("s" + fmt.Sprint(i)))
		}
	}) / 1000
	return k.proxyHop(m)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// graphKernels times the cue kernels on the threshold graph the workload's
// cold cue read materialises.
func (k *kernels) graphKernels(m map[string]float64, sess *core.Session, t float64, opID string) {
	g := sess.ThresholdGraph(t)
	tri := k.timeIt("graph", opID, "triangles", func() { k.sink += len(g.TrianglesPerVertex()) })
	cores := k.timeIt("graph", opID, "cores", func() { k.sink += len(g.CoreNumbers()) })
	comps := k.timeIt("graph", opID, "components", func() { _, n := g.ConnectedComponents(); k.sink += n })
	m["graph.triangles_ms"], m["graph.cores_ms"], m["graph.components_ms"] = 1e3*tri, 1e3*cores, 1e3*comps
	k.leaf[clsCuesCold]["graph"] = tri + cores
	m["core.cueset_hit_us"] = 1e6 * repeat(func() { k.sink += sess.CueSet(t).Graph().N() })
}

// codecKernels times what surrounds a snapshot on its way to and from the
// blob store: the blob write and read themselves, and a session decode fed
// straight from the store's reader — the path a revive takes.
func (k *kernels) codecKernels(m map[string]float64, sess *core.Session, store *blob.Dir, snap []byte, opID string) error {
	mb := float64(len(snap)) / 1e6
	var err error
	put := k.timeIt("blob", opID, "put", func() { err = store.Put("s1.snap", snap) })
	if err != nil {
		return err
	}
	get := k.timeIt("blob", opID, "get", func() {
		var rc io.ReadCloser
		if rc, err = store.Get("s1.snap"); err == nil {
			_, err = io.Copy(io.Discard, rc)
			rc.Close()
		}
	})
	if err != nil {
		return err
	}
	m["blob.put_mb_per_s"], m["blob.get_mb_per_s"] = mb/put, mb/get
	fromMemory := k.timeIt("core", opID, "restore(memory)", func() { _, err = core.RestoreSession(bytes.NewReader(snap), nil) })
	if err != nil {
		return err
	}
	fromStore := k.timeIt("core", opID, "restore(blob reader)", func() {
		var rc io.ReadCloser
		if rc, err = store.Get("s1.snap"); err == nil {
			_, err = core.RestoreSession(rc, nil)
			rc.Close()
		}
	})
	if err != nil {
		return err
	}
	encode := k.timeIt("core", opID, "snapshot", func() { err = sess.Snapshot(io.Discard) })
	if err != nil {
		return err
	}
	cache := sess.Cache
	var buf bytes.Buffer
	enc := k.timeIt("bayeslsh", opID, "encode", func() { err = cache.EncodeSnapshot(&buf) })
	if err != nil {
		return err
	}
	dec := k.timeIt("bayeslsh", opID, "decode", func() { _, err = bayeslsh.DecodeSnapshot(bytes.NewReader(buf.Bytes())) })
	if err != nil {
		return err
	}
	// A revive is a decode fed by the store; what that costs beyond a decode
	// from memory is the store's. On the cluster the revive also evicts a
	// full-size neighbour, whose spill (encode + write) lands in the same
	// request; on a single node the victim is the 2-row filler.
	k.leaf[clsRevive]["blob"] = max(0, fromStore-fromMemory)
	k.inner[clsRevive] = [2]float64{fromMemory, dec}
	k.leaf[clsSpill]["blob"] = put
	k.inner[clsSpill] = [2]float64{encode, enc}
	k.spillS = encode + put
	if k.e.mixed != nil {
		k.leaf[clsRevive]["blob"] += put
		k.inner[clsRevive] = [2]float64{fromMemory + encode, dec + enc}
	}
	m["bayeslsh.encode_mb_per_s"], m["bayeslsh.decode_mb_per_s"] = float64(buf.Len())/1e6/enc, float64(buf.Len())/1e6/dec
	return nil
}

// engineKernels measures the pair store, an exhausted-cache probe, and the
// engine's memory cost, on the kernel session (which it uses up).
func (k *kernels) engineKernels(m map[string]float64, sess *core.Session, create *op, t float64) {
	store := sess.Cache.Pairs
	keys := make([]uint64, 0, store.Len())
	states := make([]bayeslsh.PairState, 0, store.Len())
	store.Range(func(key uint64, ps bayeslsh.PairState) bool {
		keys, states = append(keys, key), append(states, ps)
		return true
	})
	n := float64(max(1, len(keys)))
	m["bayeslsh.pairstore_get_ns"] = 1e9 * repeat(func() {
		for _, key := range keys {
			if ps, _ := store.Get(key); ps.Done {
				k.sink++
			}
		}
	}) / n
	m["bayeslsh.pairstore_update_ns"] = 1e9 * repeat(func() {
		for i, key := range keys {
			store.Update(key, states[i])
		}
	}) / n

	// Exhaust the evidence, then time a probe that is all cache hits.
	for i := 0; i < mixedExhaust; i++ {
		if _, err := sess.Probe(t); err != nil {
			m["bayeslsh.hit_probe_s"] = 0
			return
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m["bayeslsh.hit_probe_s"] = k.timeIt("bayeslsh", "kernel", "hit probe", func() { _, _ = sess.Probe(t) }) // the error case was excluded by the loop above
	runtime.ReadMemStats(&ms1)
	m["bayeslsh.probe_allocs"] = float64(ms1.Mallocs - ms0.Mallocs)

	// Heap held per cached pair: a fresh cache after its first probe, with
	// everything else collected (two cycles each time: sync.Pool contents
	// survive one).
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	fresh := core.NewSession(create.data.Dataset(0, create.to), bayeslsh.DefaultParams(), create.seed)
	if _, err := fresh.Probe(0.9); err != nil {
		m["bayeslsh.heap_bytes_per_pair"] = 0
		return
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	m["bayeslsh.heap_bytes_per_pair"] = ratio(float64(ms1.HeapAlloc)-float64(ms0.HeapAlloc), float64(fresh.CachedPairs()))
	runtime.KeepAlive(fresh)
}

// proxyHop measures what the cluster's single proxy hop adds to a cheap
// read: the same GET against a session's owner and against its peer, on an
// in-process two-node cluster over loopback.
func (k *kernels) proxyHop(m map[string]float64) error {
	nodes, err := boot(context.Background(), "", topology{nodes: 2, capacity: 2, stateDir: filepath.Join(k.dir, "pair-state")}, true)
	if err != nil {
		return fmt.Errorf("proxy-hop pair: %w", err)
	}
	defer stopAll(nodes)
	client := newClient()
	owner := newHTTPTarget(client, nodes[0].url)
	if _, err := owner.do(&op{kind: opFiller, slot: slotMain}); err != nil {
		return fmt.Errorf("proxy-hop pair: %w", err)
	}
	peer := newHTTPTarget(client, nodes[1].url)
	peer.ids[slotMain] = owner.ids[slotMain]
	var direct, hopped []float64
	for i := 0; i < 300; i++ {
		for _, side := range []struct {
			t   *httpTarget
			out *[]float64
		}{{owner, &direct}, {peer, &hopped}} {
			t0 := time.Now()
			if _, err := side.t.do(&op{kind: opInfo, slot: slotMain}); err != nil {
				return fmt.Errorf("proxy-hop pair: %w", err)
			}
			*side.out = append(*side.out, time.Since(t0).Seconds())
		}
	}
	m["server.proxy_hop_us"] = 1e6 * (median(hopped) - median(direct))
	return nil
}
