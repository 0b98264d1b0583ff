package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"plasmahd/bench/gen"
)

// serve-mixed: nproc closed-loop clients against a 3-node cluster over one
// shared blob dir. Nine resident sessions (6 cosine, 3 Jaccard), three
// created through — and therefore owned by — each node, on nodes that hold
// two: one session per node is always spilled. Every session's evidence is
// exhausted during set-up, so measured probes are pure cache hits and every
// answer is a fixed function of (session, request), checkable against a
// single-node shadow whatever the interleaving. Requests enter round-robin
// over the nodes, so about two thirds take the proxy hop.
//
// Each node's sessions belong to one client, and a client's lifecycle visits
// create their temporary sessions only through that client's nodes, so every
// eviction on a node is caused by the one client using it. That is on
// purpose: plasmad unlinks an eviction victim before its spill is written,
// and a request for the victim inside that window is answered 404 (manager.go
// documents the window as benign). With clients evicting each other's
// sessions about one first touch in two thousand hit it; a workload must not
// contain operations that fail, so this one keeps the two apart.

const (
	mixedNodes      = 3
	mixedSessions   = 9
	mixedVisitLen   = 20 // requests per standard visit, its first touch included
	mixedLifecycle  = 5  // every n-th visit of a client is a lifecycle visit
	mixedVisits     = 60 // visits generated per client; the schedule repeats beyond that
	mixedExhaust    = 10 // probes at the floor threshold that exhaust all evidence
	mixedTempPool   = 4  // distinct datasets for lifecycle visits
	mixedTempAppend = 75
	slotTemp        = 100 // lifecycle visit: temporary session
	slotTempCopy    = 101 // lifecycle visit: its restored copy
)

var (
	mixedCueThresholds = []float64{0.6, 0.7, 0.8}
	mixedProbeLadder   = []float64{0.5, 0.6, 0.7, 0.8, 0.9}
)

// mixedSession is one resident session.
type mixedSession struct {
	data *gen.Data
	seed int64
	id   string // assigned by the owning node at install
	node int    // index of the node it was created through (its owner)
}

// visit is one client's run of requests. It opens by touching resident
// sessions — each touch a revive when the session was spilled, else a read —
// and then issues ops. A standard visit touches its one session; a lifecycle
// visit touches two sessions of one node, which fills the node, so that its
// create and its restore each evict and spill one of them: always, not
// depending on what happened to be resident.
type visit struct {
	touches   []int // resident session indices
	lifecycle bool
	ops       []op
}

type mixedPlan struct {
	clients  int
	sessions []mixedSession
	visits   [][]visit // per client

	// answers are the measured phase's results on resident sessions, kept
	// for the comparison with the shadow.
	mu      sync.Mutex
	answers []mixedAnswer
}

type mixedAnswer struct {
	session int
	op      *op
	res     result
}

// mixedClients is the number of closed-loop clients: nproc, but no more
// than there are nodes to own.
func mixedClients() int { return min(runtime.NumCPU(), mixedNodes) }

// planMixed generates the sessions and every client's visit schedule from
// the seed. Node n and its sessions belong to client n mod clients, so
// within a visit only that client touches the session and the memoisation
// state the schedule assumes is the real one.
func planMixed(seed int64, scale float64) *mixedPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &mixedPlan{clients: mixedClients()}
	cos := denseCorpus
	cos.Rows = scaled(mixedRows, scale, 60)
	sets := mixedSets
	sets.Rows = scaled(sets.Rows, scale, 100)
	sets.Dim = scaled(sets.Dim, scale, 50_000)
	for k := 0; k < mixedSessions; k++ {
		s := mixedSession{seed: 1 + rng.Int63n(1<<30), node: k % mixedNodes}
		if k/mixedNodes == 2 {
			s.data = sets.Generate(rng.Int63())
		} else {
			s.data = cos.Generate(rng.Int63())
		}
		p.sessions = append(p.sessions, s)
	}
	temp := denseCorpus
	tempRows := scaled(mixedTempRows, scale, 40)
	temp.Rows = tempRows + scaled(mixedTempAppend, scale, 10)
	temps := make([]*gen.Data, mixedTempPool)
	for i := range temps {
		temps[i] = temp.Generate(rng.Int63())
	}
	p.visits = make([][]visit, p.clients)
	for c := range p.visits {
		var own, nodes []int
		for k := 0; k < mixedSessions; k++ {
			if p.sessions[k].node%p.clients == c {
				own = append(own, k)
			}
		}
		for n := c; n < mixedNodes; n += p.clients {
			nodes = append(nodes, n)
		}
		last := -1
		for v := 0; v < mixedVisits; v++ {
			if v%mixedLifecycle == mixedLifecycle-1 {
				node := nodes[rng.Intn(len(nodes))]
				var on []int
				for _, k := range own {
					if p.sessions[k].node == node {
						on = append(on, k)
					}
				}
				rng.Shuffle(len(on), func(a, b int) { on[a], on[b] = on[b], on[a] })
				p.visits[c] = append(p.visits[c], visit{touches: on[:2], lifecycle: true,
					ops: lifecycleOps(temps[rng.Intn(len(temps))], tempRows, 1+rng.Int63n(1<<30), node)})
				continue
			}
			k := own[rng.Intn(len(own))]
			for k == last {
				k = own[rng.Intn(len(own))]
			}
			last = k
			p.visits[c] = append(p.visits[c], visit{touches: []int{k}, ops: standardVisit(rng, k)})
		}
	}
	return p
}

// standardVisit draws the requests that follow a standard visit's first
// touch: 25 % probes (one in five a batch of three), 5 % curves and 70 %
// reads. A probe invalidates the memoised cue set (and a revive starts with
// none), so the first cues/graph read after one is a cold materialisation
// and is scheduled — and classed — as such.
func standardVisit(rng *rand.Rand, session int) []op {
	var b scriptBuilder
	cueT := mixedCueThresholds[rng.Intn(len(mixedCueThresholds))]
	memo := false
	for len(b.ops) < mixedVisitLen-1 {
		switch u := rng.Float64(); {
		case u < 0.20:
			b.probe(session, clsProbe, mixedProbeLadder[rng.Intn(len(mixedProbeLadder))])
			memo = false
		case u < 0.25:
			ts := make([]float64, 3)
			for i := range ts {
				ts[i] = mixedProbeLadder[rng.Intn(len(mixedProbeLadder))]
			}
			b.add(op{kind: opBatch, slot: session, class: clsProbe, ts: ts, body: batchBody(ts)})
			memo = false
		case u < 0.30:
			b.curve(session, 0.5, 0.95, mixedSteps)
		default:
			kind := []opKind{opInfo, opCues, opGraph, opStats, opMetrics}[rng.Intn(5)]
			switch {
			case (kind == opCues || kind == opGraph) && !memo:
				b.add(op{kind: opCues, slot: session, class: clsCuesCold, t: cueT})
				memo = true
			case kind == opCues || kind == opGraph:
				b.add(op{kind: kind, slot: session, class: clsRead, t: cueT})
			case kind == opInfo:
				b.add(op{kind: kind, slot: session, class: clsRead})
			default:
				b.add(op{kind: kind, class: clsRead})
			}
		}
	}
	return b.ops
}

// lifecycleOps is a lifecycle visit: a whole short session life inside the
// mixed traffic — upload, first answer, cold cues, an appended batch, a
// curve, archive, restore, and a check that the copy answers like the
// original. The create and the restore enter through the given node (which
// then owns the new session), and each pushes one of the node's two resident
// sessions out to the blob store.
func lifecycleOps(d *gen.Data, rows int, seed int64, node int) []op {
	var b scriptBuilder
	b.create(slotTemp, d, rows, seed)
	b.ops[0].node = node + 1
	b.probe(slotTemp, clsFirst, 0.8)
	b.add(op{kind: opCues, slot: slotTemp, class: clsCuesCold, t: 0.8})
	b.appendRows(slotTemp, d, rows, len(d.Rows))
	b.probe(slotTemp, clsProbe, 0.8)
	b.curve(slotTemp, 0.5, 0.95, mixedSteps)
	b.add(op{kind: opInfo, slot: slotTemp, class: clsRead})
	b.add(op{kind: opSnapshot, slot: slotTemp, class: clsSnapshot})
	b.add(op{kind: opRestore, slot: slotTempCopy, class: clsRestore, node: node + 1})
	b.probePair(slotTemp, slotTempCopy, 0.8)
	b.add(op{kind: opDelete, slot: slotTemp, class: clsUntimed})
	b.add(op{kind: opDelete, slot: slotTempCopy, class: clsUntimed})
	return b.ops
}

// warmOps creates a resident session and exhausts its evidence: ten probes
// at the ladder's floor deepen every pruned pair to the end of its sketch
// and finalise it, after which any probe at any threshold is answered from
// the cache alone. The cue sets are materialised once as well.
func warmOps(slot int, s mixedSession) []op {
	var b scriptBuilder
	b.create(slot, s.data, len(s.data.Rows), s.seed)
	ts := make([]float64, mixedExhaust)
	for i := range ts {
		ts[i] = mixedProbeLadder[0]
	}
	b.add(op{kind: opBatch, slot: slot, class: clsUntimed, ts: ts, body: batchBody(ts)})
	for _, t := range mixedCueThresholds {
		b.add(op{kind: opCues, slot: slot, class: clsUntimed, t: t})
	}
	return b.ops
}

// install is serve-mixed's pre-warm: create the nine sessions, three
// through each node, and warm them.
func (p *mixedPlan) install(e *env, rec *recorder) {
	client := newClient()
	for k := range p.sessions {
		s := &p.sessions[k]
		t := newHTTPTarget(client, e.nodes[s.node].url)
		runScript(t, "client", -1, warmOps(k, *s), rec, nil)
		s.id = t.ids[k]
	}
}

// resident reports whether session k is in memory on its owner, by an
// untimed session listing asked of the owner directly.
func resident(owner *httpTarget, id string) (bool, error) {
	var list struct {
		Sessions []wireSession `json:"sessions"`
	}
	if _, err := owner.call("GET", "/v1/sessions", nil, &list); err != nil {
		return false, err
	}
	for _, s := range list.Sessions {
		if s.ID == id {
			return true, nil
		}
	}
	return false, nil
}

// visitLoop is one closed-loop client: client c's visit schedule against t,
// one request in flight at a time, until done says stop (asked at visit
// boundaries only). t.ids holds the resident sessions' IDs; owner(k) reaches
// session k's owning node directly. With record set, answers on resident
// sessions are kept for verify.
func (p *mixedPlan) visitLoop(ctx context.Context, t *httpTarget, layer string, owner func(k int) *httpTarget, c int, done func(v int) bool, rec *recorder, record bool) {
	for v := 0; !done(v) && ctx.Err() == nil && rec.failed == 0; v++ {
		vis := p.visits[c][v%len(p.visits[c])]
		unit := c*10000 + v
		start := time.Now()
		for i, k := range vis.touches {
			in, err := resident(owner(k), t.ids[k])
			if err != nil {
				rec.fail("client %d visit %d: listing sessions: %v", c, v, err)
				return
			}
			touch := []op{{kind: opInfo, slot: k, class: clsRead}}
			if !in {
				touch[0].class = clsRevive
			}
			runScript(t, layer, unit*10+i, touch, rec, nil)
		}
		keep := make([]result, len(vis.ops))
		runScript(t, layer, unit*10+len(vis.touches), vis.ops, rec, keep)
		if vis.lifecycle {
			continue
		}
		rec.units = append(rec.units, time.Since(start).Seconds())
		if record && rec.failed == 0 {
			p.mu.Lock()
			for i := range vis.ops {
				p.answers = append(p.answers, mixedAnswer{session: vis.touches[0], op: &vis.ops[i], res: keep[i]})
			}
			p.mu.Unlock()
		}
	}
}

// drive runs nproc clients against the live cluster for the configured
// time: each on its own connections, entering round-robin over the nodes.
func (p *mixedPlan) drive(ctx context.Context, e *env, seconds float64, rec *recorder) (wall float64, requests int, err error) {
	const minVisits = 2 * mixedLifecycle // at least two lifecycle visits per client, whatever the clock says
	budget := time.Duration(seconds * float64(time.Second))
	recs := make([]*recorder, p.clients)
	targets := make([]*httpTarget, p.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = newRecorder()
		recs[c].spans = rec.spans
		t := newHTTPTarget(newClient(), e.urls()...)
		t.next = c // stagger the round-robin entry points
		for _, nd := range e.nodes {
			t.names = append(t.names, nd.name)
		}
		owners := make([]*httpTarget, len(e.nodes))
		for i, nd := range e.nodes {
			owners[i] = newHTTPTarget(t.client, nd.url)
		}
		for k, s := range p.sessions {
			t.ids[k] = s.id
		}
		targets[c] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.visitLoop(ctx, t, "client", func(k int) *httpTarget { return owners[p.sessions[k].node] }, c,
				func(v int) bool { return v >= minVisits && time.Since(start) > budget }, recs[c], true)
			for _, o := range owners {
				t.requests += o.requests
			}
		}()
	}
	wg.Wait()
	wall = time.Since(start).Seconds()
	for c := range recs {
		rec.merge(recs[c])
		requests += targets[c].requests
		rec.proxied += targets[c].proxied
	}
	return wall, requests, ctx.Err()
}

// replay feeds client c's first n visits to a shadow target (core.Session or
// bayeslsh.Cache level) whose resident sessions were built by warmOps; there
// is no residency at those layers, so no visit is a revive.
func (p *mixedPlan) replay(t target, layer string, c, n int, rec *recorder) {
	warm := newRecorder()
	for k, s := range p.sessions {
		runScript(t, layer, -1, warmOps(k, s), warm, nil)
	}
	rec.failed += warm.failed
	rec.errs = append(rec.errs, warm.errs...)
	for v := 0; v < n && rec.failed == 0; v++ {
		vis := p.visits[c][v%len(p.visits[c])]
		for i, k := range vis.touches {
			runScript(t, layer, (c*10000+v)*10+i, []op{{kind: opInfo, slot: k, class: clsRead}}, rec, nil)
		}
		runScript(t, layer, (c*10000+v)*10+len(vis.touches), vis.ops, rec, nil)
	}
}

// verify replays nothing through the daemon: it builds the single-node
// shadow of every resident session (same rows, same warm-up) and checks
// that each measured answer is the one the shadow gives for that request.
// Exhausted evidence makes every answer independent of request order; only
// the probe count in a session summary depends on history, so it is left
// out of the comparison.
func (p *mixedPlan) verify(rec *recorder) error {
	shadow := newCoreTarget()
	warm := newRecorder()
	for k, s := range p.sessions {
		runScript(shadow, "core", -1, warmOps(k, s), warm, nil)
	}
	if warm.failed > 0 {
		rec.fail("shadow warm-up failed: %v", warm.errs)
		return nil
	}
	want := make(map[string]result)
	for _, a := range p.answers {
		key := fmt.Sprintf("%d %v %v %v %v %v %d", a.session, a.op.kind, a.op.t, a.op.ts, a.op.lo, a.op.hi, a.op.steps)
		exp, ok := want[key]
		if !ok {
			var err error
			if exp, err = shadow.do(a.op); err != nil {
				return fmt.Errorf("shadow %s: %w", key, err)
			}
			exp.probeCount = 0
			want[key] = exp
		}
		got := a.res
		got.probeCount = 0
		rec.attempted++
		if diff := got.diff(exp); diff != "" {
			rec.fail("serve-mixed vs single-node shadow, session %d %v: %s", a.session, a.op.kind, diff)
		}
	}
	return nil
}
