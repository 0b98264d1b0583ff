package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"plasmahd/internal/bayeslsh"
	"plasmahd/internal/blob"
	"plasmahd/internal/core"
	"plasmahd/internal/metrics"
	"plasmahd/internal/vec"
)

// ErrCapacity is returned when the manager is full and every resident
// session is busy, so nothing can be evicted to make room.
var ErrCapacity = errors.New("server: session capacity reached and all sessions are busy")

// ErrNotFound is returned for session IDs that are neither resident nor in
// the blob store (never created, deleted, or evicted by a daemon without one).
var ErrNotFound = errors.New("server: no such session")

// Manager owns the named probe sessions of a plasmad instance. Sessions are
// keyed by ID; at capacity the least-recently-used *idle* session is evicted
// to admit a new one (a session is idle when no request holds it). All
// methods are safe for concurrent use — the point of the server is that many
// clients share one manager, and many clients share one session's knowledge
// cache.
type Manager struct {
	capacity int
	nextID   atomic.Int64
	stats    Stats
	reg      *metrics.Registry

	// retiredCueHits/Misses/IndexRebuilds accumulate the per-session
	// counters of sessions that left the manager (see detachLocked), so the
	// manager-wide totals stay monotone across session churn: live sessions
	// are summed at read time, departed ones are folded in here first.
	retiredCueHits     atomic.Int64
	retiredCueMisses   atomic.Int64
	retiredIdxRebuilds atomic.Int64

	// owns, when set, restricts which session IDs this manager may mint: in
	// cluster mode each node creates only sessions the consistent-hash ring
	// assigns to it, so the global "s<n>" ID space partitions across nodes
	// with no coordination and no collisions (see mintID). server.New sets
	// it, like store and logf, once, before the manager serves anything.
	owns func(string) bool

	// store is where sessions go when they leave memory and where they come
	// back from (nil: persistence off, an evicted session is gone). logf is
	// the server's log; a standalone manager's is silent.
	store blob.Store
	logf  func(format string, args ...any)

	snapBytesIn  *metrics.Counter // snapshot bytes decoded (restore uploads, revives, warm boots)
	snapBytesOut *metrics.Counter // snapshot bytes encoded (downloads, persists, spills, shutdown saves)

	// mu guards slots: where every session ID lives right now (lifecycle.go).
	mu    sync.Mutex
	slots map[string]*slot
}

// mintID allocates the next session ID this node is allowed to own. The
// counter is global across the cluster's ID space, so skipped IDs (owned by
// peers) are simply never minted anywhere else either — each node walks the
// same sequence and keeps only its own residue class under the ring hash.
func (m *Manager) mintID() string {
	for {
		id := fmt.Sprintf("s%d", m.nextID.Add(1))
		if m.owns == nil || m.owns(id) {
			return id
		}
	}
}

// NewManager returns an empty manager admitting up to capacity resident
// sessions (minimum 1). The manager owns the process's metrics registry:
// its counter block is registered there at construction, and both stats
// surfaces render that registry.
func NewManager(capacity int) *Manager {
	if capacity < 1 {
		capacity = 1
	}
	m := &Manager{
		capacity: capacity,
		slots:    make(map[string]*slot),
		reg:      metrics.NewRegistry(),
		logf:     func(string, ...any) {},
	}
	m.stats = Stats{
		SessionsCreated:  m.reg.Counter("plasmad_sessions_created_total", "Sessions created via POST /v1/sessions."),
		SessionsEvicted:  m.reg.Counter("plasmad_sessions_evicted_total", "Sessions evicted by the capacity LRU."),
		SessionsDeleted:  m.reg.Counter("plasmad_sessions_deleted_total", "Sessions removed by explicit DELETE."),
		SessionsSpilled:  m.reg.Counter("plasmad_sessions_spilled_total", "Evictions persisted to the blob store instead of discarded."),
		SpillFailures:    m.reg.Counter("plasmad_spill_failures_total", "Eviction spills that failed, losing the victim's cached evidence."),
		SessionsRestored: m.reg.Counter("plasmad_sessions_restored_total", "Sessions rebuilt from snapshots (warm boot, revival, restore API)."),
		Probes:           m.reg.Counter("plasmad_probes_total", "Probes executed by the engine (batch members included)."),
		ProbesCoalesced:  m.reg.Counter("plasmad_probes_coalesced_total", "Probe requests that joined an in-flight identical probe."),
		Requests:         m.reg.Counter("plasmad_http_requests_started_total", "HTTP requests received, before routing."),
		Errors:           m.reg.Counter("plasmad_request_errors_total", "Error responses: every error envelope written, plus recovered panics."),
	}
	m.snapBytesIn = m.reg.Counter("plasmad_snapshot_bytes_in_total",
		"Snapshot bytes decoded: restore uploads, disk revives, warm boots.")
	m.snapBytesOut = m.reg.Counter("plasmad_snapshot_bytes_out_total",
		"Snapshot bytes encoded: downloads, explicit persists, eviction spills, shutdown saves.")
	m.reg.GaugeFunc("plasmad_sessions_resident", "Sessions currently resident in memory.",
		func() float64 { return float64(m.Len()) })
	m.reg.GaugeFunc("plasmad_sessions_capacity", "Configured resident-session capacity.",
		func() float64 { return float64(capacity) })
	m.reg.CounterFunc("plasmad_cue_cache_hits_total", "CueSet lookups served from the per-session memoized LRU.",
		func() int64 { h, _ := m.CueCacheStats(); return h })
	m.reg.CounterFunc("plasmad_cue_cache_misses_total", "CueSet lookups that materialized a threshold graph.",
		func() int64 { _, mi := m.CueCacheStats(); return mi })
	m.reg.CounterFunc("plasmad_index_rebuilds_total",
		"Candidate-index rebuilds triggered by appended rows crossing the amortization threshold.",
		m.IndexRebuilds)
	return m
}

// IndexRebuilds sums the candidate-index rebuild counters over resident
// sessions plus the retired accumulator (monotone across session churn).
func (m *Manager) IndexRebuilds() int64 {
	total := m.retiredIdxRebuilds.Load()
	m.eachResident(func(ms *ManagedSession) { total += ms.Session.Cache.IndexRebuilds() })
	return total
}

// Registry returns the manager's metrics registry, so the HTTP layer can
// register its own request metrics alongside the session counters.
func (m *Manager) Registry() *metrics.Registry { return m.reg }

// CueCacheStats sums the cue-LRU hit/miss counters over resident sessions
// plus the retired accumulator, so the totals are monotone across eviction
// and deletion.
func (m *Manager) CueCacheStats() (hits, misses int64) {
	hits, misses = m.retiredCueHits.Load(), m.retiredCueMisses.Load()
	m.eachResident(func(ms *ManagedSession) {
		h, mi := ms.Session.CueCacheStats()
		hits += h
		misses += mi
	})
	return hits, misses
}

// Stats is the manager's counter block: handles into the metrics registry,
// through which the code increments them. GET /v1/stats and /metrics read
// the registry, never this block.
type Stats struct {
	SessionsCreated  *metrics.Counter
	SessionsEvicted  *metrics.Counter
	SessionsDeleted  *metrics.Counter
	SessionsSpilled  *metrics.Counter // evictions that went to the blob store, not oblivion
	SpillFailures    *metrics.Counter // spills that failed — evidence lost despite a configured store
	SessionsRestored *metrics.Counter // sessions rebuilt from snapshots (boot, revive, restore API)
	Probes           *metrics.Counter
	ProbesCoalesced  *metrics.Counter
	Requests         *metrics.Counter
	Errors           *metrics.Counter
}

// ManagedSession wraps one core.Session with the bookkeeping the server
// needs: an ID, LRU and busy accounting, and the per-threshold singleflight
// table that coalesces duplicate in-flight probes.
type ManagedSession struct {
	ID      string
	Session *core.Session
	Created time.Time

	lastUsed atomic.Int64 // unix nanos; LRU eviction order
	active   atomic.Int64 // requests currently holding the session

	flightMu sync.Mutex
	flight   map[float64]*probeFlight
}

// probeFlight is one in-flight probe that later duplicate requests at the
// same threshold attach to instead of re-running.
type probeFlight struct {
	done chan struct{}
	res  *bayeslsh.Result
	err  error
}

// touch records a use for LRU ordering.
func (ms *ManagedSession) touch() { ms.lastUsed.Store(time.Now().UnixNano()) }

// release undoes Acquire.
func (ms *ManagedSession) release() { ms.active.Add(-1) }

// Idle reports whether no request currently holds the session.
func (ms *ManagedSession) Idle() bool { return ms.active.Load() == 0 }

// LastUsed returns the time of the session's most recent use.
func (ms *ManagedSession) LastUsed() time.Time { return time.Unix(0, ms.lastUsed.Load()) }

// Probe runs (or joins) a probe at threshold t. Duplicate in-flight probes
// at the same threshold coalesce onto one engine run via the singleflight
// table — with a shared knowledge cache a second concurrent run at the same
// threshold could only redo identical hash comparisons. coalesced reports
// whether this call joined an existing run. A per-call worker override only
// applies to the run this call starts (joiners inherit the owner's pool).
// A run that panics is reported as an error, to its joiners too: the flight
// leaves the table on every way out, or each later probe at t would join a
// dead flight and wait forever.
func (ms *ManagedSession) Probe(t float64, workers int, stats *Stats) (res *bayeslsh.Result, coalesced bool, err error) {
	ms.flightMu.Lock()
	if f, ok := ms.flight[t]; ok {
		ms.flightMu.Unlock()
		<-f.done
		if stats != nil {
			stats.ProbesCoalesced.Add(1)
		}
		return f.res, true, f.err
	}
	f := &probeFlight{done: make(chan struct{})}
	if ms.flight == nil {
		ms.flight = make(map[float64]*probeFlight)
	}
	ms.flight[t] = f
	ms.flightMu.Unlock()
	defer func() {
		if rec := recover(); rec != nil {
			f.err = fmt.Errorf("probe panicked: %v", rec)
			res, err = nil, f.err
		}
		ms.flightMu.Lock()
		delete(ms.flight, t)
		ms.flightMu.Unlock()
		close(f.done)
	}()

	f.res, f.err = ms.Session.ProbeWorkers(t, workers)
	if stats != nil {
		stats.Probes.Add(1)
	}
	return f.res, false, f.err
}

// Create sketches ds into a new session and registers it, evicting the
// least-recently-used idle session if the manager is at capacity. Sketching
// happens outside the manager lock — it is the expensive start-up cost of
// Fig 2.9 — so concurrent creates do not serialize on it.
func (m *Manager) Create(ds *vec.Dataset, p bayeslsh.Params, seed int64) (*ManagedSession, error) {
	ms := &ManagedSession{
		ID:      m.mintID(),
		Session: core.NewSession(ds, p, seed),
		Created: time.Now(),
	}
	if err := m.admit(ms); err != nil {
		return nil, err
	}
	m.stats.SessionsCreated.Add(1)
	return ms, nil
}

// AdmitNew registers a session restored from a snapshot under a fresh ID
// (the POST /v1/sessions/restore path: the snapshot may come from another
// daemon whose IDs collide with ours).
func (m *Manager) AdmitNew(ms *ManagedSession) error {
	ms.ID = m.mintID()
	if err := m.admit(ms); err != nil {
		return err
	}
	m.stats.SessionsRestored.Add(1)
	return nil
}

// bumpNextID advances the ID counter past an "s<n>" ID that a session
// holds or a stored snapshot names, so freshly created sessions never
// collide with one.
func (m *Manager) bumpNextID(id string) {
	n, ok := stateIDNum(id)
	if !ok {
		return
	}
	for {
		cur := m.nextID.Load()
		if cur >= n || m.nextID.CompareAndSwap(cur, n) {
			return
		}
	}
}

// List returns the resident sessions sorted by ID.
func (m *Manager) List() []*ManagedSession {
	var out []*ManagedSession
	m.eachResident(func(ms *ManagedSession) { out = append(out, ms) })
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Len returns the number of resident sessions.
func (m *Manager) Len() int {
	n := 0
	m.eachResident(func(*ManagedSession) { n++ })
	return n
}

// eachResident calls fn for every resident session, under the manager lock.
func (m *Manager) eachResident(fn func(*ManagedSession)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, sl := range m.slots {
		if sl.ms != nil {
			fn(sl.ms)
		}
	}
}
