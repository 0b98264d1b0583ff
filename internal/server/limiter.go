package server

import (
	"math"
	"sync"
	"time"
)

// tokenLimiter is a per-key token-bucket rate limiter: each key (a session
// ID — the tenant of a probe daemon) gets rate tokens per second up to a
// burst ceiling, and every request spends one. A tenant that hammers the
// daemon drains only its own bucket; everyone else's probes keep flowing,
// which is the whole point of keying by session rather than globally.
//
// Time is always passed in by the caller, so the refill arithmetic is a
// pure function of (state, now) and tests can drive it with a fake clock.
type tokenLimiter struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity

	mu      sync.Mutex
	buckets map[string]*bucket
}

// bucket is one key's token state (guarded by the limiter mutex — the
// per-request critical section is a handful of float ops).
type bucket struct {
	tokens float64
	last   time.Time
}

// limiterMaxKeys bounds the bucket map. Session IDs arrive from URLs, so
// unknown IDs (404s) make buckets too; without a bound, an ID-spraying
// client could grow the map forever. At the cap, stale full buckets are
// swept; if everything is live, the oldest entry is dropped (dropping a
// bucket only ever refunds at most one burst).
const limiterMaxKeys = 4096

func newTokenLimiter(rate, burst float64) *tokenLimiter {
	if burst < 1 {
		burst = 1
	}
	return &tokenLimiter{rate: rate, burst: burst, buckets: make(map[string]*bucket)}
}

// allow spends one token from key's bucket. When the bucket is empty it
// reports ok=false and how long until a token is available.
func (l *tokenLimiter) allow(key string, now time.Time) (retryAfter time.Duration, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, found := l.buckets[key]
	if !found {
		if len(l.buckets) >= limiterMaxKeys {
			l.evictLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		elapsed := now.Sub(b.last).Seconds()
		if elapsed > 0 {
			b.tokens = math.Min(l.burst, b.tokens+float64(elapsed*l.rate))
			b.last = now
		}
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	return time.Duration((1 - b.tokens) / l.rate * float64(time.Second)), false
}

// evictLocked makes room in the bucket map: drop every bucket that has
// fully refilled (indistinguishable from a fresh one), and if none had,
// drop the least-recently-touched entry.
func (l *tokenLimiter) evictLocked(now time.Time) {
	var oldestKey string
	var oldest time.Time
	for k, b := range l.buckets {
		if b.tokens+float64(now.Sub(b.last).Seconds()*l.rate) >= l.burst {
			delete(l.buckets, k)
			continue
		}
		if oldestKey == "" || b.last.Before(oldest) {
			oldestKey, oldest = k, b.last
		}
	}
	if len(l.buckets) >= limiterMaxKeys && oldestKey != "" {
		delete(l.buckets, oldestKey)
	}
}

// retryAfterSeconds renders a retry delay as the integer seconds of a
// Retry-After header: rounded up, at least 1 — "retry immediately" on a
// 429 would just teach clients to busy-loop.
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}
