// Package par is the repo's one fan-out: every place that spreads
// independent index-addressed work over goroutines goes through For, so
// "byte-identical for any worker count" has one implementation to be true of.
package par

import (
	"sync"
	"sync/atomic"
)

// For calls fn(i) exactly once for every i in [0, n), on up to workers
// goroutines that take chunk consecutive indices at a time from an atomic
// cursor, and returns when all calls have. The worker count is clamped to
// n/chunk — below one chunk per worker the goroutines cost more than they
// save — and a clamped count of one or less runs serially on the caller's
// goroutine. fn must write only what belongs to index i; then the result
// does not depend on workers or on scheduling.
func For(n, workers, chunk int, fn func(i int)) {
	if workers > n/chunk {
		workers = n / chunk
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := min(lo+chunk, n)
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}
