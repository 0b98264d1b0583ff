package par

import (
	"sync/atomic"
	"testing"
)

// TestForVisitsEveryIndexOnce: whatever the worker count, and with n not a
// multiple of the chunk, every index is visited exactly once.
func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 1003} {
		for _, workers := range []int{1, 2, 7} {
			for _, chunk := range []int{1, 16, 64} {
				visits := make([]atomic.Int32, n)
				For(n, workers, chunk, func(i int) { visits[i].Add(1) })
				for i := range visits {
					if got := visits[i].Load(); got != 1 {
						t.Fatalf("n=%d workers=%d chunk=%d: index %d visited %d times", n, workers, chunk, i, got)
					}
				}
			}
		}
	}
}
