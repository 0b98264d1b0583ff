// Package prealloctest is the prealloc golden fixture: the PR 4 bug class
// — a decoder preallocating straight from a decoded count, handing memory
// control to whoever forges the stream.
package prealloctest

const maxPrealloc = 4096

// decode mimics a snapshot decoder; n and ln arrived off the wire.
func decode(n int, ln uint32) ([][]byte, []int32, []float64) {
	head := make([]byte, 8)                            // constant: fine
	rows := make([][]byte, n)                          // want "make sized by n"
	ids := make([]int32, 0, min(int(ln), maxPrealloc)) // capped append pattern: fine
	vals := make([]float64, ln)                        // want "make sized by ln"
	buf := make([]byte, len(head))                     // len of in-memory value: fine
	_ = buf
	return rows, ids, vals
}

// index mimics a map preallocation from a decoded count.
func index(n int) map[int32][]int32 {
	return make(map[int32][]int32, n) // want "make sized by n"
}
