// Package atomicmixtest is the atomicmix golden fixture: the PR 5
// SRP.gaussRow bug class — a plain field touched through function-style
// sync/atomic, which nothing stops another line from reading bare.
package atomicmixtest

import "sync/atomic"

type counter struct {
	hits  int64
	typed atomic.Int64
	ptr   atomic.Pointer[int64]
	plain int64
}

func (c *counter) bump() {
	atomic.AddInt64(&c.hits, 1) // want "function-style atomic.AddInt64"
}

// read is the historical bug: a bare read racing the atomic add. The read
// itself is legal Go; the function-style call above is what makes it possible.
func (c *counter) read() int64 {
	return c.hits
}

func (c *counter) claim() bool {
	return atomic.CompareAndSwapInt64(&c.hits, 0, 1) || // want "function-style atomic.CompareAndSwapInt64"
		atomic.LoadInt64(&c.hits) > 1 // want "function-style atomic.LoadInt64"
}

// typedOnly is compliant: typed atomics have no bare access to mix with.
func (c *counter) typedOnly(v *int64) int64 {
	c.ptr.Store(v)
	c.typed.Add(1)
	return c.typed.Load() + *c.ptr.Load()
}

// onlyPlain is untouched by the analyzer: no atomics at all.
func (c *counter) onlyPlain() int64 {
	c.plain++
	return c.plain
}
