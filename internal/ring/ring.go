// Package ring provides a growable circular FIFO buffer.
//
// It exists because the obvious Go queue idiom — append to push,
// `q = q[1:]` to pop — is O(n) in aggregate: every pop leaks the popped
// slot until the next append reallocates, and a long-lived queue that
// cycles many elements through a small working set keeps the garbage
// collector busy re-copying the live tail. Ring pops in O(1), reuses its
// slots, and only reallocates when the live element count actually grows.
// The simulation kernel's wait queues (internal/sim) and other FIFO work
// lists share this one implementation.
package ring

// Ring is a FIFO queue backed by a circular buffer. The zero value is an
// empty, ready-to-use queue. Not safe for concurrent use.
type Ring[T any] struct {
	buf  []T // length 0 or a power of two, so a wrap is a mask
	head int // index of the front element
	n    int // number of live elements
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v to the back of the queue.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the front element. It panics on an empty ring.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("ring: Pop of empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero // release references for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Front returns a pointer to the front element without removing it, so
// callers can inspect (or update in place) the next candidate before
// deciding to Pop. It panics on an empty ring.
func (r *Ring[T]) Front() *T {
	if r.n == 0 {
		panic("ring: Front of empty ring")
	}
	return &r.buf[r.head]
}

// At returns a pointer to the i-th element from the front (0 is the
// front), for callers that index a window of the queue in place rather
// than only consuming it in order. It panics when i is out of range.
func (r *Ring[T]) At(i int) *T {
	if uint(i) >= uint(r.n) {
		panic("ring: At index out of range")
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Cap returns the number of elements the buffer holds before it grows.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// grow doubles capacity (minimum 8), linearizing live elements.
func (r *Ring[T]) grow() {
	capacity := 2 * len(r.buf)
	if capacity < 8 {
		capacity = 8
	}
	buf := make([]T, capacity)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = buf
	r.head = 0
}
