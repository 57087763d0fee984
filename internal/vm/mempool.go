package vm

import (
	mathbits "math/bits"
	"sync"
)

// memPool recycles VM memory between sessions: VM.Release hands a VM's
// memory segment back, and New and a growing stack take one out instead of
// allocating. Pool k holds segments whose capacity is at least 1<<k words
// (and less than 1<<(k+1)), so a request for n words takes from the pool
// of the smallest power of two at or above n and is always large enough.
// A segment's contents past its length are stale: getMem clears what it
// hands out. Like any sync.Pool, the garbage collector may drop what is
// pooled.
var memPool [64]sync.Pool

// getMem returns a zeroed segment of n words, n >= 1: a pooled one when
// there is one, else a new one whose capacity is the next power of two,
// but not above limit.
func getMem(n, limit int) []int64 {
	k := mathbits.Len(uint(n - 1))
	if p, ok := memPool[k].Get().(*[]int64); ok {
		m := (*p)[:n]
		clear(m)
		return m
	}
	return make([]int64, n, max(n, min(1<<k, limit)))
}

// putMem hands segment m back to the pool of its capacity. The caller must
// hold no other reference to it.
func putMem(m []int64) {
	if cap(m) > 0 {
		memPool[mathbits.Len(uint(cap(m)))-1].Put(&m)
	}
}
