// Package bufpool is the shared buffer economy of the hot datapath: a
// size-classed pool of byte buffers plus pooled DEFLATE codec state, so
// the steady-state seal→compress→ship→ingest path allocates nothing per
// operation.
//
// Two costs motivate it. Codec state is large — hash and token tables for
// the encoder, Huffman tables for the decoder — and every NAND page copy,
// segment marshal, and codec frame used to be a fresh make([]byte, ...)
// that lived for microseconds. Both are rental, not ownership, problems:
// Get a buffer or codec, use it, Release it when the bytes have moved on.
//
// The codec itself is in-house and whole-buffer: Deflater (deflate.go)
// emits exactly the bytes of compress/flate at BestSpeed, from a port of
// that level with the per-block overheads taken out, and Inflater
// (inflate.go) decodes any DEFLATE stream with two-level tables.
// compress/flate appears only in the tests, as the oracle both are
// checked against.
//
// Contract: Release returns the buffer to the pool for immediate reuse, so
// a released buffer must not be read or written again — reuse-after-release
// is the classic pooling bug, and the CI race job runs the fleet, retention,
// and recovery smokes precisely to shake it out. Releasing is optional
// (a dropped buffer is garbage-collected like any other slice) and nil-safe,
// so error paths can release unconditionally.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Size classes are powers of two from minClassBytes to maxClassBytes.
// Requests above the largest class are served by plain allocation and
// dropped on Release — pooling pathological one-off giants would pin their
// memory forever.
const (
	minClassShift = 9  // 512 B: the smallest simulated page size
	maxClassShift = 24 // 16 MiB: comfortably above the largest segment blob
	numClasses    = maxClassShift - minClassShift + 1
)

// Buf is a pooled byte buffer. B has length zero and at least the requested
// capacity at Get; callers append into it (or reslice it up). Size your Get
// so the buffer does not grow: append growth lands on a non-class capacity,
// which Release silently drops (the garbage collector reclaims it) rather
// than re-pooling — correct, but one allocation instead of zero for that
// op. The hot paths avoid this by sizing exactly (MarshaledSize,
// BlobOverhead+len, SegmentBlobLogicalSize).
type Buf struct {
	B []byte
	// cls records the rental's size class for the outstanding gauge:
	// class+1 for pooled classes, oversizeClass for above-max rentals,
	// 0 for a buffer not currently rented (or never Get-issued). Keeping
	// it on the Buf makes the gauge exact even when append growth moves
	// B onto a capacity Release would otherwise misclassify.
	cls int8
}

const oversizeClass = -1

var (
	pools [numClasses]sync.Pool
	// outstanding is the Get/Release balance per size class (plus the
	// above-max rentals that never pool); see Outstanding.
	outstanding [numClasses]atomic.Int64
	oversizeOut atomic.Int64
)

// classFor returns the smallest class index holding n bytes, or -1 when n
// exceeds the largest class.
func classFor(n int) int {
	if n <= 1<<minClassShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - minClassShift
	if c >= numClasses {
		return -1
	}
	return c
}

// Get returns a buffer with len(b.B) == 0 and cap(b.B) >= n. In steady
// state (matched Release calls) it allocates nothing.
func Get(n int) *Buf {
	c := classFor(n)
	if c < 0 {
		oversizeOut.Add(1)
		return &Buf{B: make([]byte, 0, n), cls: oversizeClass}
	}
	outstanding[c].Add(1)
	if b, _ := pools[c].Get().(*Buf); b != nil {
		b.B = b.B[:0]
		b.cls = int8(c + 1)
		return b
	}
	return &Buf{B: make([]byte, 0, 1<<(minClassShift+c)), cls: int8(c + 1)}
}

// Release returns the buffer to its pool (classified by current capacity)
// for reuse. The caller must not touch b.B afterwards. Release is nil-safe
// and idempotent only in the sense that releasing nil is a no-op — a double
// release of a live buffer is a bug the race smokes exist to catch.
func (b *Buf) Release() {
	if b == nil || cap(b.B) == 0 {
		return
	}
	// Settle the gauge by the class the rental was issued at (not the
	// current capacity): a grown-then-dropped buffer still balances, and a
	// double release cannot decrement twice.
	switch {
	case b.cls > 0:
		outstanding[b.cls-1].Add(-1)
		b.cls = 0
	case b.cls == oversizeClass:
		oversizeOut.Add(-1)
		b.cls = 0
	}
	// Only exact class-sized capacities go back: append growth lands on
	// arbitrary capacities, and re-classifying a 6000-byte array as the
	// 8192 class would hand out buffers shorter than their class promises.
	// A grown buffer is therefore dropped here, not migrated.
	n := cap(b.B)
	if n&(n-1) != 0 || n < 1<<minClassShift || n > 1<<maxClassShift {
		return
	}
	c := classFor(n)
	b.B = b.B[:0]
	pools[c].Put(b)
}
