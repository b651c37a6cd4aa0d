// Package bufpool recycles the byte buffers HTTP bodies are built and
// read in. qavd encodes every response into one, and the router reads
// every replica reply into one; a broad answer runs to megabytes, and
// growing a fresh buffer for each is most of the cost of moving it.
package bufpool

import "sync"

// MaxPooled keeps one outsized body from pinning its buffer in the
// pool: a buffer that grew past it is left to the GC.
const MaxPooled = 8 << 20

var pool = sync.Pool{New: func() any { return new([]byte) }}

// Get returns a holder whose buffer is empty, with whatever capacity
// it last grew to.
func Get() *[]byte {
	bp := pool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// Put stores b, the buffer bp's storage grew into, back in bp and
// returns bp to the pool, unless b is over MaxPooled. A nil bp is
// ignored. Nothing may use b once it is put.
func Put(bp *[]byte, b []byte) {
	if bp == nil || cap(b) > MaxPooled {
		return
	}
	*bp = b[:0]
	pool.Put(bp)
}
