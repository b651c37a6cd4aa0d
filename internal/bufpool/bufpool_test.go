package bufpool

import "testing"

func TestGetReturnsEmptyBuffer(t *testing.T) {
	bp := Get()
	b := append(*bp, "some body"...)
	Put(bp, b)
	for i := 0; i < 4; i++ {
		bp := Get()
		if len(*bp) != 0 {
			t.Fatalf("Get returned a buffer holding %q", *bp)
		}
		Put(bp, *bp)
	}
}

func TestPutDropsOversizedAndNil(t *testing.T) {
	Put(nil, make([]byte, 8))
	bp := Get()
	big := make([]byte, 0, MaxPooled+1)
	Put(bp, big)
	if cap(*bp) == cap(big) {
		t.Fatalf("Put kept a %d-byte buffer, over MaxPooled", cap(big))
	}
}
