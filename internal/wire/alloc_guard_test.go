//go:build !race

// testing.AllocsPerRun is meaningless under the race detector's instrumented
// allocator, so this file is excluded there (like the guards of the packages
// built on this one).

package wire

import (
	"bytes"
	"io"
	"testing"
)

// TestFrameAllocFree: building a frame in a warm caller-owned buffer, writing
// it and reading it back through a warm caller-owned buffer allocate nothing —
// the property kvserver's, repl's and inlog's own guards build on.
func TestFrameAllocFree(t *testing.T) {
	key, val := []byte("alloc-key"), bytes.Repeat([]byte{7}, 300)
	var wbuf, rbuf []byte
	var stream bytes.Buffer
	rd := bytes.NewReader(nil)
	var bad error
	allocs := testing.AllocsPerRun(200, func() {
		stream.Reset()
		wbuf = AppendValue(AppendString(AppendU64(Open(wbuf, 3), 42), key), val)
		var w io.Writer = &stream
		if _, err := w.Write(Seal(wbuf)); err != nil {
			bad = err
		}
		rd.Reset(stream.Bytes())
		var r io.Reader = rd
		op, payload, err := Read(r, &rbuf)
		if err != nil || op != 3 || len(payload) != 8+2+len(key)+4+len(val) {
			bad = io.ErrUnexpectedEOF
		}
	})
	if bad != nil {
		t.Fatalf("frame round trip failed inside guard loop: %v", bad)
	}
	if allocs != 0 {
		t.Fatalf("frame build + read: %.1f allocs/run, want 0", allocs)
	}
}
