package storage

import (
	"bytes"
	"io"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func TestMemDeviceRoundTrip(t *testing.T) {
	d := NewMemDevice()
	defer d.Close()
	msg := []byte("hello hybridlog")
	if _, err := d.WriteAt(msg, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := d.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("got %q want %q", got, msg)
	}
	if d.Size() != 100+int64(len(msg)) {
		t.Fatalf("size = %d", d.Size())
	}
}

func TestMemDeviceReadPastEnd(t *testing.T) {
	d := NewMemDevice()
	defer d.Close()
	if _, err := d.ReadAt(make([]byte, 8), 0); err == nil {
		t.Fatal("expected error reading empty device")
	}
}

func TestMemDeviceClosed(t *testing.T) {
	d := NewMemDevice()
	d.Close()
	if _, err := d.WriteAt([]byte("x"), 0); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := d.ReadAt(make([]byte, 1), 0); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestMemDeviceConcurrentDisjointWrites(t *testing.T) {
	d := NewMemDevice()
	defer d.Close()
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := []byte{byte(i)}
			if _, err := d.WriteAt(buf, int64(i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	got := make([]byte, n)
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got[i] != byte(i) {
			t.Fatalf("byte %d = %d", i, got[i])
		}
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.log")
	d, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.WriteAt([]byte("abc"), 10); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if _, err := d.ReadAt(got, 10); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("got %q", got)
	}
	if d.Size() != 13 {
		t.Fatalf("size = %d, want 13", d.Size())
	}
}

func TestPoolWriteThenRead(t *testing.T) {
	d := NewMemDevice()
	defer d.Close()
	p := NewPool(4)
	defer p.Close()

	done := make(chan error, 1)
	p.Submit(IORequest{Dev: d, Buf: []byte("async"), Off: 0, Write: true,
		Done: func(n int, err error) { done <- err }})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	p.Submit(IORequest{Dev: d, Buf: buf, Off: 0,
		Done: func(n int, err error) { done <- err }})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if string(buf) != "async" {
		t.Fatalf("got %q", buf)
	}
}

func TestPoolCloseDrains(t *testing.T) {
	d := NewMemDevice()
	defer d.Close()
	p := NewPool(2)
	var mu sync.Mutex
	completed := 0
	for i := 0; i < 100; i++ {
		p.Submit(IORequest{Dev: d, Buf: []byte{1}, Off: int64(i), Write: true,
			Done: func(int, error) { mu.Lock(); completed++; mu.Unlock() }})
	}
	p.Close()
	if completed != 100 {
		t.Fatalf("completed = %d, want 100", completed)
	}
}

// tokenDevice serves one read per token, so a test controls the pool's pace.
type tokenDevice struct {
	Device
	tokens chan struct{}
}

func (d tokenDevice) ReadAt(p []byte, off int64) (int, error) {
	<-d.tokens
	return d.Device.ReadAt(p, off)
}

// TestPoolQueueBoundedUnderBacklog: with a backlog that never drains the queue
// keeps FIFO order and stays as large as the backlog, not as large as the
// number of requests that ever passed through it.
func TestPoolQueueBoundedUnderBacklog(t *testing.T) {
	const total, backlog = 5000, 40 // more than a worker takes in one run, so a backlog stands in the queue
	d := tokenDevice{NewMemDevice(), make(chan struct{}, total)}
	defer d.Close()
	if _, err := d.WriteAt([]byte{0}, 0); err != nil {
		t.Fatal(err)
	}
	p := NewPool(1)
	served := make(chan int, total)
	var buf [1]byte
	for i := 0; i < total; i++ {
		i := i
		p.Submit(IORequest{Dev: d, Buf: buf[:], Done: func(int, error) { served <- i }})
		if i >= backlog { // let exactly one through: the backlog stays where it is
			d.tokens <- struct{}{}
			if got := <-served; got != i-backlog {
				t.Fatalf("request %d served out of order (want %d)", got, i-backlog)
			}
		}
	}
	p.mu.Lock()
	c := cap(p.queue)
	p.mu.Unlock()
	if c > 8*backlog {
		t.Fatalf("queue array grew to %d slots under a backlog of %d", c, backlog)
	}
	for i := 0; i < backlog; i++ {
		d.tokens <- struct{}{}
	}
	p.Close()
}

// TestMemStoreHoldsExactlyTheArtifact: the in-memory store keeps a copy of each
// write. An artifact handed over in one Write is one exact copy;
// a streamed one (WriteArtifactStream) is its chunks: the store's copy is the
// artifact plus allocator rounding, not the doubled array a regrown buffer
// leaves behind.
func TestMemStoreHoldsExactlyTheArtifact(t *testing.T) {
	s := NewMemCheckpointStore()
	data := make([]byte, 3<<20+17)
	data[len(data)-1] = 9
	if err := putRaw(s, "big", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 1 // the store copied: the caller may reuse its buffer
	if got := s.files["big"]; len(got) != 1 || len(got[0]) != len(data) || cap(got[0]) > len(data)+64<<10 || got[0][0] != 0 || got[0][len(data)-1] != 9 {
		t.Fatalf("stored %d chunks for one write", len(got))
	}
	n, err := WriteArtifactStream(s, "streamed", func(w io.Writer) error {
		for i := 0; i < len(data); i += 64 << 10 { // the index image's and a snapshot's pieces
			if _, err := w.Write(data[i:min(i+64<<10, len(data))]); err != nil {
				return err
			}
		}
		return nil
	}, nil, 0)
	if err != nil || n != int64(len(data)) {
		t.Fatalf("streamed %d bytes: %v", n, err)
	}
	var held int
	for _, c := range s.files["streamed"] {
		held += cap(c)
	}
	if want := len(data) + envelopeOverhead; held > want+1<<10 {
		t.Fatalf("a %d-byte streamed artifact holds %d bytes", want, held)
	}
	if got, err := ReadArtifactChecked(s, "streamed"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("streamed artifact reads back %d bytes: %v", len(got), err)
	}
	w, _ := s.Create("pieces")
	w.Write([]byte("ab"))
	w.Write([]byte("cde"))
	w.Close()
	if got, _ := ReadArtifact(s, "pieces"); string(got) != "abcde" {
		t.Fatalf("two writes stored %q", got)
	}
}

func testStoreRoundTrip(t *testing.T, s CheckpointStore) {
	t.Helper()
	w, err := s.Create("meta/info.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := s.Open("meta/info.json")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if string(data) != `{"v":1}` {
		t.Fatalf("got %q", data)
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "meta/info.json" {
		t.Fatalf("list = %v", names)
	}
	if err := s.Remove("meta/info.json"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open("meta/info.json"); err == nil {
		t.Fatal("open after remove should fail")
	}
}

func TestMemCheckpointStore(t *testing.T) { testStoreRoundTrip(t, NewMemCheckpointStore()) }

func TestDirCheckpointStore(t *testing.T) {
	s, err := NewDirCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStoreRoundTrip(t, s)
}

func TestQuickMemDeviceWriteReadAnyOffset(t *testing.T) {
	d := NewMemDevice()
	defer d.Close()
	f := func(data []byte, off uint16) bool {
		if len(data) == 0 {
			return true
		}
		if _, err := d.WriteAt(data, int64(off)); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if _, err := d.ReadAt(got, int64(off)); err != nil {
			return false
		}
		return string(got) == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
