package storage

import (
	"bytes"
	"runtime"
	"testing"
)

// TestMemDeviceAppendGrowsAmortised: a device grown by small appending writes
// must reallocate O(log n) times, not once per write — 64 MiB in 4 KiB writes
// is 16 384 writes and, doubling from 4 KiB, 14 reallocations. The bytes must
// read back, and a write that leaves a gap must read zeros in it.
func TestMemDeviceAppendGrowsAmortised(t *testing.T) {
	const total, chunk = 64 << 20, 4 << 10
	d := NewMemDevice()
	defer d.Close()
	block := bytes.Repeat([]byte{0xC3}, chunk)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := int64(0); off < total; off += chunk {
		block[0] = byte(off / chunk)
		if _, err := d.WriteAt(block, off); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs > 64 {
		t.Fatalf("%d appending writes made %d allocations, want O(log n)", total/chunk, allocs)
	}
	if moved := after.TotalAlloc - before.TotalAlloc; moved > 4*total {
		t.Fatalf("growing to %d bytes allocated %d bytes in all, want a small multiple", total, moved)
	}
	if d.Size() != total {
		t.Fatalf("size = %d, want %d", d.Size(), total)
	}
	got := make([]byte, chunk)
	for _, off := range []int64{0, 5 * chunk, total - chunk} {
		if _, err := d.ReadAt(got, off); err != nil {
			t.Fatal(err)
		}
		block[0] = byte(off / chunk)
		if !bytes.Equal(got, block) {
			t.Fatalf("chunk at %d does not read back", off)
		}
	}

	if _, err := d.WriteAt([]byte{1}, total+1000); err != nil {
		t.Fatal(err)
	}
	gap := make([]byte, 1000)
	if _, err := d.ReadAt(gap, total); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gap, make([]byte, 1000)) {
		t.Fatal("gap left by a write past the end does not read as zeros")
	}
}

// BenchmarkMemDeviceAppend is one 4 KiB write at the end of a growing device.
func BenchmarkMemDeviceAppend(b *testing.B) {
	const chunk = 4 << 10
	d := NewMemDevice()
	defer d.Close()
	block := make([]byte, chunk)
	b.SetBytes(chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.WriteAt(block, int64(i)*chunk); err != nil {
			b.Fatal(err)
		}
	}
}
