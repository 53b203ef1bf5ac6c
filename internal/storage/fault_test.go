package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInjectorDeterminism: the same seed and rates must produce the same
// fault schedule, operation for operation.
func TestInjectorDeterminism(t *testing.T) {
	run := func() string {
		inj := NewInjector(FaultConfig{Seed: 7, ReadErrorRate: 0.3, WriteErrorRate: 0.3, TornWriteRate: 0.2})
		dev := NewFaultDevice(NewMemDevice(), inj)
		var sb strings.Builder
		buf := make([]byte, 64)
		for i := 0; i < 200; i++ {
			var err error
			if i%2 == 0 {
				_, err = dev.WriteAt(buf, int64(i)*64)
			} else {
				_, err = dev.ReadAt(buf, 0)
			}
			if err != nil {
				fmt.Fprintf(&sb, "%d:%v;", i, err)
			}
		}
		return sb.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("schedules differ:\n%s\n%s", a, b)
	}
	if a == "" {
		t.Fatal("no faults injected at 30% rates over 200 ops")
	}
}

// TestTornArtifactWriteNeverSilent: a torn artifact write persists a strict
// prefix AND returns a transient error — never silent success.
func TestTornArtifactWriteNeverSilent(t *testing.T) {
	inner := NewMemCheckpointStore()
	inj := NewInjector(FaultConfig{Seed: 3, TornWriteRate: 1})
	cs := NewFaultCheckpointStore(inner, inj)

	payload := bytes.Repeat([]byte("data"), 64)
	err := putRaw(cs, "a", payload)
	if err == nil {
		t.Fatal("torn write reported success")
	}
	if !IsTransient(err) {
		t.Fatalf("torn write error %v is not transient", err)
	}
	got, rerr := ReadArtifact(inner, "a")
	if rerr != nil {
		t.Fatalf("torn artifact missing entirely: %v", rerr)
	}
	if len(got) >= len(payload) || !bytes.Equal(got, payload[:len(got)]) {
		t.Fatalf("inner holds %d bytes, want a strict prefix of %d", len(got), len(payload))
	}

	// WriteArtifactChecked at 100% torn rate exhausts retries and fails; the
	// surviving bytes must fail verification, not decode to garbage.
	if err := WriteArtifactChecked(cs, "b", payload); err == nil {
		t.Fatal("checked write succeeded at 100% torn rate")
	}
	if _, err := ReadArtifactChecked(inner, "b"); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("torn checked artifact: got %v, want ErrCorruptArtifact", err)
	}
}

// TestSelfHealingRetry: at a moderate transient rate the checked writer and
// reader retry to success, end to end.
func TestSelfHealingRetry(t *testing.T) {
	inner := NewMemCheckpointStore()
	inj := NewInjector(FaultConfig{Seed: 11, WriteErrorRate: 0.4, TornWriteRate: 0.2, ReadErrorRate: 0.4})
	cs := NewFaultCheckpointStore(inner, inj)
	payload := []byte("retry until it sticks")
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("art-%d", i)
		if err := WriteArtifactChecked(cs, name, payload); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
		got, err := ReadArtifactChecked(cs, name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("read %s: payload mismatch", name)
		}
	}
}

// TestPermanentFailureAndHeal: after FailPermanently every operation fails
// with a non-transient error (retries must stop); Heal restores service.
func TestPermanentFailureAndHeal(t *testing.T) {
	inj := NewInjector(FaultConfig{Seed: 1})
	dev := NewFaultDevice(NewMemDevice(), inj)
	cs := NewFaultCheckpointStore(NewMemCheckpointStore(), inj)

	inj.FailPermanently()
	if _, err := dev.WriteAt([]byte("x"), 0); !errors.Is(err, ErrInjectedPermanent) {
		t.Fatalf("device write: %v", err)
	}
	if IsTransient(ErrInjectedPermanent) {
		t.Fatal("permanent error classified transient")
	}
	if err := WriteArtifactChecked(cs, "a", []byte("x")); !errors.Is(err, ErrInjectedPermanent) {
		t.Fatalf("artifact write: %v", err)
	}
	inj.Heal()
	if _, err := dev.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("after heal: %v", err)
	}
	if err := WriteArtifactChecked(cs, "a", []byte("x")); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

// TestCrashPoints: the before/torn/after crash points observe exactly the
// promised persisted state, and the live process continues unharmed.
func TestCrashPoints(t *testing.T) {
	inner := NewMemCheckpointStore()
	inj := NewInjector(FaultConfig{Seed: 5})
	cs := NewFaultCheckpointStore(inner, inj)
	payload := bytes.Repeat([]byte("artifact-body"), 32)

	var beforeSnap, tornSnap, afterSnap *MemCheckpointStore
	inj.Arm("before:a", func() { beforeSnap = inner.Clone() })
	inj.Arm("torn:a", func() { tornSnap = inner.Clone() })
	inj.Arm("after:a", func() { afterSnap = inner.Clone() })

	if err := WriteArtifactChecked(cs, "a", payload); err != nil {
		t.Fatalf("live write failed: %v", err)
	}
	if beforeSnap == nil || tornSnap == nil || afterSnap == nil {
		t.Fatal("not all crash points fired")
	}
	if _, err := ReadArtifactChecked(beforeSnap, "a"); !IsNotFound(err) {
		t.Fatalf("before-crash image: got %v, want not-found", err)
	}
	if _, err := ReadArtifactChecked(tornSnap, "a"); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("torn-crash image: got %v, want ErrCorruptArtifact", err)
	}
	if got, err := ReadArtifactChecked(afterSnap, "a"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("after-crash image: %v", err)
	}
	// And the live store still has the complete artifact.
	if got, err := ReadArtifactChecked(cs, "a"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("live store after crash points: %v", err)
	}
}

// TestArmDeviceWrite: the Nth device write tears for the snapshot, then
// completes for the live process.
func TestArmDeviceWrite(t *testing.T) {
	inner := NewMemDevice()
	inj := NewInjector(FaultConfig{Seed: 9})
	dev := NewFaultDevice(inner, inj)

	data := bytes.Repeat([]byte{0xEE}, 256)
	var snap *MemDevice
	inj.ArmDeviceWrite(2, func() { snap = inner.Clone() })

	if _, err := dev.WriteAt(data, 0); err != nil { // write 1: untouched
		t.Fatal(err)
	}
	if _, err := dev.WriteAt(data, 256); err != nil { // write 2: torn for snap
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("device-write crash point never fired")
	}
	// The snapshot ends exactly at the torn boundary: first half present,
	// second half never reached the medium.
	if sz := snap.Size(); sz != 256+128 {
		t.Fatalf("snapshot size %d, want %d (torn at half)", sz, 256+128)
	}
	got := make([]byte, 128)
	if _, err := snap.ReadAt(got, 256); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0xEE}, 128)) {
		t.Fatal("snapshot does not hold the written half")
	}
	// Live device holds the full write.
	got = make([]byte, 256)
	if _, err := inner.ReadAt(got, 256); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("live device missing completed write")
	}
}

// TestBitFlipInjection: reads at BitFlipRate 1 differ from the stored bytes
// by exactly one bit, and checked reads reject them.
func TestBitFlipInjection(t *testing.T) {
	inner := NewMemCheckpointStore()
	if err := WriteArtifactChecked(inner, "a", []byte("pristine payload")); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(FaultConfig{Seed: 13, BitFlipRate: 1})
	cs := NewFaultCheckpointStore(inner, inj)
	if _, err := ReadArtifactChecked(cs, "a"); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("bit-flipped read: got %v, want ErrCorruptArtifact", err)
	}
}

// TestDirCheckpointStoreAtomicCreate: artifacts appear atomically — staging
// files are invisible to List and no temp files survive Close.
func TestDirCheckpointStoreAtomicCreate(t *testing.T) {
	dir := t.TempDir()
	cs, err := NewDirCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := cs.Create("meta-x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("half")); err != nil {
		t.Fatal(err)
	}
	// Mid-write: no artifact visible under its final name, not in List.
	if names, _ := cs.List(); len(names) != 0 {
		t.Fatalf("staging file visible in List: %v", names)
	}
	if _, err := os.Stat(filepath.Join(dir, "meta-x")); !os.IsNotExist(err) {
		t.Fatal("final name exists before Close")
	}
	if _, err := w.Write([]byte("+rest")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(cs, "meta-x")
	if err != nil || string(got) != "half+rest" {
		t.Fatalf("got %q, %v", got, err)
	}
	// No temp droppings.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".") {
			t.Fatalf("staging file %s left behind", e.Name())
		}
	}
}

// TestFileDeviceClosedAndPartialIO: I/O after Close fails with ErrClosed;
// double Close is a no-op; reads past EOF zero-fill like MemDevice.
func TestFileDeviceClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.dat")
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.WriteAt([]byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := dev.ReadAt(make([]byte, 3), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := dev.WriteAt([]byte("x"), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if err := dev.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v", err)
	}
}

// TestRetryPolicy: transient errors are retried up to Attempts; permanent
// errors abort immediately.
func TestRetryPolicy(t *testing.T) {
	pol := RetryPolicy{Attempts: 4, Base: 1, Max: 10}
	n := 0
	err := pol.Do(func() error {
		n++
		if n < 3 {
			return fmt.Errorf("flaky: %w", ErrTransient)
		}
		return nil
	})
	if err != nil || n != 3 {
		t.Fatalf("transient retry: err=%v n=%d", err, n)
	}

	n = 0
	perm := errors.New("disk on fire")
	err = pol.Do(func() error { n++; return perm })
	if !errors.Is(err, perm) || n != 1 {
		t.Fatalf("permanent: err=%v n=%d (want 1 attempt)", err, n)
	}

	n = 0
	err = pol.Do(func() error { n++; return fmt.Errorf("always: %w", ErrTransient) })
	if err == nil || n != 4 {
		t.Fatalf("exhaustion: err=%v n=%d (want 4 attempts)", err, n)
	}
}
