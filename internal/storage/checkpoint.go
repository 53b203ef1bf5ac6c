package storage

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// CheckpointStore is a flat namespace of named checkpoint artifacts
// (metadata, index pages, log snapshots). Both the transactional database
// and FASTER persist their CPR commits through this interface, so every
// experiment can run against RAM or a real directory interchangeably.
type CheckpointStore interface {
	// Create opens a named artifact for writing, truncating any previous one.
	Create(name string) (io.WriteCloser, error)
	// Open opens a named artifact for reading.
	Open(name string) (io.ReadCloser, error)
	// List returns all artifact names, sorted.
	List() ([]string, error)
	// Remove deletes an artifact; removing a missing artifact is an error.
	Remove(name string) error
}

// ReadArtifact reads a whole named artifact, envelope included, into memory.
// Nothing in the program reads an artifact whole (ReadArtifactStream hands
// the payload out as it verifies it); tests read raw bytes with it.
func ReadArtifact(cs CheckpointStore, name string) ([]byte, error) {
	r, err := cs.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// abandon ends a write that failed with err. The stores here publish nothing
// for it (CloseWithError), so the previous artifact of the name stays; any
// other writer is closed.
func abandon(w io.WriteCloser, err error) {
	if a, ok := w.(interface{ CloseWithError(error) error }); ok {
		a.CloseWithError(err) //nolint:errcheck // err is the one to report
		return
	}
	w.Close() //nolint:errcheck // err is the one to report
}

// MemCheckpointStore keeps artifacts in process memory. It is the default
// store for benchmarks (the paper's checkpoints-to-SSD become
// checkpoints-to-RAM; shape of results is unaffected, see DESIGN.md).
type MemCheckpointStore struct {
	mu    sync.RWMutex
	files map[string][][]byte // an artifact is the copies of its writes, in order
}

// NewMemCheckpointStore returns an empty in-memory store.
func NewMemCheckpointStore() *MemCheckpointStore {
	return &MemCheckpointStore{files: make(map[string][][]byte)}
}

// memWriter keeps a copy of each write: nothing is regrown or copied twice.
type memWriter struct {
	chunks [][]byte
	store  *MemCheckpointStore
	name   string
}

func (w *memWriter) Write(p []byte) (int, error) {
	w.chunks = append(w.chunks, bytes.Clone(p))
	return len(p), nil
}

func (w *memWriter) Close() error {
	w.store.mu.Lock()
	w.store.files[w.name] = w.chunks
	w.store.mu.Unlock()
	return nil
}

// CloseWithError drops the write: the store keeps what it held under the name.
func (*memWriter) CloseWithError(error) error { return nil }

// Create implements CheckpointStore.
func (s *MemCheckpointStore) Create(name string) (io.WriteCloser, error) {
	return &memWriter{store: s, name: name}, nil
}

// Open implements CheckpointStore.
func (s *MemCheckpointStore) Open(name string) (io.ReadCloser, error) {
	s.mu.RLock()
	chunks, ok := s.files[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return newChunkReader(chunks...), nil
}

// chunkReader reads an artifact held in chunks, and knows its size.
type chunkReader struct {
	io.Reader
	size int64
}

func newChunkReader(chunks ...[]byte) chunkReader {
	rs := make([]io.Reader, len(chunks))
	var size int64
	for i, c := range chunks {
		rs[i], size = bytes.NewReader(c), size+int64(len(c))
	}
	return chunkReader{io.MultiReader(rs...), size}
}

func (r chunkReader) Size() int64  { return r.size }
func (r chunkReader) Close() error { return nil }

// List implements CheckpointStore.
func (s *MemCheckpointStore) List() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.files))
	for n := range s.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements CheckpointStore.
func (s *MemCheckpointStore) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(s.files, name)
	return nil
}

// Clone returns an independent copy of the store's current artifacts (see
// MemDevice.Clone; clone the checkpoint store BEFORE the device so cloned
// metadata never references log data missing from the cloned device). A
// stored artifact is never written again, only replaced, so the two share it.
func (s *MemCheckpointStore) Clone() *MemCheckpointStore {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &MemCheckpointStore{files: maps.Clone(s.files)}
}

// DirCheckpointStore persists artifacts as files under a directory. Artifact
// names may contain '/' which map to subdirectories; a name that would leave
// the directory (absolute, or climbing out with "..") is refused.
type DirCheckpointStore struct {
	dir string
}

// path is the file that holds the named artifact.
func (s *DirCheckpointStore) path(name string) (string, error) {
	p := filepath.FromSlash(name)
	if !filepath.IsLocal(p) {
		return "", fmt.Errorf("storage: artifact name %q leaves the checkpoint directory: %w", name, fs.ErrInvalid)
	}
	return filepath.Join(s.dir, p), nil
}

// NewDirCheckpointStore creates (if needed) and wraps a directory.
func NewDirCheckpointStore(dir string) (*DirCheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: mkdir %s: %w", dir, err)
	}
	return &DirCheckpointStore{dir: dir}, nil
}

// Create implements CheckpointStore. The artifact is staged in a temp file,
// fsynced, and renamed into place (then the directory is fsynced) so a crash
// mid-write can never leave a half-written artifact under its final name:
// readers see either the previous complete artifact or the new complete one.
func (s *DirCheckpointStore) Create(name string) (io.WriteCloser, error) {
	path, err := s.path(name)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	return &atomicFileWriter{f: tmp, dir: dir, final: path}, nil
}

// atomicFileWriter stages writes in a temp file; Close makes them visible
// atomically under the final name, CloseWithError removes them.
type atomicFileWriter struct {
	f     *os.File
	dir   string
	final string
	err   error
}

func (w *atomicFileWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	if err != nil && w.err == nil {
		w.err = err
	}
	return n, err
}

func (w *atomicFileWriter) Close() error {
	if w.err != nil {
		w.f.Close()
		os.Remove(w.f.Name())
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		os.Remove(w.f.Name())
		return err
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.f.Name())
		return err
	}
	if err := os.Rename(w.f.Name(), w.final); err != nil {
		os.Remove(w.f.Name())
		return err
	}
	return syncDir(w.dir)
}

func (w *atomicFileWriter) CloseWithError(error) error {
	w.f.Close()
	return os.Remove(w.f.Name())
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open implements CheckpointStore.
func (s *DirCheckpointStore) Open(name string) (io.ReadCloser, error) {
	path, err := s.path(name)
	if err != nil {
		return nil, err
	}
	return os.Open(path)
}

// List implements CheckpointStore.
func (s *DirCheckpointStore) List() ([]string, error) {
	var names []string
	err := filepath.Walk(s.dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(s.dir, path)
		if err != nil {
			return err
		}
		// Skip in-flight (or crash-orphaned) staging files from Create.
		if strings.HasPrefix(filepath.Base(rel), ".") {
			return nil
		}
		names = append(names, filepath.ToSlash(rel))
		return nil
	})
	sort.Strings(names)
	return names, err
}

// Remove implements CheckpointStore.
func (s *DirCheckpointStore) Remove(name string) error {
	path, err := s.path(name)
	if err != nil {
		return err
	}
	return os.Remove(path)
}
