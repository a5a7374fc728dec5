package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"expdb"
	"expdb/internal/vfs"
)

// memFS is an in-memory filesystem for durable-ingest's WAL, handed to
// the engine with expdb.WithVFS. Everything above the device runs as on
// disk — record encoding, group commit, segment rotation, checkpoint
// snapshots, RemoveBelow and replay on reopen — but a write is a copy
// into memory and fsync returns at once. A shared disk's fsync time
// follows its other users, so timing it would measure the machine more
// than the program.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile // by clean path; directories are implied
}

var _ expdb.FS = (*memFS)(nil)

func newMemFS() *memFS {
	return &memFS{files: map[string]*memFile{}}
}

type memFile struct {
	fs   *memFS
	name string
	data []byte // guarded by fs.mu
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.data = append(f.data, p...)
	f.fs.mu.Unlock()
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }
func (f *memFile) Name() string { return f.name }

func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (vfs.File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	switch {
	case ok && flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case !ok && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case !ok:
		f = &memFile{fs: m, name: name}
		m.files[name] = f
	case flag&os.O_TRUNC != 0:
		f.data = nil
	}
	return f, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[filepath.Clean(name)]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), f.data...), nil
}

func (m *memFS) ReadDir(name string) ([]fs.DirEntry, error) {
	dir := filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []fs.DirEntry
	for path := range m.files {
		if filepath.Dir(path) == dir {
			out = append(out, memEntry(filepath.Base(path)))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = f
	return nil
}

func (m *memFS) Remove(name string) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[filepath.Clean(name)]
	if !ok {
		return &fs.PathError{Op: "truncate", Path: name, Err: fs.ErrNotExist}
	}
	if size < int64(len(f.data)) {
		f.data = f.data[:size]
	}
	return nil
}

func (m *memFS) MkdirAll(string, os.FileMode) error { return nil }
func (m *memFS) SyncDir(string) error               { return nil }

// bytes is the total size of the files under dir.
func (m *memFS) bytes(dir string) int64 {
	prefix := filepath.Clean(dir) + string(filepath.Separator)
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for path, f := range m.files {
		if strings.HasPrefix(path, prefix) {
			n += int64(len(f.data))
		}
	}
	return n
}

// memEntry is the name of a file of a memFS as a directory entry. The
// WAL reads only the names of the entries.
type memEntry string

func (e memEntry) Name() string               { return string(e) }
func (e memEntry) IsDir() bool                { return false }
func (e memEntry) Type() fs.FileMode          { return 0 }
func (e memEntry) Info() (fs.FileInfo, error) { return nil, errors.ErrUnsupported }
