package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the writable half of the filesystem seam: what the WAL
// writer and the snapshot publisher need from an open file.
type File interface {
	io.Writer
	// Sync flushes written data to stable storage. Until it returns,
	// nothing written since the previous Sync is guaranteed to survive
	// a crash.
	Sync() error
	Close() error
}

// FS is the filesystem seam every durable write in the system goes
// through. Production code uses OS(); the fault-injection tests swap
// in a MemFS that models the durability semantics of a real disk
// (unsynced data and unsynced directory entries are lost on power
// failure) and can fail, short-write or "crash the machine" at any
// chosen operation.
type FS interface {
	MkdirAll(dir string) error
	// Create opens path for writing, truncating any existing file.
	Create(path string) (File, error)
	Open(path string) (io.ReadCloser, error)
	// ReadDir lists the file names (not paths) inside dir, sorted.
	ReadDir(dir string) ([]string, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	Truncate(path string, size int64) error
	// SyncDir flushes the directory entries of dir: until it returns,
	// files created in (or renamed into) dir may not survive a crash.
	SyncDir(dir string) error
}

// WriteFileAtomic publishes data at path so that a crash at any point
// leaves either the old content or the new behind the name, never a
// part: tmp file, write, fsync, close, rename over path, directory
// fsync. On an error before the rename the tmp file is removed
// (best-effort) and path is untouched.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("create %s: %w", tmp, err)
	}
	cleanup := func() { _ = fsys.Remove(tmp) }
	if _, err := f.Write(data); err != nil {
		f.Close()
		cleanup()
		return fmt.Errorf("write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		cleanup()
		return fmt.Errorf("sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		cleanup()
		return fmt.Errorf("close %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		cleanup()
		return fmt.Errorf("publish %s: %w", path, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("sync dir after publishing %s: %w", path, err)
	}
	return nil
}

// OS returns the real-filesystem implementation of the seam.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) Open(path string) (io.ReadCloser, error) { return os.Open(path) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
