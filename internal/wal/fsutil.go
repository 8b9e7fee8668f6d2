package wal

import (
	"os"
	"path/filepath"
)

// ReplaceHook, when non-nil, is invoked with the destination path after
// every successful AtomicReplace. Tests install it to assert that a write
// path really goes through the full fsync-then-rename-then-dir-sync
// sequence (the WAL compaction must).
// Never set outside tests.
var ReplaceHook func(path string)

// AtomicReplace writes path crash-durably: the content goes to a
// same-directory temp file, which is fsynced before being renamed over
// path, and the containing directory is fsynced after so the rename
// itself survives power loss. A bare write+rename — the classic bug —
// leaves a window where the rename is on disk but the bytes are not,
// serving a zero-length or torn file after a crash.
//
// write receives the open temp file and must not close it.
func AtomicReplace(path string, write func(f *os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		return err
	}
	if ReplaceHook != nil {
		ReplaceHook(path)
	}
	return nil
}

// SyncDir fsyncs a directory, making directory-entry mutations (create,
// rename, remove) in it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
