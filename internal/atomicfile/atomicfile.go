// Package atomicfile writes small metadata files with crash-safe
// replace semantics. Both the index layouts' commit points use it —
// core's meta.json and shard's manifest.json — and so does slo's
// frontier artifact, so the write-fsync-rename-dirsync discipline lives
// in exactly one place.
package atomicfile

import (
	"os"
	"path/filepath"
)

// WriteFile atomically replaces dir/name with data: write to a temp
// file, fsync, rename over the target, then fsync the directory. A
// crash at any point leaves either the old complete file or the new
// complete file, never a torn one. The data fsync matters — without it
// the rename can become durable before the data blocks, surfacing a
// zero-filled file after power loss; the directory fsync matters
// because the rename itself lives in the directory entry, and without
// it a power loss could resurrect the old file after the caller was
// told the write persisted.
func WriteFile(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}
