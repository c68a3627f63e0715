// Package atomicio provides crash-safe file writes: content is produced
// into a temporary file in the destination directory and renamed into place
// only once fully written and synced. An interrupted writer leaves the
// previous version (or nothing) behind — never a truncated file — and
// readers racing the writer observe one complete version or the other.
// Every report and log rewrite in this repository goes through it, which
// is what makes killed campaigns resumable.
package atomicio

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile writes path atomically: write produces the content into a
// temporary file in path's directory, which is then synced, closed and
// renamed over path. On any error the temporary file is removed and path is
// untouched.
func WriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// WriteFileBytes writes data to path atomically.
func WriteFileBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
