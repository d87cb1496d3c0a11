// Package rawfsync is a pgridlint fixture: direct os.File mutation
// that bypasses the durable WAL layer, plus the allowed shapes.
package rawfsync

import (
	"io"
	"os"
)

// Bad journals bytes straight through a raw handle: no CRC framing, no
// fsync policy, no torn-tail recovery.
func Bad(path string, rec []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(rec); err != nil { // want rawfsync
		return err
	}
	return f.Sync() // want rawfsync
}

// BadOpenFile appends through a raw handle.
func BadOpenFile(path string, rec []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString(string(rec)) // want rawfsync
	return err
}

// BadTruncate amputates a file outside the recovery scan.
func BadTruncate(path string) error {
	f, err := os.CreateTemp("", "wal-*")
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Truncate(0) // want rawfsync
}

// BadParam writes through a handle it was given: the rule keys on the
// receiver type *os.File, not on where the handle came from.
func BadParam(f *os.File, rec []byte) error {
	_, err := f.Write(rec) // want rawfsync
	return err
}

// BadStdout writes through a package-level handle.
func BadStdout(rec []byte) {
	_, _ = os.Stdout.Write(rec) // want rawfsync
}

// Suppressed demonstrates the trailing-directive form.
func Suppressed(path string, rec []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(rec) //lint:ignore rawfsync fixture demonstrates suppression
	return err
}

// Allowed shapes: one-shot helpers hold no handle to mis-fsync, closing
// a handle is no durability hazard, and writing through an io.Writer
// seam is the decorator pattern durable itself uses.
func Allowed(path string, rec []byte, w io.Writer) error {
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		return err
	}
	r, err := os.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	if _, err := w.Write(rec); err != nil {
		return err
	}
	return nil
}
