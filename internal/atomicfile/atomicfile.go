// Package atomicfile writes whole files so that no reader ever observes a
// partial one: the data lands in a temp file in the target's directory,
// which is then renamed over the target.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write lands the concatenation of chunks at path atomically, so a caller
// that frames a payload (a header, then the bytes) writes both without
// first copying them into one buffer. The temp file is named
// ".tmp-<random>" in path's directory: a dot file with no extension, so
// directory scans that match entry suffixes (".fcache", ".json") never
// see it. On failure the temp file is removed and path is untouched.
func Write(path string, chunks ...[]byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	for _, c := range chunks {
		if _, err := tmp.Write(c); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
