// Package atomicfile writes whole files so that no reader ever observes a
// partial one: the data lands in a temp file in the target's directory,
// which is then renamed over the target.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write lands data at path atomically. The temp file is named
// ".tmp-<random>" in path's directory: a dot file with no extension, so
// directory scans that match entry suffixes (".fcache", ".json") never
// see it. On failure the temp file is removed and path is untouched.
func Write(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
