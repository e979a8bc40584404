// Package atomicfile is the repository's one durable file write: model
// files and durable job records both replace their file through
// WriteFile, so a crash at any point leaves either the previous file or
// the new one — never a torn file that a model load or a job recovery
// would trip over. It imports nothing from the module,
// so every package that persists state can use it.
package atomicfile

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// rename is the final, publishing step; tests replace it to observe
// the temporary file and to make the step fail.
var rename = os.Rename

// WriteFile replaces path with data. It writes a temporary file in
// path's own directory (a rename across filesystems is not atomic),
// fsyncs it, sets perm, and renames it over path. On any failure the
// temporary file is removed and path keeps its previous content.
func WriteFile(path string, data []byte, perm fs.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return fmt.Errorf("atomicfile: create temp in %s: %w", dir, err)
	}
	name := tmp.Name()
	fail := func(step string, err error) error {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("atomicfile: %s %s: %w", step, name, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail("write", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail("chmod", err)
	}
	if err := tmp.Close(); err != nil {
		return fail("close", err)
	}
	if err := rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("atomicfile: rename into %s: %w", path, err)
	}
	return nil
}
