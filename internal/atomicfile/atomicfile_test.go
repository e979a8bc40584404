package atomicfile

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// readDir lists dir's entry names.
func readDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestWriteFileReplacesAndSetsPerm(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	for i, tc := range []struct {
		data string
		perm fs.FileMode
	}{
		{"first", 0o644},
		{"second, longer than the first", 0o600},
		{"3", 0o644},
	} {
		if err := WriteFile(path, []byte(tc.data), tc.perm); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != tc.data {
			t.Fatalf("write %d: read %q, %v; want %q", i, got, err, tc.data)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != tc.perm {
			t.Fatalf("write %d: mode %v, want %v", i, fi.Mode().Perm(), tc.perm)
		}
		if names := readDir(t, dir); len(names) != 1 {
			t.Fatalf("write %d: directory holds %v, want only the target (no temp file left)", i, names)
		}
	}
}

// TestWriteFileFailedRenameKeepsOld pins the durability contract at the
// publishing step: the temporary file is written in the destination's
// own directory (a cross-filesystem rename is not atomic), and when the
// rename fails the previous file is untouched and no temporary file is
// left behind.
func TestWriteFileFailedRenameKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.json")
	if err := WriteFile(path, []byte("old record"), 0o600); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("injected rename failure")
	var tmpPath string
	rename = func(oldpath, newpath string) error {
		tmpPath = oldpath
		if newpath != path {
			t.Errorf("rename target %q, want %q", newpath, path)
		}
		if _, err := os.Stat(oldpath); err != nil {
			t.Errorf("temporary file missing at rename time: %v", err)
		}
		return boom
	}
	defer func() { rename = os.Rename }()

	err := WriteFile(path, []byte("new record"), 0o600)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the rename failure", err)
	}
	if filepath.Dir(tmpPath) != dir {
		t.Fatalf("temporary file %q is outside the destination directory %q", tmpPath, dir)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "old record" {
		t.Fatalf("after a failed rename the file reads %q, %v; want the old record", got, err)
	}
	if names := readDir(t, dir); len(names) != 1 || names[0] != "job.json" {
		t.Fatalf("directory holds %v after a failed rename, want only job.json", names)
	}
}
