package integrity

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// WriteFileAtomic writes raw to path crash-safely: it creates the
// parent directories, writes a temp file beside path, fsyncs and closes
// it, renames it over path, and then fsyncs the directory (best effort)
// so the new name survives a crash. A failed write leaves path untouched
// and no temp file behind.
func WriteFileAtomic(path string, raw []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(raw)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync() // best effort: some filesystems refuse a directory fsync
		d.Close()
	}
	return nil
}

// Generations names the numbered generations of one durable record kept
// in a directory: Prefix + the generation number as %012d + Ext, where a
// higher number is newer. Temp files, subdirectories and every other
// name are ignored.
type Generations struct {
	Prefix, Ext string
}

// Name returns the canonical file name of generation n.
func (g Generations) Name(n int64) string {
	return fmt.Sprintf("%s%012d%s", g.Prefix, n, g.Ext)
}

// number parses a canonical generation file name.
func (g Generations) number(name string) (int64, bool) {
	digits, ok := strings.CutPrefix(name, g.Prefix)
	if !ok {
		return 0, false
	}
	if digits, ok = strings.CutSuffix(digits, g.Ext); !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	return n, err == nil && n >= 0 && g.Name(n) == name
}

// List returns the generation paths in dir, newest first. A missing dir
// is an empty list, not an error.
func (g Generations) List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	type gen struct {
		name string
		n    int64
	}
	var gens []gen
	for _, e := range entries {
		if n, ok := g.number(e.Name()); ok && !e.IsDir() {
			gens = append(gens, gen{e.Name(), n})
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].n > gens[j].n })
	paths := make([]string, len(gens))
	for i, gn := range gens {
		paths[i] = filepath.Join(dir, gn.name)
	}
	return paths, nil
}

// Save atomically writes raw as generation n in dir and returns its path.
func (g Generations) Save(dir string, n int64, raw []byte) (string, error) {
	path := filepath.Join(dir, g.Name(n))
	if err := WriteFileAtomic(path, raw); err != nil {
		return "", err
	}
	return path, nil
}

// Prune removes all but the keep newest generations in dir. keep <= 0
// keeps everything.
func (g Generations) Prune(dir string, keep int) error {
	if keep <= 0 {
		return nil
	}
	paths, err := g.List(dir)
	if err != nil || len(paths) <= keep {
		return err
	}
	for _, p := range paths[keep:] {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	return nil
}

// LoadNewest decodes the newest generation in dir that decode accepts
// and returns it with its path — crash safety must not depend on the
// last write surviving. Files failing with an integrity error are
// skipped; any other read or decode error is returned. When no usable
// generation is left the error wraps os.ErrNotExist and names every
// skipped file.
func LoadNewest[T any](g Generations, dir string, decode func([]byte) (T, error)) (T, string, error) {
	var zero T
	paths, err := g.List(dir)
	if err != nil {
		return zero, "", err
	}
	var skipped []string
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return zero, "", err
		}
		v, err := decode(raw)
		if err == nil {
			return v, p, nil
		}
		if !IsIntegrityError(err) {
			return zero, "", fmt.Errorf("%s: %w", p, err)
		}
		skipped = append(skipped, fmt.Sprintf("%s (%v)", filepath.Base(p), err))
	}
	pattern := g.Prefix + "*" + g.Ext
	if len(skipped) > 0 {
		return zero, "", fmt.Errorf("no usable %s in %s (damaged: %v): %w", pattern, dir, skipped, os.ErrNotExist)
	}
	return zero, "", fmt.Errorf("no %s in %s: %w", pattern, dir, os.ErrNotExist)
}
