package sanitize

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/ir"
)

// Repro is one pinned reproducer loaded from disk.
type Repro struct {
	Name string
	Path string
	Mod  *ir.Module
}

// LoadRepros parses every *.ir file in dir, sorted by name. A missing
// directory yields an empty slice, not an error.
func LoadRepros(dir string) ([]Repro, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sanitize: %w", err)
	}
	var out []Repro
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ir") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		text, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("sanitize: %w", err)
		}
		m, err := ir.Parse(string(text))
		if err != nil {
			return nil, fmt.Errorf("sanitize: reproducer %s: %w", path, err)
		}
		out = append(out, Repro{Name: strings.TrimSuffix(e.Name(), ".ir"), Path: path, Mod: m})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
