package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
)

// This file implements the exported cost files of §2.6: to support
// modular compilation, the pass exports per-function metadata from each
// build unit, which is imported while building dependent units.

// costFile is the serialized form of a cost table.
type costFile struct {
	Version int        `json:"version"`
	Funcs   []FuncInfo `json:"funcs"`
}

const costFileVersion = 1

// ExportCosts serializes the cost table for use by dependent build
// units.
func ExportCosts(t CostTable) ([]byte, error) {
	cf := costFile{Version: costFileVersion}
	names := make([]string, 0, len(t))
	for n := range t {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cf.Funcs = append(cf.Funcs, t[n])
	}
	return json.MarshalIndent(cf, "", "  ")
}

// ImportCosts parses a cost file produced by ExportCosts. It rejects a
// file the analysis cannot use: an unknown cost kind, an affine cost of
// a negative parameter, or a function named twice.
func ImportCosts(data []byte) (CostTable, error) {
	var cf costFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, fmt.Errorf("analysis: parsing cost file: %w", err)
	}
	if cf.Version != costFileVersion {
		return nil, fmt.Errorf("analysis: cost file version %d, want %d", cf.Version, costFileVersion)
	}
	t := make(CostTable, len(cf.Funcs))
	for _, fi := range cf.Funcs {
		switch c := fi.Cost; {
		case c.Kind > CostAffine:
			return nil, fmt.Errorf("analysis: cost file: %q has unknown cost kind %d", fi.Name, c.Kind)
		case c.Kind == CostAffine && c.Param < 0:
			return nil, fmt.Errorf("analysis: cost file: %q has affine cost of parameter %d", fi.Name, c.Param)
		}
		if _, dup := t[fi.Name]; dup {
			return nil, fmt.Errorf("analysis: cost file names %q twice", fi.Name)
		}
		t[fi.Name] = fi
	}
	return t, nil
}
