package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/help.golden from the current flag set")

// The -h text is ciexp's CLI surface: the usage line generated from
// experiments.Figures plus every flag's default. A flag or subcommand
// that vanishes, or a default that moves, shows up here. Refresh with
// go test ./cmd/ciexp -update.
func TestHelpGolden(t *testing.T) {
	fs := flag.NewFlagSet("ciexp", flag.ContinueOnError)
	newFlags(fs)
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.Usage()
	golden := filepath.Join("testdata", "help.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-h output drifted from %s (rerun with -update if intended):\ngot:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}
