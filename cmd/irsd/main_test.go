package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/irsgo/irs/internal/spec"
	"github.com/irsgo/irs/server"
)

// TestValidateFlags pins irsd's own flag-combination validation:
// durability knobs without -data-dir, -fsync-interval under a non-interval
// policy, and -config-poll without a file to watch used to be silently
// ignored — they must fail fast at boot. The rules both daemons share
// (log format, HTTP timeouts, -config exclusivity) are
// pinned in internal/daemon.
func TestValidateFlags(t *testing.T) {
	set := func(names ...string) func(string) bool {
		m := make(map[string]bool, len(names))
		for _, n := range names {
			m[n] = true
		}
		return func(name string) bool { return m[name] }
	}
	cases := []struct {
		name       string
		explicit   func(string) bool
		dataDir    string
		fsync      string
		config     string
		configPoll time.Duration
		wantErr    bool
	}{
		{"defaults, memory-only", set(), "", "always", "", 0, false},
		{"defaults, durable", set("data-dir"), "/tmp/x", "always", "", 0, false},
		{"fsync without data-dir", set("fsync"), "", "none", "", 0, true},
		{"fsync-interval without data-dir", set("fsync-interval"), "", "always", "", 0, true},
		{"snapshot-every without data-dir", set("snapshot-every"), "", "always", "", 0, true},
		{"fsync-interval under -fsync always", set("data-dir", "fsync-interval"), "/tmp/x", "always", "", 0, true},
		{"fsync-interval under -fsync none", set("data-dir", "fsync", "fsync-interval"), "/tmp/x", "none", "", 0, true},
		{"fsync-interval under -fsync interval", set("data-dir", "fsync", "fsync-interval"), "/tmp/x", "interval", "", 0, false},
		{"fsync interval without explicit interval flag", set("data-dir", "fsync"), "/tmp/x", "interval", "", 0, false},
		{"snapshot-every with data-dir", set("data-dir", "snapshot-every"), "/tmp/x", "always", "", 0, false},
		{"config with poll", set("config", "config-poll"), "", "always", "/tmp/irs.conf", time.Second, false},
		{"config-poll without config", set("config-poll"), "", "always", "", time.Second, true},
		{"negative config-poll", set("config", "config-poll"), "", "always", "/tmp/irs.conf", -time.Second, true},
	}
	for _, tc := range cases {
		err := validateFlags(tc.explicit, tc.dataDir, tc.fsync, tc.config, tc.configPoll)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", tc.name, err, tc.wantErr)
		}
	}
}

// TestReloadRejectsBadName: a config reload carrying a dataset name that
// is not a single path element is rejected whole, like any other
// malformed file — nothing is added, nothing is dropped, and nothing
// appears outside the data directory.
func TestReloadRejectsBadName(t *testing.T) {
	root := t.TempDir()
	dataDir := filepath.Join(root, "data")
	s := server.New(server.Config{})
	if err := addDurableSpecs(t, s, "keep", dataDir, 1); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conf := filepath.Join(t.TempDir(), "irsd.conf")
	for _, text := range []string{"new\n../escaped\n", "a/b\n", "keep\n..\n"} {
		if err := os.WriteFile(conf, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := reloadConfig(s, discardLogger(), conf); !errors.Is(err, spec.ErrBadName) {
			t.Fatalf("config %q: err = %v, want ErrBadName", text, err)
		}
		if got := s.Datasets(); len(got) != 1 || got[0] != "keep" {
			t.Fatalf("config %q: registry = %v, want [keep]", text, got)
		}
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "data" {
		t.Errorf("%s holds %v, want only the data dir", root, entries)
	}
}
