package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"slices"
	"strings"
	"testing"

	"github.com/irsgo/irs/internal/daemon"
)

// TestValidateFlags pins the router's own flag rule: a topology source is
// required. The rules both daemons share, including -config's exclusion of
// -partitions/-datasets, are pinned in internal/daemon.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name               string
		config, partitions string
		wantErr            bool
	}{
		{"partitions given", "", "127.0.0.1:8081@0:10", false},
		{"nothing given", "", "", true},
		{"config instead of partitions", "/tmp/irs.conf", "", false},
	}
	for _, tc := range cases {
		if err := validateFlags(tc.config, tc.partitions); (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", tc.name, err, tc.wantErr)
		}
	}
}

// TestFlagSet pins irsrouter's flags, the common ones included, and that
// the flags removed from it are rejected as unknown. A flag joins or leaves
// this list together with its row in DESIGN.md "Daemon runtime"'s flag
// table, which gives its default and the deployment reason to set it.
func TestFlagSet(t *testing.T) {
	a := app()
	a.Flags.SetOutput(io.Discard)
	if code := daemon.Run(context.Background(), nil, []string{"-h"}, io.Discard, a); code != 0 {
		t.Fatalf("-h exits %d, want 0", code)
	}
	var got []string
	a.Flags.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		// common to both daemons (internal/daemon)
		"addr", "config", "idle-timeout", "log-format", "pprof", "read-header-timeout", "seed", "tcp-addr",
		// irsrouter's own
		"datasets", "node-timeout", "partitions",
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("irsrouter flags = %v,\nwant %v (update DESIGN.md's flag table with this list)", got, want)
	}
	for _, gone := range []string{"node-encoding", "refresh"} {
		a := app()
		var out bytes.Buffer
		a.Flags.SetOutput(&out)
		code := daemon.Run(context.Background(), nil, []string{"-" + gone, "1"}, io.Discard, a)
		if code != 2 || !strings.Contains(out.String(), "flag provided but not defined: -"+gone) {
			t.Errorf("-%s: exit %d, output %q; want 2 and an undefined-flag error", gone, code, out.String())
		}
	}
}
