package main

import "testing"

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
