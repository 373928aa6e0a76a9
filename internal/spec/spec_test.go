package spec

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestParseDataset(t *testing.T) {
	cases := []struct {
		raw  string
		want Dataset
	}{
		{"demo", Dataset{Name: "demo"}},
		{"demo:unweighted", Dataset{Name: "demo"}},
		{"demo:weighted", Dataset{Name: "demo", Weighted: true}},
		{"  demo:weighted  ", Dataset{Name: "demo", Weighted: true}},
		{"demo:", Dataset{Name: "demo"}},
	}
	for _, tc := range cases {
		got, err := ParseDataset(tc.raw)
		if err != nil {
			t.Fatalf("ParseDataset(%q): %v", tc.raw, err)
		}
		if got != tc.want {
			t.Errorf("ParseDataset(%q) = %+v, want %+v", tc.raw, got, tc.want)
		}
	}
}

func TestParseDatasetErrors(t *testing.T) {
	if _, err := ParseDataset(""); !errors.Is(err, ErrEmptySpec) {
		t.Errorf("empty spec: got %v, want ErrEmptySpec", err)
	}
	if _, err := ParseDataset(":weighted"); !errors.Is(err, ErrEmptySpec) {
		t.Errorf("missing name: got %v, want ErrEmptySpec", err)
	}
	if _, err := ParseDataset("demo:treap"); !errors.Is(err, ErrBadKind) {
		t.Errorf("bad kind: got %v, want ErrBadKind", err)
	}
}

// TestDatasetNameRule pins the one name rule: a name is a single path
// element (a durable irsd stores it as <data-dir>/<name>) that fits a u8
// length prefix and contains none of the grammar's separators. The rule
// holds through every entry point: a bare name, a spec, a spec list and a
// config file.
func TestDatasetNameRule(t *testing.T) {
	long := strings.Repeat("n", 255)
	for _, name := range []string{"demo", "a.b", "..c", "with space", "Ünïcode", "x-y_z", long} {
		if err := CheckName(name); err != nil {
			t.Errorf("CheckName(%q) = %v, want nil", name, err)
		}
		if d, err := ParseDataset(name + ":weighted"); err != nil || d.Name != name {
			t.Errorf("ParseDataset(%q:weighted) = %+v, %v", name, d, err)
		}
	}
	bad := []string{
		"../escaped", "a/b", "/abs", `a\b`, ".", "..", "nul\x00byte", "tab\there", "del\x7f",
		"a@b", "a#b", long + "n",
	}
	for _, name := range bad {
		if err := CheckName(name); !errors.Is(err, ErrBadName) {
			t.Errorf("CheckName(%q) = %v, want ErrBadName", name, err)
		}
		if _, err := ParseDataset(name); err == nil {
			t.Errorf("ParseDataset(%q) accepted the name", name)
		}
		if _, err := ParseDatasets("ok," + name + ":weighted"); err == nil {
			t.Errorf("ParseDatasets accepted %q", name)
		}
	}
	// The separators a spec or a config line would split on never reach
	// ParseDataset as part of a name, so the bare rule covers them.
	for _, name := range []string{"", "a:b", "a,b"} {
		if err := CheckName(name); !errors.Is(err, ErrBadName) {
			t.Errorf("CheckName(%q) = %v, want ErrBadName", name, err)
		}
	}
	// A config file carrying one bad name is rejected whole.
	if _, err := Parse("good\n../escaped\n"); !errors.Is(err, ErrBadName) {
		t.Errorf("Parse with a path-escaping name: got %v, want ErrBadName", err)
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	for _, d := range []Dataset{{Name: "a"}, {Name: "b", Weighted: true}} {
		got, err := ParseDataset(d.String())
		if err != nil {
			t.Fatalf("ParseDataset(%q): %v", d.String(), err)
		}
		if got != d {
			t.Errorf("round trip %+v -> %q -> %+v", d, d.String(), got)
		}
	}
}

func TestParseDatasets(t *testing.T) {
	got, err := ParseDatasets("a, b:weighted,, c:unweighted,")
	if err != nil {
		t.Fatal(err)
	}
	want := []Dataset{{Name: "a"}, {Name: "b", Weighted: true}, {Name: "c"}}
	if len(got) != len(want) {
		t.Fatalf("got %d specs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("spec %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := ParseDatasets(" , ,"); !errors.Is(err, ErrEmptySpec) {
		t.Errorf("all-empty list: got %v, want ErrEmptySpec", err)
	}
}

func TestParsePartition(t *testing.T) {
	cases := []struct {
		raw  string
		want Partition
	}{
		{"127.0.0.1:8080@0:1000", Partition{Addr: "127.0.0.1:8080", Lo: 0, Hi: 1000}},
		{"localhost:9090@-inf:0", Partition{Addr: "localhost:9090", Lo: math.Inf(-1), Hi: 0}},
		{"n3:7070@1000:+inf", Partition{Addr: "n3:7070", Lo: 1000, Hi: math.Inf(1)}},
		{"n3:7070@1000:inf", Partition{Addr: "n3:7070", Lo: 1000, Hi: math.Inf(1)}},
		{"x@-2.5:2.5", Partition{Addr: "x", Lo: -2.5, Hi: 2.5}},
	}
	for _, tc := range cases {
		got, err := ParsePartition(tc.raw)
		if err != nil {
			t.Fatalf("ParsePartition(%q): %v", tc.raw, err)
		}
		if got != tc.want {
			t.Errorf("ParsePartition(%q) = %+v, want %+v", tc.raw, got, tc.want)
		}
	}
}

func TestParsePartitionErrors(t *testing.T) {
	cases := []struct {
		raw  string
		want error
	}{
		{"", ErrEmptySpec},
		{"127.0.0.1:8080", ErrBadPartition}, // no '@'
		{"@0:10", ErrBadPartition},          // no address
		{"addr@0-10", ErrBadPartition},      // no ':' in range
		{"addr@ten:20", ErrBadRange},        // unparseable bound
		{"addr@10:0", ErrBadRange},          // inverted
		{"addr@NaN:10", ErrBadRange},        // NaN
	}
	for _, tc := range cases {
		if _, err := ParsePartition(tc.raw); !errors.Is(err, tc.want) {
			t.Errorf("ParsePartition(%q): got %v, want %v", tc.raw, err, tc.want)
		}
	}
}

func TestPartitionRoundTrip(t *testing.T) {
	for _, p := range []Partition{
		{Addr: "127.0.0.1:8080", Lo: 0, Hi: 1000},
		{Addr: "a:1", Lo: math.Inf(-1), Hi: math.Inf(1)},
		{Addr: "b:2", Lo: -0.125, Hi: 7e20},
	} {
		got, err := ParsePartition(p.String())
		if err != nil {
			t.Fatalf("ParsePartition(%q): %v", p.String(), err)
		}
		if got != p {
			t.Errorf("round trip %+v -> %q -> %+v", p, p.String(), got)
		}
	}
}

func TestParsePartitions(t *testing.T) {
	got, err := ParsePartitions("a:1@-inf:0, b:2@0:100, c:3@100:+inf")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d partitions, want 3", len(got))
	}
	if got[1] != (Partition{Addr: "b:2", Lo: 0, Hi: 100}) {
		t.Errorf("partition 1 = %+v", got[1])
	}
}
