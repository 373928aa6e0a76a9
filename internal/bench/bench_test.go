package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "bbbb"},
		Notes:   []string{"note line"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"### demo", "| a   | bbbb |", "| 333 | 4    |", "note line"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMeasureCountsIterations(t *testing.T) {
	total := 0
	ns := measure(5*time.Millisecond, func(batch int) {
		for i := 0; i < batch; i++ {
			total++
			time.Sleep(10 * time.Microsecond)
		}
	})
	if ns < 5_000 { // must be at least the sleep per iteration
		t.Fatalf("ns/op = %v implausible", ns)
	}
	if total == 0 {
		t.Fatal("f never ran")
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 17 {
		t.Fatalf("got %d experiments", len(all))
	}
	for i, e := range all {
		if numOf(e.ID) != i+1 {
			t.Fatalf("experiment %d has id %s", i, e.ID)
		}
	}
	if _, ok := ByID("e7"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("bogus id found")
	}
}

// TestAllExperimentsQuick executes every experiment in quick mode: the
// end-to-end integration test of the harness. It verifies that every table
// renders with consistent row widths and that every statistical verdict
// passes.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take seconds; skipped with -short")
	}
	cfg := Config{Quick: true, Seed: 42}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tables {
				if tab.Title == "" || len(tab.Columns) == 0 || len(tab.Rows) == 0 {
					t.Fatalf("degenerate table %+v", tab)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Fatalf("row width %d != %d columns in %s", len(row), len(tab.Columns), tab.Title)
					}
				}
				var buf bytes.Buffer
				tab.Fprint(&buf)
				if strings.Contains(buf.String(), "FAIL") {
					t.Fatalf("experiment reported FAIL:\n%s", buf.String())
				}
			}
		})
	}
}
