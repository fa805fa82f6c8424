package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestScanFixture runs the gate over a module with one name per case.
// Funcs and methods: an exported name unreferenced, used only by its
// own package's tests, or only by another package's tests; a method
// that implements an interface, a method that does not, an allow-listed
// method, and an allow-list entry that names no finding; an unexported
// func used only by its own package's tests, one that calls itself as
// well, and one production calls; an unexported method used only by
// tests, and one that implements an unexported interface; a dead call
// chain of two; a command's main and init, and a var initialiser of a
// package it links. Fields: one read, one only assigned and
// incremented, one only added to through sync/atomic, one added to and
// loaded, a pointer to a counter added to, a tagged one, and a map
// key's. Packages: a test-support package's name that a test calls and
// one nothing calls, and a package nothing imports, whose own test
// calls its name. A nested module's main and the names it reaches:
// listed, not failed, and only the ones it calls, or a var initialiser
// of a package only it links calls (not a command root).
func TestScanFixture(t *testing.T) {
	allow := map[string]string{
		"fixture/internal/a.Square.Diagonal": "kept on purpose",
		"fixture/internal/a.Gone":            "names nothing",
	}
	got, nested, err := scan("testdata/fixture", allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allow.txt: fixture/internal/a.Gone is not a finding; remove the entry",
		"testdata/fixture/internal/a/a.go:18:6: fixture/internal/a.helper: no command reaches it",
		"testdata/fixture/internal/a/a.go:22:6: fixture/internal/a.countdown: no command reaches it",
		"testdata/fixture/internal/a/a.go:30:7: fixture/internal/a.UsedByOtherTests: no command reaches it",
		"testdata/fixture/internal/a/a.go:39:17: fixture/internal/a.Square.Perimeter: no command reaches it",
		"testdata/fixture/internal/a/a.go:46:17: fixture/internal/a.Square.scale: no command reaches it",
		"testdata/fixture/internal/a/a.go:5:6: fixture/internal/a.Unused: no command reaches it",
		"testdata/fixture/internal/a/a.go:9:6: fixture/internal/a.TestOnly: no command reaches it",
		"testdata/fixture/internal/a/fields.go:32:6: fixture/internal/a.chainHead: no command reaches it",
		"testdata/fixture/internal/a/fields.go:35:6: fixture/internal/a.chainTail: no command reaches it",
		"testdata/fixture/internal/a/fields.go:8:2: fixture/internal/a.Tally.written: no command reads it",
		"testdata/fixture/internal/a/fields.go:9:2: fixture/internal/a.Tally.hits: no command reads it",
		"testdata/fixture/internal/d/d.go:8:6: fixture/internal/d.Orphan: no command reaches it",
		"testdata/fixture/internal/e/e.go:5:6: fixture/internal/e.Lonely: no command reaches it",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if want := []string{"fixture/internal/a.BenchOnly", "fixture/internal/f.Value", "fixture/internal/f.start"}; !reflect.DeepEqual(nested, want) {
		t.Errorf("reached only from a nested module: %v, want %v", nested, want)
	}
}

func TestParseAllow(t *testing.T) {
	allow, err := parseAllow(allowList)
	if err != nil {
		t.Fatal(err)
	}
	if len(allow) == 0 {
		t.Fatal("the checked-in allow-list parsed to nothing")
	}
	if _, err := parseAllow("repro/internal/x.Y\n"); err == nil {
		t.Error("an entry without a reason parsed")
	}
}
