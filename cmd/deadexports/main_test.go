package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestScanFixture runs the gate over a module with one name per case:
// an exported name unreferenced, used only by its own package's tests,
// used by another package or by another package's tests; a method that
// implements an interface, a method that does not, an allow-listed
// method, and an allow-list entry that names no finding; an unexported
// func used only by its own package's tests, one that calls itself as
// well, and one production calls; an unexported method used only by
// tests, and one that implements an unexported interface; and a main
// package's main and init.
func TestScanFixture(t *testing.T) {
	allow := map[string]string{
		"fixture/internal/a.Square.Diagonal": "kept on purpose",
		"fixture/internal/a.Gone":            "names nothing",
	}
	got, err := scan("testdata/fixture", allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allow.txt: fixture/internal/a.Gone is not a finding; remove the entry",
		"testdata/fixture/internal/a/a.go:18:6: fixture/internal/a.helper has no reference outside its own package's tests",
		"testdata/fixture/internal/a/a.go:22:6: fixture/internal/a.countdown has no reference outside its own package's tests",
		"testdata/fixture/internal/a/a.go:39:17: fixture/internal/a.Square.Perimeter has no reference outside its own package's tests",
		"testdata/fixture/internal/a/a.go:46:17: fixture/internal/a.Square.scale has no reference outside its own package's tests",
		"testdata/fixture/internal/a/a.go:5:6: fixture/internal/a.Unused has no reference outside its own package's tests",
		"testdata/fixture/internal/a/a.go:9:6: fixture/internal/a.TestOnly has no reference outside its own package's tests",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
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
