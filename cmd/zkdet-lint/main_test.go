package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/zkdet/zkdet/cmd/zkdet-lint/internal/lint"
)

// TestExitCodes pins the exit-status contract: every analyzer has its own
// code, outside the reserved 0–2, so a new analyzer cannot silently exit 1.
func TestExitCodes(t *testing.T) {
	owner := map[int]string{}
	for name, code := range exitCodes {
		if code < 3 {
			t.Errorf("%s has exit code %d; 0–2 are reserved", name, code)
		}
		if other, dup := owner[code]; dup {
			t.Errorf("%s and %s share exit code %d", name, other, code)
		}
		owner[code] = name
	}
	for _, a := range lint.All() {
		if _, ok := exitCodes[a.Name]; !ok {
			t.Errorf("analyzer %s has no exit code", a.Name)
		}
	}
	if exitCodes["testonly"] != 12 {
		t.Errorf("testonly exits %d, want 12", exitCodes["testonly"])
	}
}

// TestListPrintsExitCodes checks -list names every analyzer with its code.
func TestListPrintsExitCodes(t *testing.T) {
	var out bytes.Buffer
	printList(&out, lint.All())
	for _, a := range lint.All() {
		want := fmt.Sprintf("exit %-2d %s", exitCodes[a.Name], a.Doc)
		if !strings.Contains(out.String(), a.Name) || !strings.Contains(out.String(), want) {
			t.Errorf("-list output lacks %s %q:\n%s", a.Name, want, out.String())
		}
	}
}
