package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsUnknownArgument: an unknown artifact or scale prints the usage
// and exits 2 before anything runs.
func TestRejectsUnknownArgument(t *testing.T) {
	for _, args := range [][]string{{"fig8"}, {"-scale", "large", "table2"}, {"-fig", "5"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "usage: zkdet-bench") {
			t.Errorf("%q: no usage on stderr: %q", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed %q", args, stdout.String())
		}
	}
}

// TestTable2: one artifact prints the commit/host line, then one Markdown
// table with Table II's 8 rows.
func TestTable2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"table2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if !strings.HasPrefix(lines[0], "zkdet-bench -scale small: commit ") || !strings.Contains(lines[0], "; host ") {
		t.Errorf("first line names no commit and host: %q", lines[0])
	}
	var rows, separators int
	for _, l := range lines[1:] {
		switch {
		case strings.HasPrefix(l, "|---"):
			separators++
		case strings.HasPrefix(l, "| "):
			rows++
		}
	}
	if separators != 1 || rows != 1+8 {
		t.Errorf("%d tables and %d rows (header included), want 1 and 9:\n%s", separators, rows, stdout.String())
	}
}
