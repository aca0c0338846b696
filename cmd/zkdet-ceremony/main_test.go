package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCeremonyFile runs a 2-party ceremony at 64 powers and checks that
// verifySRSFile accepts what it writes and refuses a flipped byte inside a
// G1 power and a truncated file, and that an empty party list is refused.
func TestCeremonyFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "srs.bin")
	if err := runCeremony(64, []string{"alice", "bob"}, out); err != nil {
		t.Fatal(err)
	}
	if err := verifySRSFile(out); err != nil {
		t.Fatalf("fresh ceremony output refused: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	// The file is a 16-byte magic string and an 8-byte power count, then 64
	// bytes per G1 power; this byte lies inside the third power's x
	// coordinate.
	const header = 16 + 8
	if !bytes.HasPrefix(data, []byte("zkdet-srs-v1")) {
		t.Fatalf("unexpected file header %q", data[:header])
	}
	flipped := append([]byte(nil), data...)
	flipped[header+2*64+17] ^= 0x01
	if err := verifySRSFile(write(t, dir, "flipped.bin", flipped)); err == nil {
		t.Fatal("SRS with a flipped byte in a G1 power accepted")
	}
	if err := verifySRSFile(write(t, dir, "truncated.bin", data[:len(data)-1])); err == nil {
		t.Fatal("truncated SRS accepted")
	}

	for _, parties := range [][]string{nil, {""}} {
		if err := runCeremony(64, parties, filepath.Join(dir, "empty.bin")); err == nil {
			t.Fatalf("ceremony with parties %q accepted", parties)
		}
	}
}

func write(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}
