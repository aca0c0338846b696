package wal

// Torn-write recovery properties: whatever a crash does to the tail of the
// log — truncation at an arbitrary byte offset, or bit flips from a torn
// sector — reopening must either restore an exact prefix of the appended
// records or fail loudly with ErrCorrupt. It must never invent, reorder,
// or silently alter a record.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// buildLog appends n deterministic records and closes the log, returning
// the payloads in order.
func buildLog(t testing.TB, dir string, n, segmentBytes int) [][]byte {
	t.Helper()
	l, err := Open(Options{Dir: dir, SegmentBytes: segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("payload-%04d-%s", i, string(bytes.Repeat([]byte{byte(i)}, i%40))))
		if _, err := l.append(byte(i%5+1), payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return payloads
}

// lastSegment returns the path and size of the final segment.
func lastSegment(t testing.TB, dir string) (string, int64) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d)", err, len(segs))
	}
	p := segs[len(segs)-1].path
	st, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, st.Size()
}

// checkPrefix asserts the reopened log replays an exact prefix of want.
func checkPrefix(t *testing.T, dir string, want [][]byte) int {
	t.Helper()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	i := 0
	err = l.Replay(func(seq uint64, typ byte, payload []byte) error {
		if i >= len(want) {
			return fmt.Errorf("extra record %d beyond the %d appended", seq, len(want))
		}
		if seq != uint64(i+1) {
			return fmt.Errorf("record %d has seq %d", i, seq)
		}
		if !bytes.Equal(payload, want[i]) {
			return fmt.Errorf("record %d payload altered", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatalf("replay after damage: %v", err)
	}
	return i
}

func TestTornTailTruncationProperty(t *testing.T) {
	const records = 60
	rng := rand.New(rand.NewSource(0x7042))
	for trial := 0; trial < 30; trial++ {
		dir := t.TempDir()
		want := buildLog(t, dir, records, 1<<20) // single segment
		path, size := lastSegment(t, dir)
		// Truncate at an arbitrary offset inside the file.
		cut := int64(rng.Intn(int(size)))
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		n := checkPrefix(t, dir, want)
		if n == records && cut < size {
			// Only legal if the cut landed exactly on the final frame
			// boundary — but cut < size means bytes were lost.
			t.Fatalf("trial %d: full log replayed after truncation to %d/%d", trial, cut, size)
		}
	}
}

func TestBitFlipTailProperty(t *testing.T) {
	const records = 60
	rng := rand.New(rand.NewSource(0xb17f))
	for trial := 0; trial < 30; trial++ {
		dir := t.TempDir()
		want := buildLog(t, dir, records, 1<<20)
		path, size := lastSegment(t, dir)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off := rng.Intn(int(size))
		data[off] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// A flip in the single (= last) segment is indistinguishable from a
		// torn write: recovery keeps the valid prefix before the damage.
		// Flips in the magic header may legally drop the whole segment.
		checkPrefix(t, dir, want)
	}
}

func TestBitFlipSealedSegmentFailsLoudly(t *testing.T) {
	const records = 200
	rng := rand.New(rand.NewSource(0x5ea1))
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		want := buildLog(t, dir, records, 1024) // many segments
		segs, err := listSegments(dir)
		if err != nil || len(segs) < 3 {
			t.Fatalf("want ≥3 segments, got %d", len(segs))
		}
		victim := segs[rng.Intn(len(segs)-1)] // any sealed segment
		data, err := os.ReadFile(victim.path)
		if err != nil {
			t.Fatal(err)
		}
		data[rng.Intn(len(data))] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(victim.path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Either Open refuses outright (ErrCorrupt), or — if the flip hit
		// frame-boundary slack that still parses — replay must still yield
		// an unaltered prefix. It must never serve modified payloads.
		l, err := Open(Options{Dir: dir})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("trial %d: Open = %v, want ErrCorrupt", trial, err)
			}
			continue
		}
		i := 0
		rerr := l.Replay(func(seq uint64, typ byte, payload []byte) error {
			if i < len(want) && !bytes.Equal(payload, want[i]) {
				return fmt.Errorf("record %d altered", i)
			}
			i++
			return nil
		})
		l.Close()
		if rerr != nil && !errors.Is(rerr, ErrCorrupt) {
			t.Fatalf("trial %d: replay = %v", trial, rerr)
		}
	}
}

// wrappedLengthSegment is a segment holding one record, then a frame whose
// length field reads 0xFFFFFFF7: a 32-bit int reads it as −9, which would
// pass an int bound and slice the payload backwards.
func wrappedLengthSegment() []byte {
	var buf bytes.Buffer
	buf.WriteString(segMagic)
	writeFrame(&buf, 1, []byte("kept")) //nolint:errcheck // bytes.Buffer cannot fail
	buf.Write([]byte{0xf7, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0})
	return buf.Bytes()
}

func TestOpenTruncatesWrappedLength(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), wrappedLengthSegment(), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open on a wrapped length field: %v", err)
	}
	defer l.Close()
	if got := l.TornBytes(); got != 9 {
		t.Fatalf("TornBytes = %d, want the 9-byte wrapped frame", got)
	}
	if got := collect(t, l); len(got) != 1 || string(got[0].payload) != "kept" {
		t.Fatalf("replayed %d records, want the one before the torn tail", len(got))
	}
}

// FuzzTornReplay feeds arbitrary bytes as a segment file: parsing must
// never panic, and every frame it accepts must carry a valid CRC (checked
// implicitly by re-framing and comparing).
func FuzzTornReplay(f *testing.F) {
	// Seed with a well-formed segment.
	var buf bytes.Buffer
	buf.WriteString(segMagic)
	for i := 0; i < 5; i++ {
		writeFrame(&buf, byte(i+1), []byte(fmt.Sprintf("seed-%d", i))) //nolint:errcheck // bytes.Buffer cannot fail
	}
	f.Add(buf.Bytes())
	f.Add([]byte(segMagic))
	f.Add([]byte{})
	f.Add(wrappedLengthSegment())
	f.Fuzz(func(t *testing.T, data []byte) {
		n, keep, bad, err := parseFrames(data, func(typ byte, payload []byte) error { return nil })
		if err != nil {
			t.Fatalf("callback-less parse errored: %v", err)
		}
		if keep+bad != int64(len(data)) && n >= 0 {
			// keep is the boundary after the last valid frame; everything
			// after it must be accounted as bad.
			if int64(len(data))-keep != bad {
				t.Fatalf("accounting: len=%d keep=%d bad=%d", len(data), keep, bad)
			}
		}
		// Round-trip: writing the accepted frames back must parse to the
		// same count.
		var rt bytes.Buffer
		rt.WriteString(segMagic)
		parseFrames(data, func(typ byte, payload []byte) error { //nolint:errcheck // verified above
			return writeFrame(&rt, typ, payload)
		})
		n2, _, bad2, _ := parseFrames(rt.Bytes(), nil)
		if n2 != n || bad2 != 0 {
			t.Fatalf("round-trip: %d/%d frames, %d bad", n2, n, bad2)
		}
	})
}
