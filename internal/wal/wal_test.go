package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// collect replays the log into a slice of (typ, payload) pairs.
type rec struct {
	seq     uint64
	typ     byte
	payload []byte
}

func collect(t *testing.T, l *Log) []rec {
	t.Helper()
	var out []rec
	err := l.Replay(func(seq uint64, typ byte, payload []byte) error {
		cp := make([]byte, len(payload))
		copy(cp, payload)
		out = append(out, rec{seq, typ, cp})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]rec, 50)
	for i := range want {
		payload := []byte(fmt.Sprintf("record-%03d", i))
		seq, err := l.AppendSync(byte(i%3+1), payload)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want[i] = rec{seq, byte(i%3 + 1), payload}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	got := collect(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].seq != want[i].seq || got[i].typ != want[i].typ || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: identical contents, appends continue the seq space.
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got = collect(t, l2)
	if len(got) != len(want) {
		t.Fatalf("after reopen: %d records, want %d", len(got), len(want))
	}
	seq, err := l2.AppendSync(9, []byte("after reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != uint64(len(want)+1) {
		t.Fatalf("seq after reopen = %d, want %d", seq, len(want)+1)
	}
}

func TestSegmentRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 100)
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := l.AppendSync(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	m := l.Metrics()
	if m["wal.rotations"] == 0 || m["wal.segments"] < 2 {
		t.Fatalf("expected multiple segments, got metrics %v", m)
	}
	if got := collect(t, l); len(got) != n {
		t.Fatalf("replayed %d, want %d", len(got), n)
	}

	// Prune everything below the last few records: older segments go away,
	// replay starts at a retained seq, retained records survive.
	l.PruneTo(uint64(n - 2))
	m = l.Metrics()
	if m["wal.prunedSegments"] == 0 {
		t.Fatalf("expected pruned segments, got metrics %v", m)
	}
	got := collect(t, l)
	if len(got) == 0 || got[len(got)-1].seq != uint64(n) {
		t.Fatalf("tail record missing after prune: %d records", len(got))
	}
	if got[0].seq > uint64(n-2) {
		t.Fatalf("pruned too much: first retained seq %d", got[0].seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen after pruning: seq space is preserved.
	l2, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seq, err := l2.AppendSync(1, []byte("post-prune"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != uint64(n+1) {
		t.Fatalf("seq after prune+reopen = %d, want %d", seq, n+1)
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.AppendSync(1, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	m := l.Metrics()
	if m["wal.appends"] != writers*each {
		t.Fatalf("appends = %v, want %d", m["wal.appends"], writers*each)
	}
	// The whole point of group commit: far fewer fsyncs than appends.
	if m["wal.syncs"] >= m["wal.appends"] {
		t.Fatalf("group commit did not batch: %v syncs for %v appends", m["wal.syncs"], m["wal.appends"])
	}
	if got := collect(t, l); len(got) != writers*each {
		t.Fatalf("replayed %d, want %d", len(got), writers*each)
	}

	// The same sharing across rotation: 128-byte segments seal every few
	// records, so rotation's own fsync on the sealed file races the fsyncs
	// the appenders share.
	t.Run("rotation", func(t *testing.T) {
		l, err := Open(Options{Dir: t.TempDir(), SegmentBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		acked := make([][]rec, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					payload := []byte(fmt.Sprintf("w%d-%d", w, i))
					seq, err := l.AppendSync(1, payload)
					if err != nil {
						t.Errorf("append: %v", err)
						return
					}
					acked[w] = append(acked[w], rec{seq, 1, payload})
				}
			}(w)
		}
		wg.Wait()
		m := l.Metrics()
		if m["wal.rotations"] == 0 {
			t.Fatalf("no rotation: metrics %v", m)
		}
		if m["wal.syncs"] >= m["wal.appends"] {
			t.Fatalf("fsyncs not shared across rotation: %v syncs for %v appends", m["wal.syncs"], m["wal.appends"])
		}
		got := collect(t, l)
		if len(got) != writers*each {
			t.Fatalf("replayed %d, want %d", len(got), writers*each)
		}
		for i, r := range got {
			if r.seq != uint64(i+1) {
				t.Fatalf("record %d replayed with seq %d", i, r.seq)
			}
		}
		for w := range acked {
			for _, a := range acked[w] {
				if r := got[a.seq-1]; !bytes.Equal(r.payload, a.payload) {
					t.Fatalf("seq %d replayed %q, acknowledged %q", a.seq, r.payload, a.payload)
				}
			}
		}
	})
}

func TestCrashLosesOnlyUnacknowledged(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.AppendSync(1, []byte(fmt.Sprintf("acked-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Buffered but never synced: allowed to vanish.
	if _, err := l.append(1, []byte("unacked")); err != nil {
		t.Fatal(err)
	}
	l.Crash()

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) < 10 {
		t.Fatalf("lost acknowledged records: %d < 10", len(got))
	}
	for i := 0; i < 10; i++ {
		if want := fmt.Sprintf("acked-%d", i); string(got[i].payload) != want {
			t.Fatalf("record %d = %q, want %q", i, got[i].payload, want)
		}
	}
}

func TestCorruptionMidLogFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("y"), 100)
	for i := 0; i < 20; i++ {
		if _, err := l.AppendSync(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the FIRST segment — not the tail, so not a torn write.
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want ≥2 segments, got %d (err %v)", len(segs), err)
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+10] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on mid-log corruption = %v, want ErrCorrupt", err)
	}
}

func TestCloseIsIdempotentAndRejectsAppends(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := l.append(1, []byte("nope")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}

func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendSync(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
}
