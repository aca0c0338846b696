package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// writeFrame frames one record: u32 length | u8 type | payload | u32 CRC.
// The CRC covers the type byte and the payload, so a frame whose length
// field was torn mid-write cannot pass as a shorter valid record.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	crc := crc32.Update(crc32.Checksum(hdr[4:5], crcTable), crcTable, payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	_, err := w.Write(tail[:])
	return err
}

// parseFrames walks the frames in a segment's byte contents (after the
// magic header), calling fn for each whole, CRC-valid frame. It returns
// the count of valid frames, the byte offset just past the last valid
// frame, and the number of trailing bytes that do not form a valid frame
// (0 for a clean segment). fn may be nil to just verify.
func parseFrames(data []byte, fn func(typ byte, payload []byte) error) (n int, keep int64, bad int64, err error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return 0, 0, int64(len(data)), nil
	}
	off := len(segMagic)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return n, int64(off), 0, nil
		}
		if len(rest) < frameOverhead {
			return n, int64(off), int64(len(rest)), nil
		}
		// Bound the length field before it becomes an int, which on a
		// 32-bit build would turn a length above 2^31 negative.
		u := binary.LittleEndian.Uint32(rest[:4])
		if u > maxFrame-frameOverhead || len(rest) < frameOverhead+int(u) {
			return n, int64(off), int64(len(rest)), nil
		}
		plen := int(u)
		typ := rest[4]
		payload := rest[5 : 5+plen]
		want := binary.LittleEndian.Uint32(rest[5+plen : frameOverhead+plen])
		crc := crc32.Update(crc32.Checksum(rest[4:5], crcTable), crcTable, payload)
		if crc != want {
			return n, int64(off), int64(len(rest)), nil
		}
		if fn != nil {
			if err := fn(typ, payload); err != nil {
				return n, int64(off), 0, err
			}
		}
		n++
		off += frameOverhead + plen
	}
}

// verifySegment scans a segment file from disk, returning its valid frame
// count, the offset to keep on truncation, and the trailing bad bytes.
func verifySegment(path string) (n int, keep int64, bad int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: %w", err)
	}
	return parseFrames(data, nil)
}

// Replay streams every retained record in seq order through fn. It is safe
// to call on a live log (the active segment is flushed first so fn sees
// everything appended so far). A CRC-failing frame encountered mid-log —
// which Open would have refused — aborts with ErrCorrupt; fn's own error
// aborts the walk unchanged.
func (l *Log) Replay(fn func(seq uint64, typ byte, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.w.Flush(); err != nil {
		werr := fmt.Errorf("wal: flush: %w", err)
		l.err = werr
		l.mu.Unlock()
		return werr
	}
	segs := make([]segment, len(l.segments))
	copy(segs, l.segments)
	l.mu.Unlock()

	for i, seg := range segs {
		sealed := i < len(segs)-1
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		seq := seg.first
		n, _, bad, err := parseFrames(data, func(typ byte, payload []byte) error {
			err := fn(seq, typ, payload)
			seq++
			return err
		})
		if err != nil {
			return err
		}
		if bad > 0 && sealed {
			// Open truncated the torn tail, so unreadable bytes in a sealed
			// segment are real corruption. In the active segment they are a
			// concurrent append's half-written frame: stop cleanly before it.
			return fmt.Errorf("%w: %s: %d bad bytes after record %d",
				ErrCorrupt, filepath.Base(seg.path), bad, seg.first+uint64(n)-1)
		}
	}
	return nil
}
