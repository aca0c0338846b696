// Package wal implements the append-only write-ahead log under ZKDET's
// durable state engine: CRC-framed records in rotating segment files.
// Concurrent appenders share fsyncs among themselves: one runs at a time,
// and the records framed while it runs share the next. The log starts no
// goroutine of its own.
//
// Durability contract: a record is durable once AppendSync returns. The log
// never acknowledges a record before it is framed, flushed, and fsynced —
// the invariant the chain layer relies on to acknowledge sealed blocks and
// blob puts. A crash can lose only unacknowledged tail records; Open
// detects the torn tail (short or CRC-failing frames) and truncates it,
// while corruption anywhere before the tail fails loudly with ErrCorrupt
// rather than replaying bad state.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
)

// Errors returned by the log.
var (
	ErrClosed   = errors.New("wal: log is closed")
	ErrCorrupt  = errors.New("wal: corrupt record before the log tail")
	ErrTooLarge = errors.New("wal: record exceeds maximum frame size")
)

const (
	segMagic = "ZKWAL001" // segment file header
	// frame layout: u32 payload length | u8 type | payload | u32 CRC.
	frameOverhead = 4 + 1 + 4
	// maxFrame bounds a single record; a length field above this is treated
	// as corruption, not an allocation request.
	maxFrame = 64 << 20

	defaultSegmentBytes = 4 << 20
)

// crcTable is Castagnoli, the polynomial with hardware support on amd64 and
// arm64 — CRC dominates the non-fsync cost of an append.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a log.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// SegmentBytes is the rotation threshold (default 4 MiB). Rotation
	// syncs and seals the active segment; sealed segments are the unit of
	// pruning.
	SegmentBytes int
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
}

// segment describes one on-disk segment file.
type segment struct {
	path  string
	first uint64 // seq of the segment's first record
}

// Log is an append-only segmented record log. Safe for concurrent use.
type Log struct {
	opts Options

	mu       sync.Mutex
	f        *os.File      // guarded by mu; active segment
	w        *bufio.Writer // guarded by mu
	segSize  int           // guarded by mu; bytes framed into the active segment
	segments []segment     // guarded by mu; ascending by first seq, last is active
	nextSeq  uint64        // guarded by mu; seq assigned to the next append
	written  uint64        // guarded by mu; highest seq framed into the buffer
	durable  uint64        // guarded by mu; highest seq covered by an fsync
	err      error         // guarded by mu; sticky I/O error
	closed   bool          // guarded by mu
	syncing  bool          // guarded by mu; an fsync is running outside mu

	synced *sync.Cond // broadcast when an fsync ends or rotation advances durable

	appends        uint64 // guarded by mu
	syncs          uint64 // guarded by mu; fsyncs issued
	rotations      uint64 // guarded by mu; segment files sealed
	prunedSegments uint64 // guarded by mu; segment files deleted by PruneTo

	tornBytes int64 // truncated from the tail at Open; fixed once Open returns
}

// Open creates or reopens a log in opts.Dir. Reopening scans every
// segment: a short or CRC-failing frame at the very tail is truncated (a
// torn write from a crash — those records were never acknowledged), while
// a bad frame anywhere earlier returns ErrCorrupt. The truncated byte
// count is reported by TornBytes.
func Open(opts Options) (*Log, error) {
	opts.fill()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opts: opts, nextSeq: 1}
	l.synced = sync.NewCond(&l.mu)

	if err := l.scanExisting(); err != nil {
		return nil, err
	}
	if l.f == nil {
		if err := l.openSegmentLocked(l.nextSeq); err != nil {
			return nil, err
		}
	}
	l.written = l.nextSeq - 1
	l.durable = l.written
	return l, nil
}

// scanExisting loads the segment list, verifies frames, truncates a torn
// tail, and opens the last segment for append. Called before Open returns
// the log; the lock is held for the duration anyway so the guarded-field
// discipline stays uniform.
func (l *Log) scanExisting() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := listSegments(l.opts.Dir)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		last := i == len(segs)-1
		n, keep, bad, err := verifySegment(seg.path)
		if err != nil {
			return err
		}
		if bad > 0 {
			if !last {
				return fmt.Errorf("%w: %s has %d unreadable bytes mid-log", ErrCorrupt, filepath.Base(seg.path), bad)
			}
			l.tornBytes += bad
			if keep < int64(len(segMagic)) {
				// The tail segment's own header is unreadable — it holds no
				// recoverable record. Drop the file; Open starts a fresh
				// segment at the same seq.
				if err := os.Remove(seg.path); err != nil {
					return fmt.Errorf("wal: dropping headerless tail: %w", err)
				}
				l.nextSeq = seg.first
				continue
			}
			// Torn tail: truncate to the last whole frame.
			if err := os.Truncate(seg.path, keep); err != nil {
				return fmt.Errorf("wal: truncating torn tail: %w", err)
			}
		}
		l.segments = append(l.segments, seg)
		l.nextSeq = seg.first + uint64(n)
	}
	if len(l.segments) == 0 {
		return nil
	}
	// Reopen the last segment for append.
	active := l.segments[len(l.segments)-1]
	f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.segSize = int(st.Size())
	return nil
}

func segName(first uint64) string { return fmt.Sprintf("wal-%016x.seg", first) }

// listSegments returns the directory's segments ascending by first seq.
func listSegments(dir string) ([]segment, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, p := range names {
		var first uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "wal-%x.seg", &first); err != nil {
			continue // not ours
		}
		segs = append(segs, segment{path: p, first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// openSegmentLocked creates a fresh segment whose first record will be seq;
// caller holds l.mu (or runs before Open returns the log).
func (l *Log) openSegmentLocked(seq uint64) error {
	path := filepath.Join(l.opts.Dir, segName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.segSize = len(segMagic)
	l.segments = append(l.segments, segment{path: path, first: seq})
	return nil
}

// rotateLocked seals the active segment (flush + fsync + close) and opens
// the next one; caller holds l.mu. Everything framed so far becomes
// durable, so an fsync still running on the sealed file owes nothing to the
// records framed into its successor.
func (l *Log) rotateLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.syncs++
	if err := l.f.Close(); err != nil {
		return err
	}
	l.durable = l.written
	l.synced.Broadcast()
	l.rotations++
	return l.openSegmentLocked(l.nextSeq)
}

// append frames a record into the log and returns its sequence number. The
// record is NOT durable yet: it becomes durable at the next fsync that
// covers it, which AppendSync runs or waits for.
func (l *Log) append(typ byte, payload []byte) (uint64, error) {
	if len(payload)+frameOverhead > maxFrame {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	if l.segSize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.err = fmt.Errorf("wal: rotate: %w", err)
			return 0, l.err
		}
	}
	seq := l.nextSeq
	if err := writeFrame(l.w, typ, payload); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		return 0, l.err
	}
	l.nextSeq++
	l.written = seq
	l.segSize += frameOverhead + len(payload)
	l.appends++
	return seq, nil
}

// AppendSync appends a record and blocks until an fsync covers it — the
// durable-before-acknowledge primitive.
func (l *Log) AppendSync(typ byte, payload []byte) (uint64, error) {
	seq, err := l.append(typ, payload)
	if err != nil {
		return 0, err
	}
	return seq, l.syncTo(seq)
}

// syncTo blocks until an fsync covers every record up to seq. One fsync
// runs at a time, outside mu, and covers everything written when it began.
// A caller that finds one running waits for it, and runs the next itself if
// that one did not cover seq: appends that land during an fsync share the
// next one.
func (l *Log) syncTo(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	yielded := false
	for l.durable < seq {
		switch {
		case l.err != nil:
			return l.err
		case l.closed:
			return ErrClosed
		case l.syncing:
			l.synced.Wait()
			continue
		case !yielded:
			// Yield once before running an fsync, so appenders that are
			// already runnable frame their records into it. An fsync that
			// returns before the scheduler hands its P away lets nothing
			// else run, so on one P no fsync would ever be shared.
			yielded = true
			l.mu.Unlock()
			runtime.Gosched()
			l.mu.Lock()
			continue
		}
		if err := l.w.Flush(); err != nil {
			l.err = fmt.Errorf("wal: flush: %w", err)
			return l.err
		}
		f, flushed := l.f, l.written
		l.syncing = true
		l.mu.Unlock()
		serr := f.Sync()
		l.mu.Lock()
		l.syncing = false
		l.synced.Broadcast()
		switch {
		case serr == nil:
			l.syncs++
			l.durable = max(l.durable, flushed)
		case f != l.f:
			// Lost the race with rotation: rotation flushed, fsynced and
			// closed this very file under mu and advanced durable past
			// flushed, so the fsync-on-closed-file error is benign.
		case l.err == nil:
			l.err = fmt.Errorf("wal: fsync: %w", serr)
		}
	}
	return nil
}

// PruneTo deletes sealed segments every record of which has seq < keep —
// compaction after a snapshot checkpoint makes the prefix redundant. The
// active segment is never deleted. The files are removed after mu is
// released, so appenders do not wait on the unlinks.
func (l *Log) PruneTo(keep uint64) {
	l.mu.Lock()
	var victims []segment
	// A sealed segment i spans [segments[i].first, segments[i+1].first).
	for len(l.segments) >= 2 && l.segments[1].first <= keep {
		victims = append(victims, l.segments[0])
		l.segments = l.segments[1:]
	}
	l.prunedSegments += uint64(len(victims))
	l.mu.Unlock()
	for _, seg := range victims {
		os.Remove(seg.path) //nolint:errcheck // best-effort; re-pruned next checkpoint
	}
}

// Metrics reports the log's cumulative counters under constant wal.* names.
func (l *Log) Metrics() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return map[string]float64{
		"wal.appends": float64(l.appends), "wal.syncs": float64(l.syncs),
		"wal.rotations": float64(l.rotations), "wal.prunedSegments": float64(l.prunedSegments),
		"wal.tornBytes": float64(l.tornBytes), "wal.segments": float64(len(l.segments)),
	}
}

// NextSeq returns the seq the next append will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// TornBytes returns how many bytes Open truncated from a torn tail.
func (l *Log) TornBytes() int64 { return l.tornBytes }

// Close fsyncs every record framed before it was called, waits for an
// fsync in flight, and closes the active segment. It returns the sticky I/O
// error if the log has one; closing a closed log returns nil.
func (l *Log) Close() error {
	l.mu.Lock()
	target := l.written
	l.mu.Unlock()
	serr := l.syncTo(target)
	cerr := l.shut()
	if serr != nil && !errors.Is(serr, ErrClosed) {
		return serr
	}
	return cerr
}

// Crash is the fault-injection hook: it abandons the log as a SIGKILL
// would, dropping any buffered (never-acknowledged) frames without
// flushing and closing the file descriptor mid-state. The directory can
// then be reopened to exercise recovery.
func (l *Log) Crash() {
	l.shut() //nolint:errcheck // crash semantics: buffered data is deliberately lost
}

// shut waits for an fsync in flight, marks the log closed and closes the
// active segment without flushing it. It returns the sticky I/O error, else
// the file's close error; a log already closed returns nil.
func (l *Log) shut() error {
	l.mu.Lock()
	for l.syncing {
		l.synced.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	f, err := l.f, l.err
	l.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
