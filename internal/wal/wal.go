// Package wal implements the append-only write-ahead log under ZKDET's
// durable state engine: CRC-framed records in rotating segment files, with
// group-committed fsync batching so many concurrent appenders share one
// disk flush.
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
	crashed  bool          // guarded by mu; Crash() dropped the buffers

	wake   *sync.Cond // signals the group committer that work is pending
	synced *sync.Cond // broadcast when durable advances

	appends        uint64 // guarded by mu
	syncs          uint64 // guarded by mu; fsyncs issued
	rotations      uint64 // guarded by mu; segment files sealed
	prunedSegments uint64 // guarded by mu; segment files deleted by PruneTo

	tornBytes int64 // truncated from the tail at Open; fixed once Open returns

	syncerWG sync.WaitGroup
	pruneWG  sync.WaitGroup
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
	l.wake = sync.NewCond(&l.mu)
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

	l.syncerWG.Add(1)
	go l.syncLoop()
	return l, nil
}

// scanExisting loads the segment list, verifies frames, truncates a torn
// tail, and opens the last segment for append. Called before the syncer
// starts; the lock is held for the duration anyway so the guarded-field
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
// caller holds l.mu (or runs before the syncer exists).
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
// durable, which keeps the group committer's single-file bookkeeping
// correct across the boundary.
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
// record is NOT durable yet: it becomes durable at the group committer's
// next fsync, which AppendSync waits for.
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
	l.wake.Signal()
	return seq, nil
}

// AppendSync appends a record and blocks until the group commit covering
// it has fsynced — the durable-before-acknowledge primitive.
func (l *Log) AppendSync(typ byte, payload []byte) (uint64, error) {
	seq, err := l.append(typ, payload)
	if err != nil {
		return 0, err
	}
	return seq, l.waitDurable(seq)
}

// waitDurable blocks until the record with the given seq is fsynced.
func (l *Log) waitDurable(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable < seq && l.err == nil && !l.closed {
		l.synced.Wait()
	}
	if l.durable >= seq {
		return nil
	}
	if l.err != nil {
		return l.err
	}
	return ErrClosed
}

// syncTo makes all records up to target durable, sharing the work with the
// group committer where possible.
func (l *Log) syncTo(target uint64) error {
	l.mu.Lock()
	if l.durable >= target {
		err := l.err
		l.mu.Unlock()
		return err
	}
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
	f := l.f
	flushed := l.written
	l.mu.Unlock()

	// fsync outside the lock: appenders keep framing into the buffer while
	// the disk write completes. The fsync covers at least every byte
	// flushed above; rotation fsyncs synchronously under mu, so f cannot
	// have been swapped with unflushed data attributed to it.
	serr := f.Sync()

	l.mu.Lock()
	defer l.mu.Unlock()
	if serr != nil {
		if f != l.f {
			// Lost the race with rotation: rotation flushed, fsynced and
			// closed this very file under mu and advanced durable past
			// flushed, so the fsync-on-closed-file error is benign.
			return l.err
		}
		if l.err == nil {
			l.err = fmt.Errorf("wal: fsync: %w", serr)
		}
		l.synced.Broadcast()
		return l.err
	}
	l.syncs++
	if flushed > l.durable {
		l.durable = flushed
	}
	l.synced.Broadcast()
	return l.err
}

// syncLoop is the group committer: it wakes when appends are pending and
// issues one fsync for everything written since the last one. It does not
// wait for more writers: appends that land while an fsync runs share the
// next one.
func (l *Log) syncLoop() {
	defer l.syncerWG.Done()
	for {
		l.mu.Lock()
		for l.written == l.durable && !l.closed && l.err == nil {
			l.wake.Wait()
		}
		if l.closed || l.err != nil {
			l.synced.Broadcast()
			l.mu.Unlock()
			return
		}
		target := l.written
		l.mu.Unlock()
		if err := l.syncTo(target); err != nil {
			return
		}
	}
}

// PruneTo asynchronously deletes sealed segments every record of which has
// seq < keep — background compaction after a snapshot checkpoint makes the
// prefix redundant. The active segment is never deleted. Deletion runs on
// a background goroutine; Close waits for it.
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
	if len(victims) == 0 {
		return
	}
	l.pruneWG.Add(1)
	go func() {
		defer l.pruneWG.Done()
		for _, seg := range victims {
			os.Remove(seg.path) //nolint:errcheck // best-effort; re-pruned next checkpoint
		}
	}()
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

// Close flushes and fsyncs the tail, stops the group committer, and waits
// for background pruning.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	target := l.written
	l.mu.Unlock()
	serr := l.syncTo(target)

	l.mu.Lock()
	l.closed = true
	l.wake.Broadcast()
	l.synced.Broadcast()
	f := l.f
	l.mu.Unlock()

	l.syncerWG.Wait()
	l.pruneWG.Wait()
	cerr := f.Close()
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
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.crashed = true
	l.wake.Broadcast()
	l.synced.Broadcast()
	f := l.f
	l.mu.Unlock()
	l.syncerWG.Wait()
	l.pruneWG.Wait()
	f.Close() //nolint:errcheck // crash semantics: buffered data is deliberately lost
}
