package snapshot

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/storage"
	"github.com/zkdet/zkdet/internal/wal"
)

// Role selects the pruning policy of a durable node.
type Role byte

const (
	// Archive retains every block body and receipt forever: snapshots
	// carry the whole history, and getReceipt answers for any transaction
	// ever sealed.
	Archive Role = iota
	// Full drops bodies and receipts below the last checkpoint (headers
	// are always kept): recovery is exactly as capable — state comes from
	// the snapshot, recent history from the WAL tail — but deep-history
	// receipt queries miss, mirroring Ethereum full-vs-archive nodes.
	Full
)

func (r Role) String() string {
	if r == Full {
		return "full"
	}
	return "archive"
}

// ParseRole parses "archive" or "full".
func ParseRole(s string) (Role, error) {
	switch s {
	case "archive":
		return Archive, nil
	case "full":
		return Full, nil
	}
	return Archive, fmt.Errorf("snapshot: unknown role %q (want archive or full)", s)
}

// WAL record types.
const (
	recBlock      = 1 // a sealed block: header + bodies + receipts
	recBlob       = 2 // a blob-store put: owner + bytes
	recBlobRemove = 3 // a blob-store remove: owner + URI
	recCheckpoint = 4 // a durable snapshot landed: height + state root
	recFaucet     = 5 // a devnet faucet credit: address + amount
)

// Engine errors.
var (
	ErrRecoveryGap  = errors.New("snapshot: WAL begins after the latest verified snapshot (pruned too far)")
	ErrDivergedLog  = errors.New("snapshot: WAL record disagrees with restored chain history")
	ErrReplayDrift  = errors.New("snapshot: replayed receipts differ from the logged receipts")
	ErrAttached     = errors.New("snapshot: store is already attached")
	ErrNotRecovered = errors.New("snapshot: Recover must run before Attach")
	ErrNoBlobStore  = errors.New("snapshot: WAL contains blob records but no blob store is wired")
)

// keepSnapshots bounds retained snapshot files: the latest plus a fallback
// in case the newest is damaged. WAL pruning lags the snapshots by as many
// checkpoints.
const keepSnapshots = 2

// Options tunes a DurableStore.
type Options struct {
	// Dir is the data directory; the WAL lives in Dir/wal, snapshots are
	// snap-<height>.zks files in Dir itself.
	Dir string
	// Role selects archive (default) or full pruning.
	Role Role
	// CheckpointEvery is the snapshot cadence in blocks (default 64).
	CheckpointEvery uint64
	// WAL tunes the log (Dir is overridden to Dir/wal).
	WAL wal.Options
}

func (o *Options) fill() {
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 64
	}
	o.WAL.Dir = filepath.Join(o.Dir, "wal")
}

// Stats are the engine's cumulative counters.
type Stats struct {
	BlocksLogged   uint64
	BlobsLogged    uint64
	Checkpoints    uint64
	CheckpointSkip uint64 // checkpoint attempts skipped (one already in flight)
	PrunedTxs      uint64 // bodies dropped by full-role pruning
	WAL            wal.Stats
}

// RecoveryReport describes what Recover did.
type RecoveryReport struct {
	SnapshotPath     string   // the snapshot that restored, "" if none
	SnapshotHeight   uint64   // height it restored to
	SkippedSnapshots []string // newer snapshots that failed verification, most recent first
	BlocksReplayed   int      // WAL-tail blocks re-imported
	BlobsReplayed    int      // WAL-tail blob puts re-applied
	FaucetsReplayed  int      // WAL-tail faucet credits re-applied
	TornBytes        int64    // bytes the WAL truncated as a torn tail
	Head             uint64   // chain height after recovery

	baseSeq uint64 // the restored snapshot's WALSeq; records below it are covered
}

// DurableStore composes the write-ahead log and snapshot checkpoints
// behind the in-memory chain: an OnSeal hook logs every sealed block
// (group-commit fsynced before ProduceBlock returns, i.e. before any waiter
// is acknowledged), a blob wrapper logs every put, and a background
// checkpointer periodically snapshots the whole state and prunes the log.
//
// Lifecycle: Open → [Blobs] → deploy genesis → Recover → Attach → serve;
// Close on the way down. Crash abandons everything mid-state for tests.
type DurableStore struct {
	opts Options
	log  *wal.Log

	c     *chain.Chain
	blobs *DurableBlobs

	attached  atomic.Bool
	recovered atomic.Bool

	// markMu makes (state mutation, WAL append) pairs atomic with respect
	// to (WAL-mark capture, state export): a checkpoint either fully covers
	// an off-block mutation — its record's seq lands below the manifest's
	// WALSeq and replay skips it — or sees none of it and replay applies
	// the record. Without this, a faucet credit interleaving with an export
	// could be double-applied (or lost) on recovery.
	markMu sync.Mutex

	mu             sync.Mutex
	lastCheckpoint uint64   // guarded by mu; height of the newest durable snapshot
	checkpointing  bool     // guarded by mu; one checkpoint in flight at a time
	pruneMarks     []uint64 // guarded by mu; WAL marks of recent checkpoints, oldest first
	stats          Stats    // guarded by mu
	failed         error    // guarded by mu; sticky logging failure

	checkpointWG sync.WaitGroup
}

// Open creates or reopens a durable store at opts.Dir. Reopening performs
// the WAL's torn-tail repair but restores nothing yet — call Recover.
func Open(opts Options) (*DurableStore, error) {
	opts.fill()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	l, err := wal.Open(opts.WAL)
	if err != nil {
		return nil, err
	}
	return &DurableStore{opts: opts, log: l}, nil
}

// Blobs wraps a local blob store so that every Put and Remove is logged to
// the WAL before it is acknowledged. Must be called before Recover when
// the deployment stores blobs.
func (d *DurableStore) Blobs(inner *storage.Store) *DurableBlobs {
	d.blobs = &DurableBlobs{d: d, inner: inner}
	return d.blobs
}

// Attach registers the durable OnSeal hook on the chain. Call it after
// Recover (enforced) and before the node starts sealing; hooks registered
// earlier (e.g. the indexer) see each block before it is persisted, which
// is harmless — persistence completes before ProduceBlock returns either way.
func (d *DurableStore) Attach(c *chain.Chain) error {
	if !d.recovered.Load() {
		return ErrNotRecovered
	}
	if !d.attached.CompareAndSwap(false, true) {
		return ErrAttached
	}
	d.c = c
	c.OnSeal(d.onSeal)
	return nil
}

// onSeal is the durability hook: it logs the sealed block (header, bodies,
// receipts) and blocks on the group commit, so by the time ProduceBlock (or
// ImportBlock) returns — and the node acknowledges any submitter — the block
// is on disk. Runs under the chain's sealMu in strict height order.
func (d *DurableStore) onSeal(b chain.Block, receipts []*chain.Receipt) {
	txs, ok := d.c.BlockBody(b.Number)
	if !ok {
		d.fail(fmt.Errorf("snapshot: sealed block %d has no body", b.Number))
		return
	}
	payload := encodeBlockRecord(&b, txs, receipts)
	if _, err := d.log.AppendSync(recBlock, payload); err != nil {
		d.fail(fmt.Errorf("snapshot: logging block %d: %w", b.Number, err))
		return
	}
	d.mu.Lock()
	d.stats.BlocksLogged++
	due := b.Number >= d.lastCheckpoint+d.opts.CheckpointEvery
	d.mu.Unlock()
	if due {
		d.maybeCheckpoint()
	}
}

// maybeCheckpoint exports the state synchronously (cheap deep copy under
// the chain lock; from the seal hook it is exactly the sealed head's) and
// writes, fsyncs, and prunes on a background goroutine. At most one
// checkpoint runs at a time; a skipped attempt retries at the next sealed
// block.
func (d *DurableStore) maybeCheckpoint() {
	d.mu.Lock()
	if d.checkpointing {
		d.stats.CheckpointSkip++
		d.mu.Unlock()
		return
	}
	d.checkpointing = true
	d.mu.Unlock()

	done := func() {
		d.mu.Lock()
		d.checkpointing = false
		d.mu.Unlock()
	}
	walMark, exp, blobs := d.exportForCheckpoint()
	d.checkpointWG.Add(1)
	go func() {
		defer d.checkpointWG.Done()
		defer done()
		if err := d.writeCheckpoint(exp, blobs, walMark); err != nil {
			d.fail(err)
		}
	}()
}

// Checkpoint forces a synchronous snapshot at the current head. Used by
// daemons at clean shutdown and tests.
func (d *DurableStore) Checkpoint() error {
	walMark, exp, blobs := d.exportForCheckpoint()
	return d.writeCheckpoint(exp, blobs, walMark)
}

// exportForCheckpoint captures the WAL mark and exports the state as one
// atomic step (under markMu, which off-block mutators like Faucet also
// hold across their mutate+log pair). The mark is taken BEFORE the export,
// so every record below it is fully covered by the export: pruning to the
// mark can never drop a record the snapshot does not absorb, and replay
// can skip non-idempotent records below the manifest's WALSeq outright.
func (d *DurableStore) exportForCheckpoint() (uint64, *chain.StateExport, []storage.BlobExport) {
	d.markMu.Lock()
	defer d.markMu.Unlock()
	walMark := d.log.Stats().NextSeq
	exp := d.c.ExportState()
	var blobs []storage.BlobExport
	if d.blobs != nil {
		blobs = d.blobs.inner.Export()
	}
	return walMark, exp, blobs
}

// Faucet durably credits an account outside any block (the devnet faucet):
// the credit and its WAL record are one atomic unit with respect to
// checkpoints, so recovery applies it exactly once — either from the
// snapshot that covered it or from the replayed record, never both.
func (d *DurableStore) Faucet(addr chain.Address, amount uint64) error {
	d.markMu.Lock()
	defer d.markMu.Unlock()
	d.c.Faucet(addr, amount)
	e := &enc{}
	e.addr(addr)
	e.u64(amount)
	if _, err := d.log.AppendSync(recFaucet, e.b); err != nil {
		return fmt.Errorf("snapshot: logging faucet: %w", err)
	}
	return nil
}

func snapName(height uint64) string { return fmt.Sprintf("snap-%016x.zks", height) }

// writeCheckpoint encodes and durably writes one snapshot file, then
// prunes: WAL segments below the checkpoint, older snapshot files beyond
// keepSnapshots, and (full role) chain bodies below the checkpoint.
func (d *DurableStore) writeCheckpoint(exp *chain.StateExport, blobs []storage.BlobExport, walMark uint64) error {
	height := exp.Height()
	if d.opts.Role == Full {
		// A full node's snapshots carry no bodies below the checkpoint —
		// only the head block's body is retained so a restarting peer can
		// still serve the tip while it syncs.
		for n := range exp.Bodies {
			if n < height {
				delete(exp.Bodies, n)
			}
		}
	}
	data := Encode(&Snapshot{Manifest: Manifest{Role: d.opts.Role, WALSeq: walMark}, State: exp, Blobs: blobs})
	path := filepath.Join(d.opts.Dir, snapName(height))
	if err := writeFileAtomic(path, data); err != nil {
		return fmt.Errorf("snapshot: writing checkpoint %d: %w", height, err)
	}
	// The checkpoint record marks the snapshot durable inside the log
	// itself — recovery diagnostics can see exactly when pruning became
	// legal, and replay sanity-checks against it.
	ck := &enc{}
	ck.u64(height)
	ck.hash(exp.StateRoot())
	if _, err := d.log.AppendSync(recCheckpoint, ck.b); err != nil {
		return fmt.Errorf("snapshot: logging checkpoint %d: %w", height, err)
	}

	d.mu.Lock()
	if height > d.lastCheckpoint {
		d.lastCheckpoint = height
	}
	d.stats.Checkpoints++
	// Pruning lags the snapshots by keepSnapshots: the WAL retains enough
	// log to recover from the OLDEST retained snapshot, so damage to the
	// newest file can always fall back without hitting a gap.
	d.pruneMarks = append(d.pruneMarks, walMark)
	var pruneTo uint64
	if len(d.pruneMarks) > keepSnapshots {
		d.pruneMarks = d.pruneMarks[len(d.pruneMarks)-keepSnapshots:]
	}
	if len(d.pruneMarks) == keepSnapshots {
		pruneTo = d.pruneMarks[0]
	}
	d.mu.Unlock()

	if pruneTo > 0 {
		d.log.PruneTo(pruneTo)
	}
	d.pruneSnapshots()
	if d.opts.Role == Full {
		dropped := d.c.PruneBodies(height)
		d.mu.Lock()
		d.stats.PrunedTxs += uint64(dropped)
		d.mu.Unlock()
	}
	return nil
}

// pruneSnapshots deletes the oldest snapshot files beyond keepSnapshots.
func (d *DurableStore) pruneSnapshots() {
	snaps, err := listSnapshots(d.opts.Dir)
	if err != nil {
		return
	}
	for len(snaps) > keepSnapshots {
		os.Remove(snaps[0].path) //nolint:errcheck // best-effort; retried next checkpoint
		snaps = snaps[1:]
	}
}

type snapFile struct {
	path   string
	height uint64
}

// listSnapshots returns snapshot files ascending by height.
func listSnapshots(dir string) ([]snapFile, error) {
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.zks"))
	if err != nil {
		return nil, err
	}
	var out []snapFile
	for _, p := range names {
		var h uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "snap-%x.zks", &h); err != nil {
			continue
		}
		out = append(out, snapFile{path: p, height: h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].height < out[j].height })
	return out, nil
}

// writeFileAtomic writes data to path via a temp file, fsyncing the file
// and its directory, so a crash leaves either the old file or the new one,
// never a torn mix.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp) //nolint:errcheck // cleanup of a failed write
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync() //nolint:errcheck // advisory on some filesystems
		dir.Close()
	}
	return nil
}

// Recover restores the chain (and wired blob store) from disk: the newest
// snapshot that decodes and whose state root re-derives is restored, then
// the WAL tail is replayed through chain.ImportBlock — the same verified
// path a syncing peer uses — with the regenerated receipts cross-checked
// against the logged ones. Corrupt newest snapshots fall back to older
// ones; a fallback below the WAL's retained prefix fails loudly
// (ErrRecoveryGap) rather than leaving a gap, and any divergence between
// log and replay aborts the recovery.
//
// The chain must be a freshly deployed genesis (same deterministic genesis
// function as the original process). Hooks already attached — indexer,
// block bus — see every restored and replayed block in height order.
func (d *DurableStore) Recover(c *chain.Chain) (*RecoveryReport, error) {
	d.c = c
	rep := &RecoveryReport{}

	snaps, err := listSnapshots(d.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	// Newest first; fall back on damage.
	for i := len(snaps) - 1; i >= 0; i-- {
		sf := snaps[i]
		data, err := os.ReadFile(sf.path)
		if err != nil {
			rep.SkippedSnapshots = append(rep.SkippedSnapshots, fmt.Sprintf("%s: %v", filepath.Base(sf.path), err))
			continue
		}
		snap, err := Decode(data)
		if err == nil {
			err = c.RestoreState(snap.State)
		}
		if err != nil {
			rep.SkippedSnapshots = append(rep.SkippedSnapshots, fmt.Sprintf("%s: %v", filepath.Base(sf.path), err))
			continue
		}
		if d.blobs != nil {
			for _, b := range snap.Blobs {
				if _, err := d.blobs.inner.Put(b.Owner, b.Data); err != nil {
					return nil, fmt.Errorf("snapshot: restoring blob: %w", err)
				}
			}
		} else if len(snap.Blobs) > 0 {
			return nil, ErrNoBlobStore
		}
		rep.SnapshotPath = sf.path
		rep.SnapshotHeight = snap.Manifest.Height
		rep.baseSeq = snap.Manifest.WALSeq
		break
	}

	if err := d.replayWAL(rep); err != nil {
		return nil, err
	}
	rep.TornBytes = d.log.Stats().TornBytes
	rep.Head = c.Height()
	d.mu.Lock()
	d.lastCheckpoint = rep.SnapshotHeight
	d.mu.Unlock()
	d.recovered.Store(true)
	return rep, nil
}

// replayWAL applies the retained log over the restored state.
func (d *DurableStore) replayWAL(rep *RecoveryReport) error {
	c := d.c
	return d.log.Replay(func(seq uint64, typ byte, payload []byte) error {
		switch typ {
		case recBlock:
			b, txs, logged, err := decodeBlockRecord(payload)
			if err != nil {
				return err
			}
			head := c.Height()
			switch {
			case b.Number <= head:
				// Covered by the snapshot — but it must be OUR history.
				have, ok := c.BlockByNumber(b.Number)
				if !ok || have.Hash() != b.Hash() {
					return fmt.Errorf("%w: block %d", ErrDivergedLog, b.Number)
				}
				return nil
			case b.Number > head+1:
				return fmt.Errorf("%w: log resumes at block %d, head is %d", ErrRecoveryGap, b.Number, head)
			}
			replayed, err := c.ImportBlock(b, txs)
			if err != nil {
				return fmt.Errorf("snapshot: replaying block %d: %w", b.Number, err)
			}
			if err := receiptsMatch(logged, replayed); err != nil {
				return fmt.Errorf("%w: block %d: %v", ErrReplayDrift, b.Number, err)
			}
			rep.BlocksReplayed++
			return nil
		case recBlob:
			if d.blobs == nil {
				return ErrNoBlobStore
			}
			dd := &dec{b: payload}
			owner := dd.str()
			data := dd.bytes()
			if dd.err != nil {
				return dd.err
			}
			if _, err := d.blobs.inner.Put(owner, data); err != nil {
				return err
			}
			rep.BlobsReplayed++
			return nil
		case recBlobRemove:
			if d.blobs == nil {
				return ErrNoBlobStore
			}
			dd := &dec{b: payload}
			owner := dd.str()
			var uri storage.URI
			copy(uri[:], dd.take(len(uri)))
			if dd.err != nil {
				return dd.err
			}
			// Best-effort: the blob may predate the retained log.
			d.blobs.inner.Remove(owner, uri) //nolint:errcheck // replayed remove of a pruned blob
			return nil
		case recFaucet:
			if seq < rep.baseSeq {
				return nil // covered by the restored snapshot's accounts
			}
			dd := &dec{b: payload}
			addr := dd.addr()
			amount := dd.u64()
			if dd.err != nil {
				return dd.err
			}
			c.Faucet(addr, amount)
			rep.FaucetsReplayed++
			return nil
		case recCheckpoint:
			return nil // informational
		default:
			return fmt.Errorf("%w: unknown record type %d at seq %d", wal.ErrCorrupt, typ, seq)
		}
	})
}

// receiptsMatch cross-checks a replayed block's receipts against the
// logged originals: gas, return data, log count, and error strings must
// all agree — replay is deterministic, so any drift means the log or the
// state is wrong.
func receiptsMatch(logged, replayed []*chain.Receipt) error {
	if len(logged) != len(replayed) {
		return fmt.Errorf("%d receipts, logged %d", len(replayed), len(logged))
	}
	for i := range logged {
		l, r := logged[i], replayed[i]
		if l.TxHash != r.TxHash || l.GasUsed != r.GasUsed || len(l.Logs) != len(r.Logs) ||
			string(l.Return) != string(r.Return) || errString(l.Err) != errString(r.Err) {
			return fmt.Errorf("receipt %d (tx %s) drifted", i, l.TxHash)
		}
	}
	return nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// fail records a sticky engine failure and reports it loudly: durability
// is broken, and pretending otherwise would acknowledge writes that can
// be lost.
func (d *DurableStore) fail(err error) {
	d.mu.Lock()
	first := d.failed == nil
	if first {
		d.failed = err
	}
	d.mu.Unlock()
	if first {
		log.Printf("snapshot: DURABILITY FAILURE: %v", err)
	}
}

// Err returns the sticky failure, if any — daemons check it at shutdown.
func (d *DurableStore) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// LastCheckpoint returns the height of the newest durable snapshot.
func (d *DurableStore) LastCheckpoint() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastCheckpoint
}

// Stats returns a copy of the engine counters.
func (d *DurableStore) Stats() Stats {
	d.mu.Lock()
	s := d.stats
	d.mu.Unlock()
	s.WAL = d.log.Stats()
	return s
}

// Close waits for in-flight checkpoints and closes the WAL (final flush +
// fsync). It returns the sticky failure if durability was ever breached.
func (d *DurableStore) Close() error {
	d.checkpointWG.Wait()
	cerr := d.log.Close()
	if err := d.Err(); err != nil {
		return err
	}
	return cerr
}

// Crash abandons the engine as a SIGKILL would: in-flight checkpoints are
// not waited for, buffered WAL frames are dropped. Test hook.
func (d *DurableStore) Crash() {
	d.log.Crash()
}

// encodeBlockRecord frames one sealed block for the WAL.
func encodeBlockRecord(b *chain.Block, txs []chain.Transaction, receipts []*chain.Receipt) []byte {
	e := &enc{}
	encodeBlock(e, b)
	e.u32(uint32(len(txs)))
	for i := range txs {
		encodeTx(e, &txs[i])
		if i < len(receipts) && receipts[i] != nil {
			e.u8(1)
			encodeReceipt(e, receipts[i])
		} else {
			e.u8(0)
		}
	}
	return e.b
}

// decodeBlockRecord parses a WAL block record.
func decodeBlockRecord(payload []byte) (chain.Block, []chain.Transaction, []*chain.Receipt, error) {
	d := &dec{b: payload}
	b := decodeBlock(d)
	n := d.count(40 + 24 + 1)
	txs := make([]chain.Transaction, n)
	receipts := make([]*chain.Receipt, n)
	for i := 0; i < n && d.err == nil; i++ {
		txs[i] = decodeTx(d)
		if d.u8() == 1 {
			receipts[i] = decodeReceipt(d)
		}
	}
	if d.err != nil {
		return chain.Block{}, nil, nil, d.err
	}
	return b, txs, receipts, nil
}

// DurableBlobs is the write-ahead-logged blob store: every Put and Remove
// is in the WAL before the call returns (group-commit fsynced), so an
// acknowledged blob survives a crash. It implements storage.LocalStore,
// plugging into core.Marketplace and the p2p layer's Config.Store alike.
type DurableBlobs struct {
	d     *DurableStore
	inner *storage.Store
}

var _ storage.LocalStore = (*DurableBlobs)(nil)

// Put stores the blob locally, then logs it durably before acknowledging.
// (Local-first ordering matters: a checkpoint exporting between the two
// steps must see any blob whose WAL record it is about to prune.)
func (s *DurableBlobs) Put(owner string, data []byte) (storage.URI, error) {
	uri, err := s.inner.Put(owner, data)
	if err != nil {
		return storage.URI{}, err
	}
	e := &enc{}
	e.str(owner)
	e.bytes(data)
	if _, err := s.d.log.AppendSync(recBlob, e.b); err != nil {
		return storage.URI{}, fmt.Errorf("snapshot: logging blob put: %w", err)
	}
	s.d.mu.Lock()
	s.d.stats.BlobsLogged++
	s.d.mu.Unlock()
	return uri, nil
}

// Get retrieves content by URI, verifying its digest.
func (s *DurableBlobs) Get(uri storage.URI) ([]byte, error) { return s.inner.Get(uri) }

// Remove deletes content at the owner's request, logging the removal.
func (s *DurableBlobs) Remove(owner string, uri storage.URI) error {
	if err := s.inner.Remove(owner, uri); err != nil {
		return err
	}
	e := &enc{}
	e.str(owner)
	e.b = append(e.b, uri[:]...)
	if _, err := s.d.log.AppendSync(recBlobRemove, e.b); err != nil {
		return fmt.Errorf("snapshot: logging blob remove: %w", err)
	}
	return nil
}

// Owner returns the recorded owner of a blob.
func (s *DurableBlobs) Owner(uri storage.URI) (string, bool) { return s.inner.Owner(uri) }

// Has reports whether the store holds a blob.
func (s *DurableBlobs) Has(uri storage.URI) bool { return s.inner.Has(uri) }

// Len reports the number of stored blobs.
func (s *DurableBlobs) Len() int { return s.inner.Len() }
