package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/storage"
	"github.com/zkdet/zkdet/internal/wal"
)

// counter mirrors the chain package's test contract: the durable engine
// restores onto a deterministically re-deployed genesis, so the tests need
// a contract of their own to deploy.
type counter struct{}

func (counter) Call(ctx *chain.CallContext, method string, args []byte) ([]byte, error) {
	switch method {
	case "inc":
		raw, err := ctx.Store.Get("count")
		if err != nil {
			return nil, err
		}
		var n uint64
		if len(raw) == 8 {
			n = binary.BigEndian.Uint64(raw)
		}
		n++
		buf := make([]byte, 8)
		binary.BigEndian.PutUint64(buf, n)
		if err := ctx.Store.Set("count", buf); err != nil {
			return nil, err
		}
		if err := ctx.EmitIndexed("Incremented", nil, buf); err != nil {
			return nil, err
		}
		return buf, nil
	case "fail":
		if err := ctx.Store.Set("junk", []byte("rolled back")); err != nil {
			return nil, err
		}
		return nil, errors.New("deliberate failure")
	default:
		return nil, errors.New("unknown method")
	}
}

var testAlice = chain.AddressFromString("alice")

// genesis deploys the deterministic test genesis: a funded account and the
// counter contract. Every restore target must run the same function.
func genesis(t *testing.T) *chain.Chain {
	t.Helper()
	c := chain.New()
	c.Faucet(testAlice, 1_000_000)
	if _, err := c.Deploy("counter", counter{}, 1000); err != nil {
		t.Fatal(err)
	}
	return c
}

// node is one durable test node: chain + blob store + engine.
type node struct {
	c  *chain.Chain
	d  *DurableStore
	bs *DurableBlobs
}

// openNode opens (or reopens) a durable node at dir and recovers it.
func openNode(t *testing.T, dir string, opts Options) (*node, *RecoveryReport) {
	t.Helper()
	opts.Dir = dir
	opts.WAL.GroupCommit = -1 // immediate fsync keeps tests deterministic
	d, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	bs := d.Blobs(storage.NewStore())
	c := genesis(t)
	rep, err := d.Recover(c)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := d.Attach(c); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	return &node{c: c, d: d, bs: bs}, rep
}

// seal produces a block of one call of method, returning the tx hash.
func (n *node) seal(t *testing.T, method string) chain.Hash {
	t.Helper()
	o := n.c.ProduceBlock([]chain.Transaction{{
		From: testAlice, Contract: "counter", Method: method, Nonce: n.c.NonceOf(testAlice),
	}}).Outcomes[0]
	if o.Err != nil {
		t.Fatalf("produce: %v", o.Err)
	}
	return o.Receipt.TxHash
}

func TestCodecRoundTrip(t *testing.T) {
	n, _ := openNode(t, t.TempDir(), Options{})
	defer n.d.Close()
	for i := 0; i < 3; i++ {
		n.seal(t, "inc")
	}
	n.seal(t, "fail") // a reverted tx exercises the error-string flattening
	if _, err := n.bs.Put("alice", []byte("dataset-1")); err != nil {
		t.Fatal(err)
	}

	exp := n.c.ExportState()
	data := Encode(&Snapshot{Manifest: Manifest{Role: Full}, State: exp, Blobs: n.bs.inner.Export()})
	// Deterministic: encoding the same state twice is byte-identical.
	if data2 := Encode(&Snapshot{Manifest: Manifest{Role: Full}, State: exp, Blobs: n.bs.inner.Export()}); string(data) != string(data2) {
		t.Fatal("encoding is not deterministic")
	}

	snap, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if snap.Manifest.Role != Full || snap.Manifest.Height != exp.Height() || snap.Manifest.StateRoot != exp.StateRoot() {
		t.Fatalf("manifest %+v", snap.Manifest)
	}
	if len(snap.Blobs) != 1 || string(snap.Blobs[0].Data) != "dataset-1" || snap.Blobs[0].Owner != "alice" {
		t.Fatalf("blobs %+v", snap.Blobs)
	}
	dst := genesis(t)
	if err := dst.RestoreState(snap.State); err != nil {
		t.Fatalf("restore of decoded snapshot: %v", err)
	}
	if dst.HeadHash() != n.c.HeadHash() {
		t.Fatal("decoded snapshot restored to a different head")
	}
	// The reverted receipt's error survived as a string.
	last := snap.State.Bodies[4]
	if last.Receipts[0].Err == nil || !strings.Contains(last.Receipts[0].Err.Error(), "deliberate failure") {
		t.Fatalf("reverted receipt error = %v", last.Receipts[0].Err)
	}
}

// TestDecodeRefusesOldVersion: a snapshot written before the state root
// became the trie commitment (version 1), or before headers carried their
// fold (version 2), is refused at the manifest with the typed error, not
// decoded in full and failed at the state-root check.
func TestDecodeRefusesOldVersion(t *testing.T) {
	c := genesis(t)
	c.ProduceBlock(nil)
	exp := c.ExportState()
	for _, old := range []uint32{1, 2} {
		data := Encode(&Snapshot{State: exp})
		binary.LittleEndian.PutUint32(data[len(snapMagic):], old)
		binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(data[:len(data)-4], crcTable))
		_, err := Decode(data)
		if want := fmt.Sprintf("unsupported version %d", old); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), want) {
			t.Fatalf("Decode of a version-%d snapshot = %v, want ErrBadSnapshot: %s", old, err, want)
		}
	}
}

func TestCrashRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	n, rep := openNode(t, dir, Options{})
	if rep.SnapshotPath != "" || rep.BlocksReplayed != 0 {
		t.Fatalf("fresh dir recovery report %+v", rep)
	}
	var hashes []chain.Hash
	for i := 0; i < 5; i++ {
		hashes = append(hashes, n.seal(t, "inc"))
	}
	uri, err := n.bs.Put("alice", []byte("durable-blob"))
	if err != nil {
		t.Fatal(err)
	}
	wantHead, wantRoot := n.c.HeadHash(), n.c.Head().StateRoot
	n.d.Crash() // SIGKILL: no Close, no flush

	n2, rep2 := openNode(t, dir, Options{})
	defer n2.d.Close()
	if rep2.SnapshotPath != "" {
		t.Fatalf("no checkpoint ran, yet recovery used %s", rep2.SnapshotPath)
	}
	if rep2.BlocksReplayed != 5 {
		t.Fatalf("replayed %d blocks, want 5", rep2.BlocksReplayed)
	}
	if n2.c.HeadHash() != wantHead || n2.c.Head().StateRoot != wantRoot {
		t.Fatal("recovered chain diverges from pre-crash head")
	}
	for i, h := range hashes {
		r, ok := n2.c.Receipt(h)
		if !ok || r.Err != nil {
			t.Fatalf("receipt %d lost in recovery", i)
		}
	}
	if got, err := n2.bs.Get(uri); err != nil || string(got) != "durable-blob" {
		t.Fatalf("blob after recovery: %q, %v", got, err)
	}
	// The recovered node keeps sealing on top.
	n2.seal(t, "inc")
	if n2.c.Height() != 6 {
		t.Fatalf("height after post-recovery seal = %d", n2.c.Height())
	}
}

func TestCheckpointThenCrashReplaysOnlyTail(t *testing.T) {
	dir := t.TempDir()
	n, _ := openNode(t, dir, Options{CheckpointEvery: 4})
	for i := 0; i < 10; i++ {
		n.seal(t, "inc")
	}
	n.d.checkpointWG.Wait() // let background checkpoints land
	if cp := n.d.LastCheckpoint(); cp < 4 {
		t.Fatalf("no checkpoint landed by height 10 (last=%d)", cp)
	}
	st := n.d.Stats()
	if st.Checkpoints == 0 {
		t.Fatalf("stats %+v", st)
	}
	wantHead := n.c.HeadHash()
	n.d.Crash()

	n2, rep := openNode(t, dir, Options{CheckpointEvery: 4})
	defer n2.d.Close()
	if rep.SnapshotPath == "" || rep.SnapshotHeight < 4 {
		t.Fatalf("recovery skipped the checkpoint: %+v", rep)
	}
	if rep.BlocksReplayed != int(10-rep.SnapshotHeight) {
		t.Fatalf("replayed %d blocks over snapshot at %d", rep.BlocksReplayed, rep.SnapshotHeight)
	}
	if n2.c.HeadHash() != wantHead {
		t.Fatal("recovered head diverges")
	}
}

func TestRecoverFallsBackWhenNewestSnapshotCorrupt(t *testing.T) {
	dir := t.TempDir()
	// Huge cadence: the test drives checkpoints explicitly so exactly two
	// snapshot files exist (the background scheduler may skip overlapping
	// attempts, which would make file counts racy).
	n, _ := openNode(t, dir, Options{CheckpointEvery: 1 << 20})
	for i := 0; i < 4; i++ {
		n.seal(t, "inc")
	}
	if err := n.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		n.seal(t, "inc")
	}
	if err := n.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantHead := n.c.HeadHash()
	n.d.Crash()

	snaps, err := listSnapshots(dir)
	if err != nil || len(snaps) < 2 {
		t.Fatalf("want ≥2 retained snapshots, have %d (%v)", len(snaps), err)
	}
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest.path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newest.path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	n2, rep := openNode(t, dir, Options{CheckpointEvery: 1 << 20})
	defer n2.d.Close()
	if len(rep.SkippedSnapshots) == 0 {
		t.Fatal("corrupt newest snapshot was not reported as skipped")
	}
	if rep.SnapshotHeight >= newest.height {
		t.Fatalf("recovery claims corrupt snapshot height %d", rep.SnapshotHeight)
	}
	if n2.c.HeadHash() != wantHead {
		t.Fatal("fallback recovery diverges from pre-crash head")
	}
}

func TestFullRolePrunesBodiesButRecoversHead(t *testing.T) {
	dir := t.TempDir()
	n, _ := openNode(t, dir, Options{Role: Full, CheckpointEvery: 4})
	var hashes []chain.Hash
	for i := 0; i < 9; i++ {
		hashes = append(hashes, n.seal(t, "inc"))
	}
	n.d.checkpointWG.Wait()
	if n.d.Stats().PrunedTxs == 0 {
		t.Fatal("full role pruned nothing")
	}
	// Deep history is gone on the live node...
	if _, ok := n.c.Receipt(hashes[0]); ok {
		t.Fatal("full node retained a pre-checkpoint receipt")
	}
	wantHead := n.c.HeadHash()
	n.d.Crash()

	// ...and stays gone after recovery, but the head and recent receipts
	// are intact.
	n2, rep := openNode(t, dir, Options{Role: Full, CheckpointEvery: 4})
	defer n2.d.Close()
	if n2.c.HeadHash() != wantHead {
		t.Fatal("full-role recovery diverges")
	}
	if _, ok := n2.c.Receipt(hashes[len(hashes)-1]); !ok {
		t.Fatal("tip receipt lost in full-role recovery")
	}
	if rep.SnapshotHeight == 0 {
		t.Fatalf("full-role recovery used no snapshot: %+v", rep)
	}
}

func TestRecoverFailsOnWrongGenesis(t *testing.T) {
	dir := t.TempDir()
	n, _ := openNode(t, dir, Options{CheckpointEvery: 2})
	for i := 0; i < 4; i++ {
		n.seal(t, "inc")
	}
	n.d.checkpointWG.Wait()
	n.d.Crash()

	// A recovery whose genesis lacks the deployed contract must refuse the
	// snapshot (storage for an undeployed contract) AND the WAL (the
	// transactions cannot replay) — never silently produce a hybrid chain.
	opts := Options{Dir: dir, CheckpointEvery: 2}
	opts.WAL.GroupCommit = -1
	d, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Blobs(storage.NewStore())
	c := chain.New()
	c.Faucet(testAlice, 1_000_000) // but no counter contract
	if _, err := d.Recover(c); err == nil {
		t.Fatal("recovery onto a divergent genesis succeeded")
	}
}

func TestAttachRequiresRecover(t *testing.T) {
	opts := Options{Dir: t.TempDir()}
	d, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Attach(genesis(t)); !errors.Is(err, ErrNotRecovered) {
		t.Fatalf("Attach before Recover = %v", err)
	}
}

func TestWALPruningRetainsFallbackCoverage(t *testing.T) {
	dir := t.TempDir()
	n, _ := openNode(t, dir, Options{CheckpointEvery: 1 << 20, WAL: wal.Options{SegmentBytes: 1 << 10}})
	for i := 0; i < 20; i++ {
		n.seal(t, "inc")
		if i%5 == 4 {
			if err := n.d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n.d.Stats().WAL.PrunedSegments == 0 {
		t.Fatal("pruning never ran despite 4 checkpoints over tiny segments")
	}
	n.d.Crash()
	// Even with pruning active, every retained snapshot must be a viable
	// recovery base: corrupt all but the oldest and recover.
	snaps, _ := listSnapshots(dir)
	for _, sf := range snaps[1:] {
		data, err := os.ReadFile(sf.path)
		if err != nil {
			t.Fatal(err)
		}
		data[0] ^= 0xff
		os.WriteFile(sf.path, data, 0o644)
	}
	n2, rep := openNode(t, dir, Options{CheckpointEvery: 2})
	defer n2.d.Close()
	if n2.c.Height() != 20 {
		t.Fatalf("recovered to height %d, want 20 (report %+v)", n2.c.Height(), rep)
	}
}

// TestSnapshotCorruptionProperty is the snapshot half of the torn-write
// property suite: truncate or bit-flip an encoded snapshot at arbitrary
// offsets; Decode+Restore must either reproduce the original state or fail
// loudly — never load damaged state.
func TestSnapshotCorruptionProperty(t *testing.T) {
	n, _ := openNode(t, t.TempDir(), Options{})
	defer n.d.Close()
	for i := 0; i < 4; i++ {
		n.seal(t, "inc")
	}
	exp := n.c.ExportState()
	clean := Encode(&Snapshot{State: exp, Blobs: nil})
	wantHead := n.c.HeadHash()

	rng := newRNG(0x5eed5afe)
	for trial := 0; trial < 60; trial++ {
		data := make([]byte, len(clean))
		copy(data, clean)
		switch trial % 2 {
		case 0: // truncation
			data = data[:rng.next()%uint64(len(data))]
		case 1: // bit flip
			data[rng.next()%uint64(len(data))] ^= byte(1 << (rng.next() % 8))
		}
		snap, err := Decode(data)
		if err != nil {
			continue // loud failure: correct
		}
		// A decode that slipped through (CRC collision is ~impossible at
		// this trial count, but semantics allow it) must still restore to
		// the original state or be rejected by the state-root check.
		dst := genesis(t)
		if rerr := dst.RestoreState(snap.State); rerr == nil && dst.HeadHash() != wantHead {
			t.Fatalf("trial %d: corrupt snapshot loaded silently", trial)
		}
	}
}

// newRNG is a tiny xorshift for deterministic corruption trials.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }
func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// FuzzSnapshotDecode drives Decode with arbitrary bytes: it must never
// panic, and any successful decode must re-encode to the identical bytes
// (canonical form).
func FuzzSnapshotDecode(f *testing.F) {
	c := chain.New()
	c.Faucet(testAlice, 1_000)
	if _, err := c.Deploy("counter", counter{}, 100); err != nil {
		f.Fatal(err)
	}
	c.ProduceBlock(nil)
	exp := c.ExportState()
	f.Add(Encode(&Snapshot{State: exp}))
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			return
		}
		if re := Encode(snap); string(re) != string(data) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d out", len(data), len(re))
		}
	})
}

func TestRoleParsing(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Role
	}{{"archive", Archive}, {"full", Full}} {
		got, err := ParseRole(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseRole(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q", got.String())
		}
	}
	if _, err := ParseRole("light"); err == nil {
		t.Fatal("ParseRole accepted unknown role")
	}
	_ = fmt.Sprintf("%v", Archive)
}
