package snapshot

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	zknode "github.com/zkdet/zkdet/internal/node"
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
	// One allocation at the exact size: encodedSize walks every field.
	if cap(data) != len(data) {
		t.Fatalf("Encode allocated %d bytes for a %d-byte snapshot", cap(data), len(data))
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

// TestDurableFailureLatches: a WAL that fails under an attached engine
// latches the failure, and no block sealed after it is acknowledged. The
// seal hook returns the failure: ProduceBlock reports it in SealErr, and a
// node.Node finishes the block's transaction with an error wrapping
// wal.ErrClosed instead of a receipt. Err wraps wal.ErrClosed, Close returns
// that error, and a later blob put fails.
func TestDurableFailureLatches(t *testing.T) {
	n, _ := openNode(t, t.TempDir(), Options{})
	n.d.log.Crash()
	p := n.c.ProduceBlock([]chain.Transaction{{
		From: testAlice, Contract: "counter", Method: "inc", Nonce: n.c.NonceOf(testAlice),
	}})
	if p.Block.Number == 0 || !errors.Is(p.SealErr, wal.ErrClosed) {
		t.Fatalf("a seal on a crashed WAL: block %d, SealErr %v; want a sealed block and wal.ErrClosed", p.Block.Number, p.SealErr)
	}
	err := n.d.Err()
	if !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Err after a seal on a crashed WAL = %v, want wal.ErrClosed", err)
	}

	nd := zknode.New(n.c, zknode.DefaultConfig())
	nd.Start()
	defer nd.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, serr := nd.SubmitAndWait(ctx, chain.Transaction{From: testAlice, Contract: "counter", Method: "inc"}, true)
	if !errors.Is(serr, wal.ErrClosed) || res.Receipt != nil {
		t.Fatalf("a node over a crashed WAL answered %v with receipt %v, want wal.ErrClosed and no receipt", serr, res.Receipt)
	}

	if cerr := n.d.Close(); !errors.Is(cerr, err) {
		t.Fatalf("Close = %v, want the latched %v", cerr, err)
	}
	if _, perr := n.bs.Put("alice", []byte("after the failure")); perr == nil {
		t.Fatal("blob put acknowledged after a durability failure")
	}
}

func TestCheckpointThenCrashReplaysOnlyTail(t *testing.T) {
	dir := t.TempDir()
	n, _ := openNode(t, dir, Options{CheckpointEvery: 4})
	for i := 0; i < 10; i++ {
		n.seal(t, "inc")
	}
	n.d.checkpointWG.Wait() // let background checkpoints land
	if cp := n.d.Metrics()["durable.lastCheckpoint"]; cp < 4 {
		t.Fatalf("no checkpoint landed by height 10 (last=%v)", cp)
	}
	if m := n.d.Metrics(); m["durable.checkpoints"] == 0 {
		t.Fatalf("metrics %v", m)
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
	if n.d.Metrics()["durable.prunedTxs"] == 0 {
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
	if n.d.Metrics()["durable.walPrunedSegments"] == 0 {
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

// wrappedLengthSnapshots are sealed snapshots with an empty manifest whose
// length fields sit at the top of the u32 range: a block count of 0xFFFFFFFF,
// which a 32-bit int reads as −1, and one storage whose name length
// 0x7FFFFFFF overflows a 32-bit offset + length. Both must be bounded before
// they become ints.
func wrappedLengthSnapshots() [][]byte {
	var out [][]byte
	for _, fields := range [][]uint32{{0xFFFFFFFF}, {0, 0, 0, 1, 0x7FFFFFFF}} {
		e := &enc{b: []byte(snapMagic)}
		e.u32(snapVersion)
		e.u8(byte(Archive))
		e.u64(0)
		e.hash(chain.Hash{})
		e.u64(0)
		for _, v := range fields {
			e.u32(v)
		}
		e.u32(crc32.Checksum(e.b, crcTable))
		out = append(out, e.b)
	}
	return out
}

func TestDecodeRefusesWrappedLengths(t *testing.T) {
	for i, data := range wrappedLengthSnapshots() {
		if _, err := Decode(data); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("crafted snapshot %d: Decode = %v, want ErrBadSnapshot", i, err)
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
	for _, data := range wrappedLengthSnapshots() {
		f.Add(data)
	}
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
