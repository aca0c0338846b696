package main

import (
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/obs"
)

// bootDurable starts an in-process durable daemon WITHOUT registering a
// clean shutdown — the caller decides whether it crashes or closes.
func bootDurable(t *testing.T, dir string) (*server, *httptest.Server, *rpcClient) {
	t.Helper()
	cfg := testCfg()
	cfg.dataDir = dir
	cfg.checkpointEvery = 3
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	return srv, ts, newRPCClient(ts.URL)
}

// TestDurableCrashRestart is the daemon half of the crash-recovery
// acceptance criterion: a -data-dir node is loaded over RPC, killed without
// any shutdown path (WAL buffers abandoned, checkpoints not awaited), and a
// fresh process on the same directory serves the identical receipts and
// blobs for every pre-crash transaction, then keeps sealing.
func TestDurableCrashRestart(t *testing.T) {
	dir := t.TempDir()
	srv, ts, c := bootDurable(t, dir)

	if err := c.call("zkdet_faucet", map[string]any{"address": "alice", "amount": 100_000}, nil); err != nil {
		t.Fatal(err)
	}
	// Enough transfers to cross several checkpoints (checkpointEvery=3).
	type acked struct {
		hash  string
		block uint64
	}
	var txs []acked
	for i := 0; i < 8; i++ {
		res, err := c.sendWait(txParams{From: "alice", To: "bob", Value: uint64(100 + i)})
		if err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
		txs = append(txs, acked{hash: res.TxHash, block: res.BlockNumber})
	}
	var put struct {
		URI string `json:"uri"`
	}
	if err := c.call("zkdet_storagePut", map[string]any{"owner": "alice", "data": "0xdeadbeef"}, &put); err != nil {
		t.Fatal(err)
	}

	// SIGKILL: drop the listener and abandon the durable engine mid-state.
	// The producer is stopped only afterwards, so its final seal finds a
	// dead log — exactly what a killed process leaves behind.
	ts.Close()
	srv.durable.Crash()
	srv.node.Stop()

	// A fresh process on the same data dir recovers and serves everything
	// that was acknowledged before the crash.
	srv2, ts2, c2 := bootDurable(t, dir)
	t.Cleanup(func() {
		ts2.Close()
		srv2.close()
	})
	rep := srv2.recovery
	if rep == nil || rep.Head == 0 {
		t.Fatalf("restart recovered nothing: %+v", rep)
	}
	if rep.Head < txs[len(txs)-1].block {
		t.Fatalf("recovered head %d below last acked block %d", rep.Head, txs[len(txs)-1].block)
	}
	if rep.SnapshotHeight == 0 {
		t.Fatalf("recovery ignored the checkpoints: %+v", rep)
	}
	for i, tx := range txs {
		var rec txResult
		if err := c2.call("zkdet_receipt", map[string]any{"txHash": tx.hash}, &rec); err != nil {
			t.Fatalf("receipt %d lost across restart: %v", i, err)
		}
		if rec.BlockNumber != tx.block {
			t.Fatalf("receipt %d moved: block %d, was %d", i, rec.BlockNumber, tx.block)
		}
	}
	var got struct {
		Data string `json:"data"`
	}
	if err := c2.call("zkdet_storageGet", map[string]any{"uri": put.URI}, &got); err != nil {
		t.Fatalf("blob lost across restart: %v", err)
	}
	if got.Data != "0xdeadbeef" {
		t.Fatalf("blob changed across restart: %s", got.Data)
	}

	// The reborn daemon keeps working on top of the recovered state.
	res, err := c2.sendWait(txParams{From: "alice", To: "bob", Value: 999})
	if err != nil {
		t.Fatalf("transfer after restart: %v", err)
	}
	if res.BlockNumber <= rep.Head {
		t.Fatalf("post-restart tx landed at %d, not above recovered head %d", res.BlockNumber, rep.Head)
	}
}

// TestDurableCrashBeforeFirstCheckpoint pins the faucet-durability bug: a
// crash with NO snapshot on disk leaves only the WAL, and the replayed
// transfers need their funding faucet credit — which lives outside any
// block — to come back from the log too.
func TestDurableCrashBeforeFirstCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg()
	cfg.dataDir = dir
	cfg.checkpointEvery = 1 << 20 // never checkpoint
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	c := newRPCClient(ts.URL)
	if err := c.call("zkdet_faucet", map[string]any{"address": "carol", "amount": 5_000}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := c.sendWait(txParams{From: "carol", To: "dave", Value: 123})
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	srv.durable.Crash()
	srv.node.Stop()

	srv2, ts2, c2 := bootDurable(t, dir)
	t.Cleanup(func() {
		ts2.Close()
		srv2.close()
	})
	rep := srv2.recovery
	if rep.SnapshotPath != "" {
		t.Fatalf("no checkpoint should exist, recovery used %s", rep.SnapshotPath)
	}
	if rep.FaucetsReplayed != 1 {
		t.Fatalf("replayed %d faucet credits, want 1", rep.FaucetsReplayed)
	}
	var rec txResult
	if err := c2.call("zkdet_receipt", map[string]any{"txHash": res.TxHash}, &rec); err != nil {
		t.Fatalf("pre-crash receipt lost: %v", err)
	}
	if got := srv2.mkt.Chain.BalanceOf(mustAddr(t, "dave")); got != 123 {
		t.Fatalf("dave's balance after recovery = %d, want 123", got)
	}
}

func mustAddr(t *testing.T, label string) [20]byte {
	t.Helper()
	a, err := parseAddr(label)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestDurableCleanRestartUsesShutdownCheckpoint verifies the graceful path:
// close() checkpoints, so the next start restores from a snapshot at the
// final height and replays nothing.
func TestDurableCleanRestartUsesShutdownCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv, ts, c := bootDurable(t, dir)
	if err := c.call("zkdet_faucet", map[string]any{"address": "alice", "amount": 10_000}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := c.sendWait(txParams{From: "alice", To: "bob", Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	srv.close() // graceful: checkpoint + WAL close

	srv2, ts2, _ := bootDurable(t, dir)
	t.Cleanup(func() {
		ts2.Close()
		srv2.close()
	})
	rep := srv2.recovery
	if rep.SnapshotHeight < res.BlockNumber {
		t.Fatalf("shutdown checkpoint missing: snapshot at %d, sealed through %d", rep.SnapshotHeight, res.BlockNumber)
	}
	if rep.BlocksReplayed != 0 {
		t.Fatalf("clean restart replayed %d blocks, want 0", rep.BlocksReplayed)
	}
}

// crashDaemon kills a durable daemon the way SIGKILL would (listener gone,
// WAL buffers abandoned, no checkpoint) after recording every receipt it
// ever acknowledged, block by block.
func crashDaemon(t *testing.T, srv *server, ts *httptest.Server) map[chain.Hash]*chain.Receipt {
	t.Helper()
	c := srv.mkt.Chain
	acked := make(map[chain.Hash]*chain.Receipt)
	for n := uint64(1); n <= c.Height(); n++ {
		b, _ := c.BlockByNumber(n)
		for _, h := range b.TxHashes {
			r, ok := c.Receipt(h)
			if !ok {
				t.Fatalf("block %d lists %s but the chain has no receipt for it", n, h)
			}
			acked[h] = r
		}
	}
	ts.Close()
	srv.durable.Crash()
	srv.node.Stop()
	return acked
}

// TestDurableCrashRecoversProofsFromWALTail is the regression test for the
// gas drift between sealing and replay: a durable daemon that settled one
// exchange (real π_k) and moved one confidential note (π_ct range proofs)
// is killed before any checkpoint, so a restart has nothing but the WAL
// tail — and must replay those proofs through the same fold the producer
// sealed them under. It used to fail to start at all (`replayed receipts
// differ from the logged receipts: block 4: receipt 0 … drifted`), because
// the producer charged the amortised schedule off process-local marks that
// replay never saw.
func TestDurableCrashRecoversProofsFromWALTail(t *testing.T) {
	cfg := confidentialCfg(t, nil)
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	c := newRPCClient(ts.URL)

	fx, err := buildFixture(srv.mkt.Sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := runClient(c, 0, fx, new(obs.Histogram)); err != nil || !ok {
		t.Fatalf("exchange lifecycle: provenance ok=%v, %v", ok, err)
	}
	for _, who := range []string{"issuer", "alice"} {
		if err := c.call("zkdet_faucet", map[string]any{"address": who, "amount": 10_000_000}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var minted struct {
		Notes []ctNoteOut `json:"notes"`
	}
	if err := c.call("zkdet_ctMint", map[string]any{
		"pays": []map[string]any{{"value": 1200, "to": "alice"}},
	}, &minted); err != nil {
		t.Fatal(err)
	}
	if err := c.call("zkdet_ctTransfer", map[string]any{
		"sender": "alice",
		"inputs": []map[string]any{{
			"id": minted.Notes[0].ID, "value": 1200, "blinder": minted.Notes[0].Blinder,
		}},
		"pays": []map[string]any{{"value": 700, "to": "bob"}, {"value": 500, "to": "alice"}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if m := srv.node.Metrics(); m["node.proofsPreverified"] != 3 || m["node.proofsEvicted"] != 0 {
		t.Fatalf("producer folded the proofs of %v transactions (evicted %v), want the settle, the mint and the transfer",
			m["node.proofsPreverified"], m["node.proofsEvicted"])
	}
	wantHead, wantHash := srv.mkt.Chain.Height(), srv.mkt.Chain.HeadHash()
	acked := crashDaemon(t, srv, ts)

	srv2, err := newServer(cfg)
	if err != nil {
		t.Fatalf("restart on a proof-carrying WAL tail: %v", err)
	}
	ts2 := httptest.NewServer(srv2.handler())
	t.Cleanup(func() {
		ts2.Close()
		srv2.close()
	})
	rep := srv2.recovery
	if rep.SnapshotPath != "" || rep.BlocksReplayed != int(wantHead) || rep.Head != wantHead {
		t.Fatalf("recovery %+v, want %d blocks replayed from the WAL alone", rep, wantHead)
	}
	if got := srv2.mkt.Chain.HeadHash(); got != wantHash {
		t.Fatalf("recovered head %s, want %s", got, wantHash)
	}
	c2 := newRPCClient(ts2.URL)
	folded := 0
	for h, want := range acked {
		var rec txResult
		if err := c2.call("zkdet_receipt", map[string]any{"txHash": h.String()}, &rec); err != nil {
			t.Fatalf("receipt %s lost across restart: %v", h, err)
		}
		wantReverted := ""
		if want.Err != nil {
			wantReverted = want.Err.Error()
		}
		if rec.GasUsed != want.GasUsed || rec.Reverted != wantReverted || len(rec.Logs) != len(want.Logs) {
			t.Fatalf("receipt %s changed across restart: gas %d (was %d), reverted %q (was %q)",
				h, rec.GasUsed, want.GasUsed, rec.Reverted, wantReverted)
		}
		if b, ok := srv2.mkt.Chain.BlockByNumber(rec.BlockNumber); ok && b.Fold > 0 {
			folded++
		}
	}
	if folded < 3 {
		t.Fatalf("only %d recovered transactions sit in folded blocks; the proof-carrying ones did not replay through a fold", folded)
	}
}

// TestCTAuditByTokenSurvivesRecovery covers zkdet_ctAudit's payment list:
// after a confidential sale the auditor's secret lists exactly that payment
// with its value under the sold token's id and nothing under another
// token's, and an archive-role durable daemon killed before any checkpoint
// gives the same answers once it has replayed its WAL — the list is the
// indexer's, refolded from the recovered blocks.
func TestCTAuditByTokenSurvivesRecovery(t *testing.T) {
	cfg := confidentialCfg(t, nil)
	cfg.role = "archive"
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	c := newRPCClient(ts.URL)
	for _, who := range []string{"issuer", "alice", "bob"} {
		if err := c.call("zkdet_faucet", map[string]any{"address": who, "amount": 10_000_000}, nil); err != nil {
			t.Fatal(err)
		}
	}
	alice, bob := mustAddr(t, "alice"), mustAddr(t, "bob")
	data := core.Dataset{fr.NewElement(7), fr.NewElement(8), fr.NewElement(9)}
	sold, err := srv.mkt.MintAsset(alice, "alice", data, fr.NewElement(0x50d))
	if err != nil {
		t.Fatal(err)
	}
	unsold, err := srv.mkt.MintAsset(alice, "alice", data, fr.NewElement(0x7e7))
	if err != nil {
		t.Fatal(err)
	}
	notes, err := srv.mkt.ConfidentialMint([]core.ConfPayment{{Value: 5000, To: bob}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.mkt.SellConfidential(3, alice, bob, sold, core.RangePredicate{Bits: 16}, notes[0]); err != nil {
		t.Fatal(err)
	}

	type payment struct {
		ExchangeID uint64 `json:"exchangeId"`
		TokenID    uint64 `json:"tokenId"`
		NoteID     uint64 `json:"noteId"`
		Value      uint64 `json:"value"`
	}
	sk := fr.NewElement(0x5ec7)
	skB := sk.Bytes()
	check := func(c *rpcClient, when string) {
		t.Helper()
		for _, tc := range []struct {
			token uint64
			want  []payment
		}{
			{sold.TokenID, []payment{{ExchangeID: 3, TokenID: sold.TokenID, NoteID: notes[0].ID, Value: 5000}}},
			{unsold.TokenID, []payment{}},
		} {
			var got struct {
				Payments []payment `json:"payments"`
			}
			if err := c.call("zkdet_ctAudit", map[string]any{"auditorSecret": hexBytes(skB[:]), "tokenId": tc.token}, &got); err != nil {
				t.Fatalf("%s: auditing token #%d: %v", when, tc.token, err)
			}
			if !slices.Equal(got.Payments, tc.want) {
				t.Fatalf("%s: token #%d lists payments %+v, want %+v", when, tc.token, got.Payments, tc.want)
			}
		}
	}
	check(c, "before the crash")
	crashDaemon(t, srv, ts)

	srv2, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.handler())
	t.Cleanup(func() {
		ts2.Close()
		srv2.close()
	})
	if rep := srv2.recovery; rep.SnapshotPath != "" || rep.BlocksReplayed == 0 {
		t.Fatalf("recovery %+v, want the blocks replayed from the WAL alone", rep)
	}
	check(newRPCClient(ts2.URL), "after recovery")
}

// TestDurableRecoversAfterUnknownContractTx: one transaction naming a
// contract that does not exist used to advance its sender's nonce without
// entering any block, so the sender's next, perfectly valid transaction was
// sealed at a nonce the logged history could not reproduce and the daemon
// never started again (`replaying block 2: chain: block transaction failed
// to replay: tx 0: chain: bad nonce: got 1, want 0`).
func TestDurableRecoversAfterUnknownContractTx(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg()
	cfg.dataDir = dir
	cfg.checkpointEvery = 1 << 20 // never checkpoint
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	c := newRPCClient(ts.URL)
	if err := c.call("zkdet_faucet", map[string]any{"address": "mallory", "amount": 5_000}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.sendWait(txParams{From: "mallory", Contract: "no-such-contract", Method: "x"}); err == nil {
		t.Fatal("transaction to a contract that does not exist was included")
	}
	if got := srv.mkt.Chain.NonceOf(mustAddr(t, "mallory")); got != 0 {
		t.Fatalf("rejected transaction advanced mallory's nonce to %d", got)
	}
	res, err := c.sendWait(txParams{From: "mallory", To: "dave", Value: 123})
	if err != nil {
		t.Fatal(err)
	}
	acked := crashDaemon(t, srv, ts)
	if len(acked) != 1 {
		t.Fatalf("%d transactions in blocks, want the transfer alone", len(acked))
	}

	srv2, ts2, c2 := bootDurable(t, dir)
	t.Cleanup(func() {
		ts2.Close()
		srv2.close()
	})
	if rep := srv2.recovery; rep.BlocksReplayed == 0 || rep.Head != res.BlockNumber {
		t.Fatalf("recovery %+v, want the transfer's block %d replayed", rep, res.BlockNumber)
	}
	var rec txResult
	if err := c2.call("zkdet_receipt", map[string]any{"txHash": res.TxHash}, &rec); err != nil {
		t.Fatalf("pre-crash receipt lost: %v", err)
	}
	if got := srv2.mkt.Chain.BalanceOf(mustAddr(t, "dave")); got != 123 {
		t.Fatalf("dave's balance after recovery = %d, want 123", got)
	}
}

// walSegment is the one segment file of the committed data directories.
const walSegment = "wal/wal-0000000000000001.seg"

// confidentialCfg is the configuration the confidential crash tests and the
// committed data directories share: the test configuration on a fresh
// directory, never checkpointing, with the confidential subsystem part of
// the genesis — every process on the directory deploys it before
// recovering anything. A non-nil seg becomes the directory's WAL: recovery
// appends to the directory it opens, so committed bytes are replayed from a
// copy.
func confidentialCfg(t *testing.T, seg []byte) serverConfig {
	t.Helper()
	dir := t.TempDir()
	if seg != nil {
		if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walSegment), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ak := ct.AuditorKeyFromSecret(fr.NewElement(0x5ec7))
	issuer, err := parseAddr("issuer")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.dataDir = dir
	cfg.checkpointEvery = 1 << 20
	cfg.genesis = func(m *core.Marketplace) error {
		_, err := m.EnableConfidential(issuer, ak.PublicKey())
		return err
	}
	return cfg
}

// TestDurableRefusesDataDirWrittenByOverlayEngine: testdata/pr19-datadir is
// the WAL tail of a daemon built from the last commit that still executed
// blocks on the speculative overlay engine (width 2; 30 transactions
// speculated and committed, 8 run at commit time), killed before any
// checkpoint: eight client exchange lifecycles run concurrently (settlements
// folded six and two to a block, heights 4 and 5; block 6 ends them), then
// in blocks 7 and 8 a confidential mint and transfer. Its blocks 1–3 used to
// replay here to the head that daemon built block 4 on (from block 4 its
// settle calldata carries version-1 π_k proofs, plonk.ErrProofVersion). Since
// a token stores one record digest instead of its URI, commitment and
// parents, the mints of block 1 write other storage slots, so the replayed
// state root no longer matches the logged header: the directory must be
// refused at block 1, loudly and by type (chain.ErrStateMismatch), rather
// than recovered to some other head.
func TestDurableRefusesDataDirWrittenByOverlayEngine(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata/pr19-datadir", walSegment))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(confidentialCfg(t, raw))
	if err == nil {
		srv.close()
		t.Fatalf("a WAL holding the old token layout recovered to head %d (%s)", srv.mkt.Chain.Height(), srv.mkt.Chain.HeadHash())
	}
	if !errors.Is(err, chain.ErrStateMismatch) || !strings.Contains(err.Error(), "block 1:") {
		t.Fatalf("pr19 directory refused with %v, want chain.ErrStateMismatch at block 1", err)
	}
}

// TestDurableRefusesConfidentialDataDirFoldedAtWidthOne: testdata/pr21-datadir
// is the WAL tail of a daemon of the build that moved π_ct to four slots
// (version-2 transfer proofs), killed before any checkpoint after a
// confidential mint and a 1→2 transfer, each sealed in a block of its own
// with its one π_ct folded at width 1. That build charged a width-1 fold two
// RLC scalar multiplications (12 000 gas) for a linear combination of one
// term, so its logged receipts no longer match what this build computes
// (snapshot.ErrReplayDrift). Since proofs moved to the linearized version-2
// encoding, an earlier check fires first: each π_ct is a 1 766-byte
// version-1 proof, over the cap on an embedded range proof (1 414 bytes
// then, 998 since version 3, plonk.MaxProofSize), so the mint's calldata
// no longer decodes. The directory must be refused, by
// type and at block 1, rather than recovered to some other history.
func TestDurableRefusesConfidentialDataDirFoldedAtWidthOne(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata/pr21-datadir", walSegment))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(confidentialCfg(t, raw))
	if err == nil {
		srv.close()
		t.Fatalf("a WAL logged under the old width-1 fold price recovered to head %d (%s)", srv.mkt.Chain.Height(), srv.mkt.Chain.HeadHash())
	}
	if !errors.Is(err, contracts.ErrCTProofRejected) || !errors.Is(err, ct.ErrBadProofEncoding) || !strings.Contains(err.Error(), "block 1:") {
		t.Fatalf("pr21 directory refused with %v, want ErrCTProofRejected wrapping ErrBadProofEncoding at block 1", err)
	}
}

// TestStatsKeyPaths pins the shape of zkdet_stats on a durable daemon: the
// exact set of key paths it answers, each a JSON number. A counter may be
// added to this list; none may move, because scripts read them by path, and
// one may vanish only with the code it counts (the WAL read cache's
// durable.walCacheHits and durable.walCacheMisses did).
func TestStatsKeyPaths(t *testing.T) {
	srv, ts, c := bootDurable(t, t.TempDir())
	t.Cleanup(func() {
		ts.Close()
		srv.close()
	})
	if err := c.call("zkdet_faucet", map[string]any{"address": "alice", "amount": 10_000}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.sendWait(txParams{From: "alice", To: "bob", Value: 1}); err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := c.call("zkdet_stats", nil, &stats); err != nil {
		t.Fatal(err)
	}
	var got []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, sub := range v {
				walk(prefix+k+".", sub)
			}
		case float64:
			got = append(got, strings.TrimSuffix(prefix, "."))
		default:
			t.Errorf("%s is %T, want a JSON number", strings.TrimSuffix(prefix, "."), v)
		}
	}
	walk("", stats)
	sort.Strings(got)
	want := []string{
		"durable.blobsLogged", "durable.blocksLogged", "durable.checkpoints",
		"durable.lastCheckpoint", "durable.prunedTxs", "durable.walAppends",
		"durable.walPrunedSegments", "durable.walSegments", "durable.walSyncs",
		"height",
		"indexer.blocks", "indexer.events", "indexer.keys", "indexer.tokens", "indexer.txs",
		"node.admitted", "node.blocksSealed", "node.evicted", "node.latencyP50Ms",
		"node.latencyP99Ms", "node.poolSize", "node.proofsEvicted", "node.proofsPreverified",
		"node.rejected", "node.txsIncluded",
		// Added once every component reported a Metrics map.
		"durable.checkpointSkips", "durable.walRotations", "durable.walTornBytes",
		"node.blocksImported",
		// The seal-time proof fold's cost per sealed block.
		"node.foldP50Ms", "node.foldP99Ms",
	}
	// The proof system's phase medians: plonk.Setup's and plonk.Prove's
	// phases and the steps before Prove, for every circuit family.
	for _, family := range []string{"pi_e", "pi_p", "pi_k", "pi_t", "pi_f"} {
		for _, phase := range []string{
			"witness", "commit", "permutation", "quotient", "open", "fold",
			"setupInterpolate", "setupCosets", "setupCommit",
		} {
			want = append(want, "plonk."+family+"."+phase+"P50Ms")
		}
		for _, phase := range []string{"build", "compile", "satisfy"} {
			want = append(want, "core."+family+"."+phase+"P50Ms")
		}
	}
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("zkdet_stats key paths\n got %q\nwant %q", got, want)
	}
}
