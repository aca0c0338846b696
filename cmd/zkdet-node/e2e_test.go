package main

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
)

// bootServer starts an in-process daemon behind an httptest listener.
func bootServer(t *testing.T, cfg serverConfig) (*server, *rpcClient) {
	t.Helper()
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() {
		ts.Close()
		srv.close()
	})
	return srv, newRPCClient(ts.URL)
}

func testCfg() serverConfig {
	cfg := defaultServerConfig()
	cfg.node.BlockInterval = 5 * time.Millisecond
	cfg.node.MaxBlockTxs = 64
	return cfg
}

func TestGatewayBasics(t *testing.T) {
	_, c := bootServer(t, testCfg())

	// Unknown method and malformed params come back as JSON-RPC errors.
	if err := c.call("zkdet_nope", map[string]any{}, nil); err == nil {
		t.Fatal("unknown method accepted")
	}
	if err := c.call("zkdet_receipt", map[string]any{"txHash": "0xzz"}, nil); err == nil {
		t.Fatal("bad hash accepted")
	}

	// Faucet then a plain value transfer through the full pipeline.
	if err := c.call("zkdet_faucet", map[string]any{"address": "alice", "amount": 10_000}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := c.sendWait(txParams{From: "alice", To: "bob", Value: 777})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Included || res.BlockNumber == 0 {
		t.Fatalf("not included: %+v", res)
	}

	// The receipt endpoint agrees with what sendTransaction returned.
	var rec txResult
	if err := c.call("zkdet_receipt", map[string]any{"txHash": res.TxHash}, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.BlockNumber != res.BlockNumber {
		t.Fatalf("receipt block %d, send block %d", rec.BlockNumber, res.BlockNumber)
	}

	var height struct {
		Height uint64 `json:"height"`
	}
	if err := c.call("zkdet_blockNumber", map[string]any{}, &height); err != nil {
		t.Fatal(err)
	}
	if height.Height < res.BlockNumber {
		t.Fatalf("height %d < inclusion block %d", height.Height, res.BlockNumber)
	}

	// Transfers with value but no recipient are rejected at execution.
	bad, err := c.sendWait(txParams{From: "alice", Value: 5})
	if err == nil && bad.Reverted == "" {
		t.Fatal("zero-recipient transfer accepted")
	}
}

func TestGatewayStorageRoundTrip(t *testing.T) {
	_, c := bootServer(t, testCfg())
	blob := []byte("ciphertext bytes")
	var put struct {
		URI string `json:"uri"`
	}
	if err := c.call("zkdet_storagePut", map[string]any{"owner": "alice", "data": hexBytes(blob)}, &put); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Data string `json:"data"`
	}
	if err := c.call("zkdet_storageGet", map[string]any{"uri": put.URI}, &got); err != nil {
		t.Fatal(err)
	}
	back, err := parseBytes(got.Data)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(blob) {
		t.Fatalf("storage round trip: %q", back)
	}
}

func TestGatewayEventsQuery(t *testing.T) {
	_, c := bootServer(t, testCfg())
	if err := c.call("zkdet_faucet", map[string]any{"address": "alice", "amount": 1 << 30}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := c.sendWait(txParams{
		From: "alice", Contract: contracts.DataNFTName, Method: "mint",
		Args: hexBytes(contracts.EncodeArgs([]byte("u"), []byte("c"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := contracts.DecU64(mustParse(t, res.Return))
	if err != nil {
		t.Fatal(err)
	}
	var evs struct {
		Entries []eventOut `json:"entries"`
		Total   int        `json:"total"`
	}
	if err := c.call("zkdet_events", map[string]any{
		"contract": contracts.DataNFTName, "name": "Transfer",
		"topic": hexBytes(contracts.U64(id)),
	}, &evs); err != nil {
		t.Fatal(err)
	}
	if evs.Total != 1 || len(evs.Entries) != 1 || evs.Entries[0].TxHash != res.TxHash {
		t.Fatalf("events query: %+v", evs)
	}
}

func mustParse(t *testing.T, s string) []byte {
	t.Helper()
	b, err := parseBytes(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestE2EHundredClients is the acceptance run: ≥100 concurrent clients each
// drive a complete exchange lifecycle through the HTTP JSON-RPC gateway —
// mint, duplicate, escrow open, settle (real on-chain Plonk verification of
// the shared π_k), NFT transfer — then verify the provenance lineage the
// indexer reports against what they actually did.
func TestE2EHundredClients(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e load test")
	}
	srv, c := bootServer(t, testCfg())

	fx, err := buildFixture(srv.mkt.Sys)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 100
	report, err := runLoad(c.url, fx, clients)
	if err != nil {
		t.Fatal(err)
	}
	if report.Provenance != clients {
		t.Fatalf("provenance verified for %d/%d clients", report.Provenance, clients)
	}
	const txPerClient = 5 // mint, duplicate, open, settle, transfer
	if report.Txs != clients*txPerClient {
		t.Fatalf("clients waited on %d txs, want %d", report.Txs, clients*txPerClient)
	}
	if report.P50 == 0 || report.P99 < report.P50 {
		t.Fatalf("latency percentiles: p50=%s p99=%s", report.P50, report.P99)
	}

	// Every settle's π_k went through the seal-time batch verifier; none
	// were evicted.
	m := srv.node.Metrics()
	for name, want := range map[string]float64{
		"node.txsIncluded": clients * txPerClient, "node.poolSize": 0,
		"node.proofsPreverified": clients, "node.proofsEvicted": 0,
	} {
		if m[name] != want {
			t.Fatalf("%s = %v, want %v", name, m[name], want)
		}
	}
	if got := srv.ix.Metrics()["indexer.tokens"]; got != clients*2 {
		t.Fatalf("indexer tracked %v tokens, want %d", got, clients*2)
	}
	t.Logf("e2e: %s", report)
}

// TestE2EClientsShareNode checks the gateway under mixed read/write load:
// while exchange clients run, reader goroutines hammer stats and events.
func TestE2EClientsShareNode(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e load test")
	}
	srv, c := bootServer(t, testCfg())
	fx, err := buildFixture(srv.mkt.Sys)
	if err != nil {
		t.Fatal(err)
	}

	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rc := newRPCClient(c.url)
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				var stats map[string]any
				if err := rc.call("zkdet_stats", map[string]any{}, &stats); err != nil {
					t.Errorf("stats during load: %v", err)
					return
				}
				var evs struct {
					Total int `json:"total"`
				}
				if err := rc.call("zkdet_events", map[string]any{
					"contract": contracts.DataNFTName, "name": "Transfer", "limit": 5,
				}, &evs); err != nil {
					t.Errorf("events during load: %v", err)
					return
				}
			}
		}()
	}
	report, err := runLoad(c.url, fx, 16)
	close(stopReaders)
	readers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if report.Provenance != 16 {
		t.Fatalf("provenance verified for %d/16", report.Provenance)
	}
}

// TestGatewayConfidential drives the confidential-token RPC family end to
// end: enable, mint, inspect (commitment only), transfer, and auditor
// opening — including the disabled-by-default and wrong-key rejections.
func TestGatewayConfidential(t *testing.T) {
	_, c := bootServer(t, testCfg())

	for _, who := range []string{"issuer", "alice", "bob"} {
		if err := c.call("zkdet_faucet", map[string]any{"address": who, "amount": 10_000_000}, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Disabled by default.
	if err := c.call("zkdet_ctMint", map[string]any{"pays": []map[string]any{{"value": 1, "to": "alice"}}}, nil); err == nil {
		t.Fatal("mint accepted before ctEnable")
	}

	ak := ct.AuditorKeyFromSecret(fr.NewElement(0x5ec7))
	pub := ak.PublicKey()
	pubB := pub.Bytes()
	if err := c.call("zkdet_ctEnable", map[string]any{
		"issuer": "issuer", "auditorPub": hexBytes(pubB[:]),
	}, nil); err != nil {
		t.Fatal(err)
	}

	type notesResult struct {
		Notes []ctNoteOut `json:"notes"`
	}
	var minted notesResult
	if err := c.call("zkdet_ctMint", map[string]any{
		"pays": []map[string]any{{"value": 1200, "to": "alice"}},
	}, &minted); err != nil {
		t.Fatal(err)
	}
	if len(minted.Notes) != 1 || minted.Notes[0].Value != 1200 || minted.Notes[0].Blinder == "" {
		t.Fatalf("mint result %+v", minted)
	}

	// The public view carries the commitment but never the amount.
	var view ctNoteOut
	if err := c.call("zkdet_ctNote", map[string]any{"id": minted.Notes[0].ID}, &view); err != nil {
		t.Fatal(err)
	}
	if view.Value != 0 || view.Blinder != "" || view.Status != "unspent" || view.Commitment == "" {
		t.Fatalf("public note view leaks: %+v", view)
	}

	var moved notesResult
	if err := c.call("zkdet_ctTransfer", map[string]any{
		"sender": "alice",
		"inputs": []map[string]any{{
			"id": minted.Notes[0].ID, "value": 1200, "blinder": minted.Notes[0].Blinder,
		}},
		"pays": []map[string]any{{"value": 700, "to": "bob"}, {"value": 500, "to": "alice"}},
	}, &moved); err != nil {
		t.Fatal(err)
	}
	if len(moved.Notes) != 2 || moved.Notes[0].Value != 700 || moved.Notes[1].Value != 500 {
		t.Fatalf("transfer result %+v", moved)
	}

	// A wrong auditor secret is refused; the right one opens the amount.
	wrong := fr.NewElement(0xbad)
	wrongB := wrong.Bytes()
	if err := c.call("zkdet_ctAudit", map[string]any{
		"auditorSecret": hexBytes(wrongB[:]), "noteId": moved.Notes[0].ID,
	}, nil); err == nil {
		t.Fatal("wrong auditor key accepted")
	}
	sk := fr.NewElement(0x5ec7)
	skB := sk.Bytes()
	var opened notesResult
	if err := c.call("zkdet_ctAudit", map[string]any{
		"auditorSecret": hexBytes(skB[:]), "noteId": moved.Notes[0].ID,
	}, &opened); err != nil {
		t.Fatal(err)
	}
	if len(opened.Notes) != 1 || opened.Notes[0].Value != 700 {
		t.Fatalf("auditor opening %+v", opened)
	}
}
