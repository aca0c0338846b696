package indexer

import (
	"errors"
	"reflect"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
)

// synthBlock feeds ProcessBlock a fabricated block whose single receipt
// carries the given events — the fold logic does not care how a block was
// produced, only what it logged.
func synthBlock(ix *Indexer, number uint64, events ...chain.Event) chain.Hash {
	var h chain.Hash
	h[0] = byte(number)
	h[1] = 0xEE
	ix.ProcessBlock(
		chain.Block{Number: number, TxHashes: []chain.Hash{h}},
		[]*chain.Receipt{{TxHash: h, Logs: events}},
	)
	return h
}

func TestQueryFilterAndPagination(t *testing.T) {
	ix := New(Config{})
	// Blocks 1..5: "box"/"Put" everywhere, topic alternating A/B; one
	// unrelated event to prove isolation.
	for n := uint64(1); n <= 5; n++ {
		topic := []byte("A")
		if n%2 == 0 {
			topic = []byte("B")
		}
		synthBlock(ix, n,
			chain.Event{Contract: "box", Name: "Put", Topic: topic, Data: []byte{byte(n)}},
			chain.Event{Contract: "other", Name: "Noise"},
		)
	}

	if _, _, err := ix.Query(Filter{Contract: "box"}); !errors.Is(err, ErrBadFilter) {
		t.Fatalf("missing name: %v, want ErrBadFilter", err)
	}

	all, total, err := ix.Query(Filter{Contract: "box", Name: "Put"})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 || total != 5 {
		t.Fatalf("got %d/%d entries, want 5/5", len(all), total)
	}
	for i, e := range all {
		if e.Block != uint64(i+1) || e.Event.Data[0] != byte(i+1) {
			t.Fatalf("entry %d out of chain order: %+v", i, e)
		}
	}

	// Topic narrows to odd blocks only.
	alpha, _, err := ix.Query(Filter{Contract: "box", Name: "Put", Topic: []byte("A")})
	if err != nil {
		t.Fatal(err)
	}
	if len(alpha) != 3 {
		t.Fatalf("topic A: %d entries, want 3", len(alpha))
	}
	for _, e := range alpha {
		if e.Block%2 == 0 {
			t.Fatalf("topic A matched even block %d", e.Block)
		}
	}

	// Block range [2,4].
	mid, total, err := ix.Query(Filter{Contract: "box", Name: "Put", FromBlock: 2, ToBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(mid) != 3 || total != 3 || mid[0].Block != 2 || mid[2].Block != 4 {
		t.Fatalf("range [2,4]: %+v (total %d)", mid, total)
	}
	// An inverted range [4,2] (the gateway passes it through from a client)
	// matches nothing.
	none, total, err := ix.Query(Filter{Contract: "box", Name: "Put", FromBlock: 4, ToBlock: 2})
	if err != nil || len(none) != 0 || total != 0 {
		t.Fatalf("range [4,2]: %+v (total %d), %v", none, total, err)
	}

	// Pagination: offset 1, limit 2 of the 5 total.
	page, total, err := ix.Query(Filter{Contract: "box", Name: "Put", Offset: 1, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 || len(page) != 2 || page[0].Block != 2 || page[1].Block != 3 {
		t.Fatalf("page: %+v (total %d)", page, total)
	}
	// Offset past the end is an empty page, not an error.
	empty, total, err := ix.Query(Filter{Contract: "box", Name: "Put", Offset: 99})
	if err != nil || len(empty) != 0 || total != 5 {
		t.Fatalf("offset past end: %v entries, total %d, err %v", empty, total, err)
	}

	if s := ix.Stats(); s.Blocks != 5 || s.Events != 10 || s.Skipped != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

// chainFixture drives the real DataNFT contract through mint / duplicate /
// aggregate / transfer / burn and returns the attached indexer plus the ids
// involved — the end-to-end path the provenance service must reproduce.
func chainFixture(t *testing.T) (*chain.Chain, *Indexer, chain.Address, []uint64) {
	t.Helper()
	c := chain.New()
	if _, err := c.Deploy(contracts.DataNFTName, &contracts.DataNFT{}, contracts.DataNFTCodeSize); err != nil {
		t.Fatal(err)
	}
	ix := New(Config{NFTContract: contracts.DataNFTName, EscrowContract: contracts.EscrowName})
	ix.Attach(c)

	alice := chain.AddressFromString("alice")
	c.Faucet(alice, 1<<40)

	nonce := uint64(0)
	call := func(method string, args []byte) []byte {
		t.Helper()
		r, err := c.Submit(chain.Transaction{From: alice, Contract: contracts.DataNFTName, Method: method, Args: args, Nonce: nonce})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if r.Err != nil {
			t.Fatalf("%s reverted: %v", method, r.Err)
		}
		nonce++
		return r.Return
	}
	mustID := func(raw []byte) uint64 {
		t.Helper()
		id, err := contracts.DecU64(raw)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}

	a := mustID(call("mint", contracts.EncodeArgs([]byte("uri-a"), []byte("com-a"))))
	b := mustID(call("mint", contracts.EncodeArgs([]byte("uri-b"), []byte("com-b"))))
	dup := mustID(call("duplicate", contracts.EncodeArgs(contracts.U64(a), []byte("uri-dup"), []byte("com-dup"))))
	agg := mustID(call("aggregate", contracts.EncodeArgs(contracts.U64List([]uint64{dup, b}), []byte("uri-agg"), []byte("com-agg"))))
	bob := chain.AddressFromString("bob")
	call("transfer", contracts.EncodeArgs(contracts.U64(agg), bob[:]))
	call("burn", contracts.EncodeArgs(contracts.U64(b)))
	c.SealBlock()
	return c, ix, bob, []uint64{a, b, dup, agg}
}

func TestProvenanceMatchesStorageTrace(t *testing.T) {
	c, ix, bob, ids := chainFixture(t)
	a, b, dup, agg := ids[0], ids[1], ids[2], ids[3]

	// The indexed walk must reproduce contracts.Trace exactly, id for id.
	want, err := contracts.Trace(c, agg)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := make([]uint64, len(want))
	for i, tok := range want {
		wantIDs[i] = tok.ID
	}
	lin, err := ix.Lineage(agg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]uint64, len(lin.Tokens))
	for i, rec := range lin.Tokens {
		got[i] = rec.ID
	}
	if !reflect.DeepEqual(got, wantIDs) {
		t.Fatalf("indexed lineage %v, storage trace %v", got, wantIDs)
	}

	rec, err := ix.Token(agg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != contracts.KindAggregation || rec.Owner != bob {
		t.Fatalf("agg record: %+v", rec)
	}
	if !reflect.DeepEqual(rec.Parents, []uint64{dup, b}) {
		t.Fatalf("agg parents %v", rec.Parents)
	}
	burned, err := ix.Token(b)
	if err != nil {
		t.Fatal(err)
	}
	if !burned.Burned {
		t.Fatal("token b not marked burned")
	}
	if !reflect.DeepEqual(burned.Children, []uint64{agg}) {
		t.Fatalf("b children %v", burned.Children)
	}
	src, err := ix.Token(a)
	if err != nil {
		t.Fatal(err)
	}
	if src.Kind != contracts.KindMint || len(src.Parents) != 0 {
		t.Fatalf("mint record: %+v", src)
	}

	if len(lin.Tokens) != 4 {
		t.Fatalf("lineage has %d tokens, want 4", len(lin.Tokens))
	}
	wantEdges := map[Edge]bool{
		{Parent: dup, Child: agg}: true,
		{Parent: b, Child: agg}:   true,
		{Parent: a, Child: dup}:   true,
	}
	if len(lin.Edges) != len(wantEdges) {
		t.Fatalf("lineage edges %v", lin.Edges)
	}
	for _, e := range lin.Edges {
		if !wantEdges[e] {
			t.Fatalf("unexpected edge %+v", e)
		}
	}

	if _, err := ix.Token(9999); !errors.Is(err, ErrUnknownToken) {
		t.Fatalf("unknown token: %v", err)
	}
	if _, err := ix.Lineage(9999); !errors.Is(err, ErrUnknownToken) {
		t.Fatalf("unknown lineage: %v", err)
	}
}

func TestIndexerTracksRealReceipts(t *testing.T) {
	c, ix, _, ids := chainFixture(t)
	agg := ids[3]

	// Every Transfer is indexed under its topic (token id); agg has two
	// (mint + transfer to bob).
	entries, total, err := ix.Query(Filter{Contract: contracts.DataNFTName, Name: "Transfer", Topic: contracts.U64(agg)})
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || len(entries) != 2 {
		t.Fatalf("agg transfers: %d/%d, want 2", len(entries), total)
	}
	for _, e := range entries {
		if n, ok := ix.TxBlock(e.TxHash); !ok || n != e.Block {
			t.Fatalf("txBlock mismatch for %s: %d vs %d", e.TxHash, n, e.Block)
		}
		if _, ok := c.BlockByNumber(e.Block); !ok {
			t.Fatalf("entry references unknown block %d", e.Block)
		}
	}
	if s := ix.Stats(); s.Tokens != 4 || s.Blocks == 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestProvenanceEscrowFold(t *testing.T) {
	ix := New(Config{EscrowContract: contracts.EscrowName})
	seller := chain.AddressFromString("seller")
	open := func(block, id, value uint64) {
		synthBlock(ix, block, chain.Event{
			Contract: contracts.EscrowName, Name: "Opened", Topic: contracts.U64(id),
			Data: contracts.EncodeArgs(contracts.U64(id), seller[:], []byte("hv"), []byte("c"), contracts.U64(value)),
		})
	}
	open(1, 7, 500)
	open(2, 8, 250)
	synthBlock(ix, 3, chain.Event{
		Contract: contracts.EscrowName, Name: "Settled", Topic: contracts.U64(7),
		Data: contracts.EncodeArgs(contracts.U64(7), []byte("kc-bytes")),
	})
	synthBlock(ix, 4, chain.Event{
		Contract: contracts.EscrowName, Name: "Refunded", Topic: contracts.U64(8),
		Data: contracts.EncodeArgs(contracts.U64(8), contracts.U64(250)),
	})

	settled, err := ix.Exchange(7)
	if err != nil {
		t.Fatal(err)
	}
	if settled.Status != ExchangeSettled || string(settled.KC) != "kc-bytes" ||
		settled.Seller != seller || settled.Value != 500 {
		t.Fatalf("settled exchange: %+v", settled)
	}
	if len(settled.History) != 2 || settled.History[0].Name != "Opened" || settled.History[1].Name != "Settled" {
		t.Fatalf("settled history: %+v", settled.History)
	}
	refunded, err := ix.Exchange(8)
	if err != nil {
		t.Fatal(err)
	}
	if refunded.Status != ExchangeRefunded {
		t.Fatalf("refunded exchange: %+v", refunded)
	}
	if _, err := ix.Exchange(99); err == nil {
		t.Fatal("unknown exchange did not error")
	}
}

func TestQuerySnapshotIsolation(t *testing.T) {
	// Results must be copies: appending more blocks after a query must not
	// mutate the slice a caller holds.
	ix := New(Config{})
	synthBlock(ix, 1, chain.Event{Contract: "box", Name: "Put", Data: []byte{1}})
	first, _, err := ix.Query(Filter{Contract: "box", Name: "Put"})
	if err != nil {
		t.Fatal(err)
	}
	for n := uint64(2); n <= 20; n++ {
		synthBlock(ix, n, chain.Event{Contract: "box", Name: "Put", Data: []byte{byte(n)}})
	}
	if len(first) != 1 || first[0].Event.Data[0] != 1 {
		t.Fatalf("earlier query page mutated: %+v", first)
	}
	for i := 0; i < 3; i++ {
		page, total, err := ix.Query(Filter{Contract: "box", Name: "Put", Offset: i * 7, Limit: 7})
		if err != nil || total != 20 {
			t.Fatalf("page %d: total %d err %v", i, total, err)
		}
		for j, e := range page {
			if want := uint64(i*7 + j + 1); e.Block != want {
				t.Fatalf("page %d entry %d: block %d want %d", i, j, e.Block, want)
			}
		}
	}
}
