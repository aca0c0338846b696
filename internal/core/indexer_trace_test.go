package core

import (
	"reflect"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
)

// TestTraceViaIndexer drives the DataNFT contract with raw transactions (no
// proving, so it stays fast) and checks that Trace on a marketplace with an
// indexer attached returns exactly what the storage walk does — for tokens
// minted after the last sealed block too, which the indexer has not seen.
func TestTraceViaIndexer(t *testing.T) {
	m, _ := newTestMarketplace(t)
	ix := m.AttachIndexer()
	if again := m.AttachIndexer(); again != ix {
		t.Fatal("AttachIndexer not idempotent")
	}
	alice := chain.AddressFromString("alice")
	m.Chain.Faucet(alice, 1<<40)

	call := func(method string, args []byte) []byte {
		t.Helper()
		r, err := m.submit(alice, contracts.DataNFTName, method, 0, args)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
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
	a := mustID(call("mint", contracts.EncodeArgs([]byte("u1"), []byte("c1"))))
	b := mustID(call("mint", contracts.EncodeArgs([]byte("u2"), []byte("c2"))))
	agg := mustID(call("aggregate", contracts.EncodeArgs(contracts.U64List([]uint64{a, b}), []byte("u3"), []byte("c3"))))
	m.Chain.SealBlock()

	want, err := contracts.Trace(m.Chain, agg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Trace(agg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace differs:\n got %+v\nwant %+v", got, want)
	}

	// A token minted after the last seal is invisible to the indexer; Trace
	// must still answer.
	fresh := mustID(call("duplicate", contracts.EncodeArgs(contracts.U64(agg), []byte("u4"), []byte("c4"))))
	lineage, err := m.Trace(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if len(lineage) != 4 || lineage[0].ID != fresh {
		t.Fatalf("unsealed trace: %+v", lineage)
	}
}
