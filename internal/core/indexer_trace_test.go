package core

import (
	"errors"
	"reflect"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/indexer"
	"github.com/zkdet/zkdet/internal/snapshot"
	"github.com/zkdet/zkdet/internal/storage"
)

// mustID decodes the token id a DataNFT call returned.
func mustID(t *testing.T, raw []byte) uint64 {
	t.Helper()
	id, err := contracts.DecU64(raw)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// nftCall submits one DataNFT call through the marketplace's submitter and
// returns its result.
func nftCall(t *testing.T, m *Marketplace, from chain.Address, method string, args []byte) []byte {
	t.Helper()
	r, err := m.submit(from, contracts.DataNFTName, method, 0, args)
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	return r.Return
}

// TestTraceViaIndexer drives the DataNFT contract with raw transactions (no
// proving, so it stays fast): the deployment's indexer is attached at
// genesis, every token is indexed by the time its transaction returns, and
// Trace serves the lineage from the indexer's log.
func TestTraceViaIndexer(t *testing.T) {
	m, _ := newTestMarketplace(t)
	ix := m.AttachIndexer()
	if ix == nil || m.AttachIndexer() != ix {
		t.Fatal("AttachIndexer does not return the one indexer attached at genesis")
	}
	alice := chain.AddressFromString("alice")
	m.Chain.Faucet(alice, 1<<40)

	a := mustID(t, nftCall(t, m, alice, "mint", contracts.EncodeArgs([]byte("u1"), []byte("c1"))))
	if _, err := ix.Token(a); err != nil {
		t.Fatalf("token %d not indexed when its mint returned: %v", a, err)
	}
	b := mustID(t, nftCall(t, m, alice, "mint", contracts.EncodeArgs([]byte("u2"), []byte("c2"))))
	agg := mustID(t, nftCall(t, m, alice, "aggregate", contracts.EncodeArgs(contracts.U64List([]uint64{a, b}), []byte("u3"), []byte("c3"))))

	got, err := m.Trace(agg)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		id          uint64
		kind        contracts.TransformKind
		uri, commit string
		parents     []uint64
	}
	want := []rec{
		{agg, contracts.KindAggregation, "u3", "c3", []uint64{a, b}},
		{a, contracts.KindMint, "u1", "c1", nil},
		{b, contracts.KindMint, "u2", "c2", nil},
	}
	have := make([]rec, len(got))
	for i, r := range got {
		have[i] = rec{r.ID, r.Kind, string(r.URI), string(r.Commitment), r.Parents}
	}
	if !reflect.DeepEqual(have, want) {
		t.Fatalf("trace:\n got %+v\nwant %+v", have, want)
	}
}

// TestTraceRefusesTamperedRecord: an indexer fed a block whose mint Transfer
// carries another URI or commitment than the token was minted with serves a
// record its on-chain digest does not bind, and Trace and AuditLineage
// refuse it by type — here for the root of a two-token lineage.
func TestTraceRefusesTamperedRecord(t *testing.T) {
	m, _ := newTestMarketplace(t)
	reg := NewProofRegistry()
	alice := chain.AddressFromString("alice")
	root, err := m.MintAsset(alice, "alice", smallData(2), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	reg.PublishAsset(root)
	dup, err := m.Duplicate(alice, "alice", root)
	if err != nil {
		t.Fatal(err)
	}
	reg.PublishTransform(dup, nil)
	leaf := dup.Assets[0].TokenID

	// deliver re-feeds the indexer the root's mint Transfer with the given
	// URI and commitment, as a lying log would.
	deliver := func(uri, commit []byte) {
		m.AttachIndexer().ProcessBlock(chain.Block{Number: m.Chain.Height() + 1}, []*chain.Receipt{{Logs: []chain.Event{{
			Contract: contracts.DataNFTName, Name: "Transfer", Topic: contracts.U64(root.TokenID),
			Data: contracts.EncodeArgs(contracts.U64(root.TokenID), nil, alice[:], uri, commit),
		}}}})
	}
	uri, commit := root.URI[:], root.Statement.commitmentField()
	flip := func(b []byte) []byte {
		out := append([]byte(nil), b...)
		out[0] ^= 1
		return out
	}
	for _, tc := range []struct {
		name        string
		uri, commit []byte
	}{
		{"uri", flip(uri), commit},
		{"commitment", uri, flip(commit)},
	} {
		deliver(tc.uri, tc.commit)
		if _, err := m.Trace(leaf); !errors.Is(err, contracts.ErrRecordMismatch) {
			t.Fatalf("tampered %s: Trace returned %v, want ErrRecordMismatch", tc.name, err)
		}
		if _, err := m.AuditLineage(reg, leaf); !errors.Is(err, contracts.ErrRecordMismatch) {
			t.Fatalf("tampered %s: AuditLineage returned %v, want ErrRecordMismatch", tc.name, err)
		}
	}
	deliver(uri, commit)
	if _, err := m.AuditLineage(reg, leaf); err != nil {
		t.Fatalf("honest record restored: %v", err)
	}
}

// TestFullNodeRefusesPrunedRecord: a token's record is history — its mint's
// receipt carries it, and storage keeps only the digest. A Full-role node
// restarted past a checkpoint has pruned that receipt, so it refuses the
// record by type — even once a later transfer of the token reaches its
// indexer — while the owner, a storage read, still answers; an Archive node
// serves the record.
func TestFullNodeRefusesPrunedRecord(t *testing.T) {
	alice, bob := chain.AddressFromString("alice"), chain.AddressFromString("bob")
	for _, role := range []snapshot.Role{snapshot.Full, snapshot.Archive} {
		t.Run(role.String(), func(t *testing.T) {
			dir := t.TempDir()
			open := func() (*Marketplace, *snapshot.DurableStore) {
				t.Helper()
				d, err := snapshot.Open(snapshot.Options{Dir: dir, Role: role})
				if err != nil {
					t.Fatal(err)
				}
				m, _, err := NewMarketplaceWith(testSys(), chain.New(), d.Blobs(storage.NewStore()))
				if err != nil {
					t.Fatal(err)
				}
				m.Chain.Faucet(alice, 1<<40)
				if _, err := d.Recover(m.Chain); err != nil {
					t.Fatal(err)
				}
				if err := d.Attach(m.Chain); err != nil {
					t.Fatal(err)
				}
				return m, d
			}
			m, d := open()
			id := mustID(t, nftCall(t, m, alice, "mint", contracts.EncodeArgs([]byte("uri"), []byte("commit"))))
			nftCall(t, m, alice, "mint", contracts.EncodeArgs([]byte("uri-2"), []byte("commit-2")))
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			m, d = open()
			defer d.Close()
			nftCall(t, m, alice, "transfer", contracts.EncodeArgs(contracts.U64(id), bob[:]))
			if tok, err := contracts.ReadToken(m.Chain, id); err != nil || tok.Owner != bob {
				t.Fatalf("token %d after restart: %+v, %v; want bob's", id, tok, err)
			}
			_, err := m.Trace(id)
			if role == snapshot.Full && !errors.Is(err, indexer.ErrUnknownToken) {
				t.Fatalf("full node served a pruned record: %v, want indexer.ErrUnknownToken", err)
			}
			if role == snapshot.Archive && err != nil {
				t.Fatalf("archive node: %v", err)
			}
		})
	}
}
