package snapshot

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
)

// appendBlockRecord is the WAL block record as it was written before it was
// sized up front: an empty buffer grown by append.
func appendBlockRecord(b *chain.Block, txs []chain.Transaction, receipts []*chain.Receipt) []byte {
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

// TestBlockRecordSizedOnce: encodeBlockRecord writes the bytes the
// append-grown encoder wrote, into one buffer of exactly their length, on a
// mixed block — a transaction with no receipt, one with a short receipt
// list, receipts with logs, return data and a reverted call's error string,
// calldata from empty to a few kilobytes — and on an empty block; and the
// record decodes back to the block, transactions and receipts.
func TestBlockRecordSizedOnce(t *testing.T) {
	mixed := []chain.Transaction{
		{From: testAlice, Contract: "counter", Method: "inc", Nonce: 1, GasLimit: 90_000},
		{From: testAlice, Contract: "escrow", Method: "settle", Args: bytes.Repeat([]byte{0xa5}, 2_345), Value: 7, Nonce: 2},
		{From: testAlice, To: chain.AddressFromString("bob"), Value: 11, Nonce: 3},
		{From: testAlice, Contract: "counter", Method: "fail", Args: []byte{1}, Nonce: 4},
	}
	receipts := []*chain.Receipt{
		{TxHash: chain.Hash{1}, GasUsed: 21_000},
		{TxHash: chain.Hash{2}, GasUsed: 322_533, Return: []byte("ok"), Logs: []chain.Event{
			{Contract: "escrow", Name: "Settled", Topic: []byte{9, 9}, Data: bytes.Repeat([]byte{3}, 70)},
			{Contract: "datanft", Name: "Transfer"},
		}},
		nil,
	}
	reverted := &chain.Receipt{TxHash: chain.Hash{4}, GasUsed: 5_000, Err: errors.New("counter: fail requested")}
	block := &chain.Block{Number: 9, Parent: chain.Hash{0xfe}, Time: time.Unix(0, 1_700_000_000_123), TxHashes: []chain.Hash{{1}, {2}, {3}, {4}}, StateRoot: chain.Hash{0x5e}, Fold: 2}

	for _, tc := range []struct {
		name     string
		block    *chain.Block
		txs      []chain.Transaction
		receipts []*chain.Receipt
	}{
		{"mixed, short receipt list", block, mixed, receipts},
		{"mixed, every receipt", block, mixed, append(append([]*chain.Receipt{}, receipts...), reverted)},
		{"empty", &chain.Block{Number: 1}, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := encodeBlockRecord(tc.block, tc.txs, tc.receipts)
			if want := appendBlockRecord(tc.block, tc.txs, tc.receipts); !bytes.Equal(got, want) {
				t.Fatalf("record differs from the append-grown encoding (%d vs %d bytes)", len(got), len(want))
			}
			if cap(got) != len(got) {
				t.Fatalf("allocated %d bytes for a %d-byte record", cap(got), len(got))
			}
			b, txs, rs, err := decodeBlockRecord(got)
			if err != nil {
				t.Fatal(err)
			}
			if b.Number != tc.block.Number || b.Fold != tc.block.Fold || len(txs) != len(tc.txs) {
				t.Fatalf("decoded block %d fold %d with %d txs", b.Number, b.Fold, len(txs))
			}
			for i := range txs {
				want := i < len(tc.receipts) && tc.receipts[i] != nil
				if (rs[i] != nil) != want || string(txs[i].Args) != string(tc.txs[i].Args) {
					t.Fatalf("tx %d decoded wrong", i)
				}
			}
		})
	}
}
