package bench

import (
	"fmt"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
)

// TestExecThroughputShape checks the experiment at a size CI can afford:
// every pair's transfer lands in every round. The Benchmark* variant is the
// `make bench-exec` entry point at full scale.
func TestExecThroughputShape(t *testing.T) {
	row, err := ExecThroughput(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if row.Txs != 30 {
		t.Fatalf("moved %d transactions, want 30", row.Txs)
	}
	if row.TxPerSec <= 0 {
		t.Fatalf("non-positive throughput: %f", row.TxPerSec)
	}
}

// BenchmarkExecThroughput reports sealed tx/s per client population; see
// EXPERIMENTS.md §Execution layer for recorded numbers.
func BenchmarkExecThroughput(b *testing.B) {
	for _, clients := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row, err := ExecThroughput(clients, execRounds(clients))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(row.TxPerSec, "tx/s")
			}
		})
	}
}

// sealFixture is a producer whose DataNFT store holds about `slots` slots
// (a mint writes four), and a follower that has imported the same blocks,
// so both sit at the same head. The measured block bounces the first 256
// tokens between two holders: 256 owner slots and two counters rewritten,
// no slot added, so the store stays at its size however long the run.
type sealFixture struct {
	producer, follower *chain.Chain
	holders            [2]chain.Address
	nonces             [2]uint64
	from               int // which holder has the tokens
}

const sealBlockTxs = 256

func newSealFixture(b *testing.B, slots int) *sealFixture {
	b.Helper()
	f := &sealFixture{holders: [2]chain.Address{
		chain.AddressFromString("seal-bench-a"), chain.AddressFromString("seal-bench-b"),
	}}
	for _, c := range []**chain.Chain{&f.producer, &f.follower} {
		*c = chain.New()
		if _, err := (*c).Deploy(contracts.DataNFTName, &contracts.DataNFT{}, contracts.DataNFTCodeSize); err != nil {
			b.Fatal(err)
		}
	}
	for minted := 0; minted < slots/4; minted += 2048 {
		txs := make([]chain.Transaction, min(2048, slots/4-minted))
		for i := range txs {
			txs[i] = f.tx(0, "mint", contracts.EncodeArgs([]byte("bench-uri"), []byte("bench-commit")))
		}
		f.importHead(b, f.seal(b, txs))
	}
	return f
}

func (f *sealFixture) tx(holder int, method string, args []byte) chain.Transaction {
	tx := chain.Transaction{
		From: f.holders[holder], Contract: contracts.DataNFTName, Method: method,
		Args: args, Nonce: f.nonces[holder],
	}
	f.nonces[holder]++
	return tx
}

// seal produces txs as one block on the producer.
func (f *sealFixture) seal(b *testing.B, txs []chain.Transaction) chain.Block {
	b.Helper()
	p := f.producer.ProduceBlock(txs)
	for i, out := range p.Outcomes {
		if out.Err != nil || out.Receipt.Err != nil {
			b.Fatalf("tx %d: %v %v", i, out.Err, out.Receipt)
		}
	}
	return p.Block
}

// bounce is the measured block: tokens 1..256 change hands.
func (f *sealFixture) bounce() []chain.Transaction {
	txs := make([]chain.Transaction, sealBlockTxs)
	to := f.holders[1-f.from]
	for id := range txs {
		txs[id] = f.tx(f.from, "transfer", contracts.EncodeArgs(contracts.U64(uint64(id+1)), to[:]))
	}
	f.from = 1 - f.from
	return txs
}

func (f *sealFixture) importHead(b *testing.B, blk chain.Block) {
	b.Helper()
	body, _ := f.producer.BlockBody(blk.Number)
	if _, err := f.follower.ImportBlock(blk, body); err != nil {
		b.Fatal(err)
	}
}

var sealBenchSizes = []int{1 << 10, 10 << 10, 100 << 10}

// BenchmarkProduceBlock times the producer half — execute under the block
// journal, fold the writes into the trie, seal — for one 256-transaction
// block on a DataNFT store pre-filled to the given size. The commitment
// grows with the trie's depth, not with the slot count, so ns/op should
// stay nearly flat across sizes.
func BenchmarkProduceBlock(b *testing.B) {
	for _, slots := range sealBenchSizes {
		b.Run(fmt.Sprintf("slots=%dk", slots>>10), func(b *testing.B) {
			f := newSealFixture(b, slots)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				txs := f.bounce()
				b.StartTimer()
				blk := f.seal(b, txs)
				b.StopTimer()
				f.importHead(b, blk)
			}
		})
	}
}

// BenchmarkImportBlock times the follower half — validate, replay under
// the block journal, seal — for the same block at the same store sizes.
func BenchmarkImportBlock(b *testing.B) {
	for _, slots := range sealBenchSizes {
		b.Run(fmt.Sprintf("slots=%dk", slots>>10), func(b *testing.B) {
			f := newSealFixture(b, slots)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				blk := f.seal(b, f.bounce())
				body, _ := f.producer.BlockBody(blk.Number)
				b.StartTimer()
				if _, err := f.follower.ImportBlock(blk, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
