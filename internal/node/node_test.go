package node

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
)

// logbox is a toy contract that logs its calldata.
type logbox struct{}

func (logbox) Call(ctx *chain.CallContext, method string, args []byte) ([]byte, error) {
	if err := ctx.EmitIndexed("Logged", args, args); err != nil {
		return nil, err
	}
	return args, nil
}

func testNode(t *testing.T, cfg Config) (*Node, *chain.Chain) {
	t.Helper()
	c := chain.New()
	if _, err := c.Deploy("logbox", logbox{}, 100); err != nil {
		t.Fatal(err)
	}
	n := New(c, cfg)
	n.Start()
	t.Cleanup(n.Stop)
	return n, c
}

func TestSubmitAndWaitInclusion(t *testing.T) {
	n, c := testNode(t, Config{MaxBlockTxs: 4, BlockInterval: 5 * time.Millisecond})
	alice := fund(c, "alice", 1_000_000)
	bob := chain.AddressFromString("bob")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	res, err := n.SubmitAndWait(ctx, chain.Transaction{From: alice, To: bob, Value: 77}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Receipt == nil || res.BlockNumber == 0 {
		t.Fatalf("no receipt/block: %+v", res)
	}
	if got := c.BalanceOf(bob); got != 77 {
		t.Fatalf("bob balance %d", got)
	}
	// The sealed block really contains the tx.
	b, ok := c.BlockByNumber(res.BlockNumber)
	if !ok {
		t.Fatalf("block %d missing", res.BlockNumber)
	}
	found := false
	for _, h := range b.TxHashes {
		if h == res.TxHash {
			found = true
		}
	}
	if !found {
		t.Fatalf("tx %s not in block %d", res.TxHash, res.BlockNumber)
	}
}

func TestConcurrentClientsAllIncluded(t *testing.T) {
	n, c := testNode(t, Config{MaxBlockTxs: 8, BlockInterval: 2 * time.Millisecond})
	const clients = 32
	const perClient = 5

	addrs := make([]chain.Address, clients)
	for i := range addrs {
		addrs[i] = fund(c, "client-"+string(rune('A'+i%26))+string(rune('0'+i/26)), 1<<30)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for _, a := range addrs {
		wg.Add(1)
		go func(a chain.Address) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				res, err := n.SubmitAndWait(ctx, chain.Transaction{From: a, Contract: "logbox", Method: "put", Args: []byte{byte(j)}}, true)
				if err != nil {
					t.Errorf("client %s tx %d: %v", a, j, err)
					return
				}
				if res.Receipt.Err != nil {
					t.Errorf("client %s tx %d reverted: %v", a, j, res.Receipt.Err)
					return
				}
			}
		}(a)
	}
	wg.Wait()

	m := n.Metrics()
	if got := m["node.txsIncluded"]; got != clients*perClient {
		t.Fatalf("included %v, want %d", got, clients*perClient)
	}
	if got := m["node.poolSize"]; got != 0 {
		t.Fatalf("pool size %v after drain", got)
	}
	if p50, p99 := m["node.latencyP50Ms"], m["node.latencyP99Ms"]; p50 == 0 || p99 < p50 {
		t.Fatalf("latency p50=%vms p99=%vms", p50, p99)
	}
}

func TestSubscriptionDeliveryOrdering(t *testing.T) {
	n, c := testNode(t, Config{MaxBlockTxs: 4, BlockInterval: 2 * time.Millisecond})
	alice := fund(c, "alice", 1<<30)

	blockSub := n.Bus().SubscribeBlocks()
	defer n.Bus().UnsubscribeBlocks(blockSub)

	const total = 25
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < total; i++ {
		if _, err := n.SubmitAndWait(ctx, chain.Transaction{From: alice, Contract: "logbox", Method: "put", Args: []byte{byte(i)}}, true); err != nil {
			t.Fatal(err)
		}
	}

	// Blocks arrive in strict height order with receipts attached, and the
	// events in those receipts arrive in submission order.
	seen := uint64(0)
	received, logged := 0, 0
	for received < total {
		select {
		case bn := <-blockSub.C:
			if bn.Block.Number != seen+1 {
				t.Fatalf("block %d after %d", bn.Block.Number, seen)
			}
			seen = bn.Block.Number
			if len(bn.Receipts) != len(bn.Block.TxHashes) {
				t.Fatalf("block %d: %d receipts for %d txs", bn.Block.Number, len(bn.Receipts), len(bn.Block.TxHashes))
			}
			received += len(bn.Receipts)
			for _, r := range bn.Receipts {
				for _, ev := range r.Logs {
					if ev.Contract != "logbox" || ev.Name != "Logged" {
						continue
					}
					if len(ev.Data) != 1 || ev.Data[0] != byte(logged) {
						t.Fatalf("event %d out of order: %v", logged, ev.Data)
					}
					logged++
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at %d/%d receipts", received, total)
		}
	}
	if logged != total {
		t.Fatalf("block feed carried %d events, want %d", logged, total)
	}
}

func TestStopDrainsPool(t *testing.T) {
	c := chain.New()
	alice := fund(c, "alice", 1<<30)
	bob := chain.AddressFromString("bob")
	// Huge interval: only Stop can seal.
	n := New(c, Config{BlockInterval: time.Hour})
	n.Start()

	done := make([]chan TxResult, 0, 10)
	for i := 0; i < 10; i++ {
		ptx, err := n.pool.add(chain.Transaction{From: alice, To: bob, Value: 1}, true, true)
		if err != nil {
			t.Fatal(err)
		}
		done = append(done, ptx.done)
	}
	n.Stop()
	for i, ch := range done {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("tx %d: %v", i, res.Err)
			}
		default:
			t.Fatalf("tx %d has no result after Stop", i)
		}
	}
	if got := c.BalanceOf(bob); got != 10 {
		t.Fatalf("bob balance %d, want 10", got)
	}
	if c.Height() == 0 {
		t.Fatal("no block sealed on shutdown")
	}
}

func TestSubmitAndWaitContextCancel(t *testing.T) {
	c := chain.New()
	alice := fund(c, "alice", 1000)
	n := New(c, Config{BlockInterval: time.Hour})
	// Producer intentionally not started: the wait must end via context.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := n.SubmitAndWait(ctx, chain.Transaction{From: alice, To: alice, Value: 1}, true)
	if !errors.Is(err, ErrWaitCanceled) {
		t.Fatalf("got %v, want ErrWaitCanceled", err)
	}
}

// TestIdleNodeSealsOnArrival: BlockInterval is a minimum spacing between
// blocks, not a clock the node ticks to. A SubmitAndWait transaction reaching
// a node whose last tick found nothing to seal is sealed at once; a burst
// arriving inside the interval of that block still waits for it and lands in
// one block; and a fire-and-forget burst reaching an idle node is not split
// into its first transaction and the rest. The interval is long so that no
// assertion depends on scheduling.
func TestIdleNodeSealsOnArrival(t *testing.T) {
	const interval = time.Second
	const burst = 8
	n, c := testNode(t, Config{MaxBlockTxs: 64, BlockInterval: interval})
	alice := fund(c, "alice", 1_000_000)
	bob := chain.AddressFromString("bob")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// sendBurst submits burst transactions without waiting and returns the
	// one block they must all have landed in.
	sendBurst := func() uint64 {
		t.Helper()
		results := make([]<-chan TxResult, burst)
		for i := range results {
			var err error
			if _, results[i], err = n.SubmitForResult(chain.Transaction{From: alice, To: bob, Value: 1}, true); err != nil {
				t.Fatal(err)
			}
		}
		var block uint64
		for i, done := range results {
			select {
			case res := <-done:
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				if i > 0 && res.BlockNumber != block {
					t.Fatalf("burst transaction %d is in block %d, the first in block %d", i, res.BlockNumber, block)
				}
				block = res.BlockNumber
			case <-ctx.Done():
				t.Fatal(ctx.Err())
			}
		}
		return block
	}
	// idleFor lets a tick pass over an empty pool. (If it fires late, what is
	// submitted next is sealed by it instead, just as promptly.)
	idleFor := func() { time.Sleep(interval + interval/10) }

	idleFor()
	first := sendBurst()

	idleFor()
	start := time.Now()
	lone, err := n.SubmitAndWait(ctx, chain.Transaction{From: alice, To: bob, Value: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > interval/2 {
		t.Fatalf("a lone transaction on an idle node waited %v of a %v interval", waited, interval)
	}
	if lone.BlockNumber != first+1 {
		t.Fatalf("the lone transaction is in block %d, want %d", lone.BlockNumber, first+1)
	}

	sealedAt := time.Now()
	if next := sendBurst(); next != lone.BlockNumber+1 {
		t.Fatalf("the burst after the lone transaction is in block %d, want %d", next, lone.BlockNumber+1)
	}
	if spacing := time.Since(sealedAt); spacing < interval/2 {
		t.Fatalf("the burst's block followed the previous one after %v, inside the %v interval", spacing, interval)
	}
}
