package node

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
)

func testPool(t *testing.T, cfg Config) (*mempool, *chain.Chain) {
	t.Helper()
	cfg.sanitize()
	c := chain.New()
	return newMempool(cfg, c), c
}

// mustProduce seals txs as one block and fails the test unless every one of
// them made it in.
func mustProduce(t *testing.T, c *chain.Chain, txs ...chain.Transaction) chain.Block {
	t.Helper()
	p := c.ProduceBlock(txs)
	for i, o := range p.Outcomes {
		if o.Err != nil {
			t.Fatalf("tx %d: %v", i, o.Err)
		}
	}
	return p.Block
}

// bodyOf is the transactions of a popped batch.
func bodyOf(batch []*poolTx) []chain.Transaction {
	txs := make([]chain.Transaction, len(batch))
	for i, ptx := range batch {
		txs[i] = ptx.tx
	}
	return txs
}

func fund(c *chain.Chain, label string, amount uint64) chain.Address {
	a := chain.AddressFromString(label)
	c.Faucet(a, amount)
	return a
}

func TestAdmissionNonceChecks(t *testing.T) {
	p, c := testPool(t, Config{})
	alice := fund(c, "alice", 1000)

	// Consume nonce 0 on chain directly.
	bob := fund(c, "bob", 1000)
	mustProduce(t, c, chain.Transaction{From: alice, To: bob, Value: 1, Nonce: 0})

	if _, err := p.add(chain.Transaction{From: alice, Nonce: 0}, false, false); !errors.Is(err, ErrNonceTooLow) {
		t.Fatalf("nonce 0: %v, want ErrNonceTooLow", err)
	}
	if _, err := p.add(chain.Transaction{From: alice, Nonce: 1}, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := p.add(chain.Transaction{From: alice, Nonce: 1}, false, false); !errors.Is(err, ErrKnownTx) {
		t.Fatalf("duplicate nonce: %v, want ErrKnownTx", err)
	}
	// Next executable is 2; the gap limit allows up to 2+maxNonceGap.
	if _, err := p.add(chain.Transaction{From: alice, Nonce: 2 + maxNonceGap}, false, false); err != nil {
		t.Fatalf("nonce 2+maxNonceGap within gap: %v", err)
	}
	if _, err := p.add(chain.Transaction{From: alice, Nonce: 3 + maxNonceGap}, false, false); !errors.Is(err, ErrNonceGap) {
		t.Fatalf("nonce 3+maxNonceGap: %v, want ErrNonceGap", err)
	}
}

func TestAdmissionBalanceAndGas(t *testing.T) {
	p, c := testPool(t, Config{})
	alice := fund(c, "alice", 500)
	bob := chain.AddressFromString("bob")

	if _, err := p.add(chain.Transaction{From: alice, To: bob, Value: 300, Nonce: 0}, false, false); err != nil {
		t.Fatal(err)
	}
	// Second transfer would overdraw counting the reserved 300.
	if _, err := p.add(chain.Transaction{From: alice, To: bob, Value: 300, Nonce: 1}, false, false); !errors.Is(err, ErrUnderfunded) {
		t.Fatalf("overdraw: %v, want ErrUnderfunded", err)
	}
	if _, err := p.add(chain.Transaction{From: alice, To: bob, Value: 100, Nonce: 1}, false, false); err != nil {
		t.Fatalf("affordable second transfer: %v", err)
	}
	if _, err := p.add(chain.Transaction{From: alice, GasLimit: chain.DefaultGasLimit + 1, Nonce: 2}, false, false); !errors.Is(err, ErrGasTooHigh) {
		t.Fatalf("gas cap: %v, want ErrGasTooHigh", err)
	}
}

func TestAutoNonceAssignment(t *testing.T) {
	p, c := testPool(t, Config{})
	alice := fund(c, "alice", 1000)
	for i := 0; i < 5; i++ {
		if _, err := p.add(chain.Transaction{From: alice}, true, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.NextNonce(alice); got != 5 {
		t.Fatalf("next nonce %d, want 5", got)
	}
	batch := p.pop(10)
	if len(batch) != 5 {
		t.Fatalf("popped %d, want 5", len(batch))
	}
	for i, ptx := range batch {
		if ptx.tx.Nonce != uint64(i) {
			t.Fatalf("pop order: batch[%d].Nonce = %d", i, ptx.tx.Nonce)
		}
	}
}

func TestCapacityEviction(t *testing.T) {
	p, c := testPool(t, Config{MaxPoolTxs: 4})
	alice := fund(c, "alice", 1000)
	bob := fund(c, "bob", 1000)

	// Fill the pool with alice's txs, the last far in the future.
	var farDone chan TxResult
	for _, nonce := range []uint64{0, 1, 2} {
		if _, err := p.add(chain.Transaction{From: alice, Nonce: nonce}, false, false); err != nil {
			t.Fatal(err)
		}
	}
	farPtx, err := p.add(chain.Transaction{From: alice, Nonce: 10}, false, true)
	if err != nil {
		t.Fatal(err)
	}
	farDone = farPtx.done

	// Bob's executable tx evicts alice's nonce-10 straggler.
	if _, err := p.add(chain.Transaction{From: bob, Nonce: 0}, false, false); err != nil {
		t.Fatalf("executable tx not admitted at capacity: %v", err)
	}
	select {
	case res := <-farDone:
		if !errors.Is(res.Err, ErrEvicted) {
			t.Fatalf("victim result %v, want ErrEvicted", res.Err)
		}
	case <-time.After(time.Second):
		t.Fatal("evicted tx result not delivered")
	}

	// Another far-future tx cannot displace closer ones.
	if _, err := p.add(chain.Transaction{From: bob, Nonce: 12}, false, false); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("far-future tx at capacity: %v, want ErrPoolFull", err)
	}
	if got := p.Len(); got != 4 {
		t.Fatalf("pool size %d, want 4", got)
	}
}

// TestParallelProducersAndSubmitters hammers the pool from concurrent
// client goroutines while several producer goroutines pop/execute/markDone
// — the contended admission/eviction path `make race` guards. The pool is
// deliberately smaller than the offered load so capacity eviction fires;
// clients behave like real ones: they wait on results and resubmit evicted
// transactions (auto-nonce heals the gap an eviction leaves).
func TestParallelProducersAndSubmitters(t *testing.T) {
	const senders = 8
	const txPerSender = 50
	const producers = 4

	p, c := testPool(t, Config{MaxPoolTxs: 128})
	addrs := make([]chain.Address, senders)
	for i := range addrs {
		addrs[i] = fund(c, "sender-"+string(rune('a'+i)), 1<<30)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var mu sync.Mutex
	executed := 0

	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				batch := p.pop(16)
				if len(batch) == 0 {
					select {
					case <-stop:
						// Final drain so admitted stragglers execute.
						if batch = p.pop(16); len(batch) == 0 {
							return
						}
					case <-time.After(time.Millisecond):
						continue
					}
				}
				res := c.ProduceBlock(bodyOf(batch))
				for i, ptx := range batch {
					o := res.Outcomes[i]
					if o.Err != nil {
						t.Errorf("produce: %v", o.Err)
					}
					ptx.finish(TxResult{Receipt: o.Receipt, Err: o.Err})
				}
				p.markDone(batch)
				mu.Lock()
				executed += len(batch)
				mu.Unlock()
			}
		}()
	}

	var subWg sync.WaitGroup
	for _, addr := range addrs {
		subWg.Add(1)
		go func(a chain.Address) {
			defer subWg.Done()
			var results []chan TxResult
			submit := func() bool {
				for {
					ptx, err := p.add(chain.Transaction{From: a, To: a, Value: 1}, true, true)
					switch {
					case err == nil:
						results = append(results, ptx.done)
						return true
					case errors.Is(err, ErrPoolFull):
						time.Sleep(100 * time.Microsecond)
					default:
						t.Errorf("add: %v", err)
						return false
					}
				}
			}
			for i := 0; i < txPerSender; i++ {
				if !submit() {
					return
				}
			}
			completed := 0
			for completed < txPerSender && len(results) > 0 {
				res := <-results[0]
				results = results[1:]
				switch {
				case errors.Is(res.Err, ErrEvicted):
					if !submit() {
						return
					}
				case res.Err != nil:
					t.Errorf("tx result: %v", res.Err)
					return
				default:
					completed++
				}
			}
		}(addr)
	}
	subWg.Wait()
	close(stop)
	wg.Wait()

	if executed != senders*txPerSender {
		t.Fatalf("executed %d, want %d", executed, senders*txPerSender)
	}
	for _, a := range addrs {
		if got := c.NonceOf(a); got != txPerSender {
			t.Fatalf("sender %s nonce %d, want %d", a, got, txPerSender)
		}
	}
	if got := p.Len(); got != 0 {
		t.Fatalf("pool not drained: %d left", got)
	}
}

// TestNonceGapRefill pins the refill behavior around nonce gaps: a gapped
// transaction parks in the pool without executing, pop serves only the
// contiguous run, and the moment the missing nonce arrives the whole run —
// parked tail included — becomes executable in one pop.
func TestNonceGapRefill(t *testing.T) {
	p, c := testPool(t, Config{})
	alice := fund(c, "alice", 1000)

	// Nonces 0, 1, then a hole at 2, then 3 and 4 parked behind it.
	for _, nonce := range []uint64{0, 1, 3, 4} {
		if _, err := p.add(chain.Transaction{From: alice, Nonce: nonce}, false, false); err != nil {
			t.Fatalf("nonce %d: %v", nonce, err)
		}
	}
	batch := p.pop(16)
	if len(batch) != 2 || batch[0].tx.Nonce != 0 || batch[1].tx.Nonce != 1 {
		t.Fatalf("pop across gap returned %d txs, want the [0 1] run", len(batch))
	}
	mustProduce(t, c, bodyOf(batch)...)
	p.markDone(batch)

	// Still gapped: nothing executable, and the pool still holds 3 and 4.
	if got := p.pop(16); len(got) != 0 {
		t.Fatalf("pop with gap unhealed returned %d txs, want 0", len(got))
	}
	if got := p.Len(); got != 2 {
		t.Fatalf("pool size %d, want 2 parked", got)
	}

	// Filling the hole makes the full tail executable at once, in order.
	if _, err := p.add(chain.Transaction{From: alice, Nonce: 2}, false, false); err != nil {
		t.Fatalf("refill nonce 2: %v", err)
	}
	batch = p.pop(16)
	if len(batch) != 3 {
		t.Fatalf("pop after refill returned %d txs, want 3", len(batch))
	}
	for i, ptx := range batch {
		if want := uint64(2 + i); ptx.tx.Nonce != want {
			t.Fatalf("refilled run position %d has nonce %d, want %d", i, ptx.tx.Nonce, want)
		}
	}
	mustProduce(t, c, bodyOf(batch)...)
	p.markDone(batch)
	if got := p.Len(); got != 0 {
		t.Fatalf("pool not empty after refill drain: %d", got)
	}
	if got := c.NonceOf(alice); got != 5 {
		t.Fatalf("account nonce %d, want 5", got)
	}
}

// TestImportedBlockReplacesPooledNonce pins ErrReplaced delivery: when an
// imported block consumes a nonce with a *different* transaction than the
// pooled one, the pooled transaction is evicted with ErrReplaced (it can
// never execute), while a pooled transaction whose exact hash was included
// gets its receipt instead.
func TestImportedBlockReplacesPooledNonce(t *testing.T) {
	producer := chain.New()
	c := chain.New()
	p, _ := testPool(t, Config{})
	p.chain = c
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")
	for _, ch := range []*chain.Chain{producer, c} {
		ch.Faucet(alice, 1000)
		ch.Faucet(bob, 1000)
	}

	// Locally pooled: alice nonce 0 pays bob 7 (will be superseded), alice
	// nonce 1 (stranded behind it), bob nonce 0 paying alice 5 (identical
	// to the remotely sealed copy — gets a receipt).
	supersededPtx, err := p.add(chain.Transaction{From: alice, To: bob, Value: 7, Nonce: 0}, false, true)
	if err != nil {
		t.Fatal(err)
	}
	strandedPtx, err := p.add(chain.Transaction{From: alice, To: bob, Value: 3, Nonce: 1}, false, true)
	if err != nil {
		t.Fatal(err)
	}
	includedTx := chain.Transaction{From: bob, To: alice, Value: 5, Nonce: 0}
	includedPtx, err := p.add(includedTx, false, true)
	if err != nil {
		t.Fatal(err)
	}

	// The remote sealer spends alice nonces 0 AND 1 differently.
	remoteTxs := []chain.Transaction{
		{From: alice, To: bob, Value: 1, Nonce: 0},
		{From: alice, To: bob, Value: 1, Nonce: 1},
		includedTx,
	}
	block := mustProduce(t, producer, remoteTxs...)
	// Import the normalized (gas-default applied) body so tx hashes match
	// the header, exactly as a syncing peer would receive it.
	body, ok := producer.BlockBody(block.Number)
	if !ok {
		t.Fatal("producer block body missing")
	}
	receipts, err := c.ImportBlock(block, body)
	if err != nil {
		t.Fatal(err)
	}
	p.removeIncluded(body, receipts, block.Number)

	for _, tc := range []struct {
		name string
		done chan TxResult
	}{{"superseded", supersededPtx.done}, {"stranded", strandedPtx.done}} {
		select {
		case res := <-tc.done:
			if !errors.Is(res.Err, ErrReplaced) {
				t.Fatalf("%s result %v, want ErrReplaced", tc.name, res.Err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s result not delivered", tc.name)
		}
	}
	select {
	case res := <-includedPtx.done:
		if res.Err != nil || res.Receipt == nil {
			t.Fatalf("included tx result %+v, want receipt", res)
		}
		if res.BlockNumber != block.Number {
			t.Fatalf("included tx block %d, want %d", res.BlockNumber, block.Number)
		}
	case <-time.After(time.Second):
		t.Fatal("included tx result not delivered")
	}
	if got := p.Len(); got != 0 {
		t.Fatalf("pool size %d after reconcile, want 0", got)
	}
}

// TestPendingSampleDeterministic pins the gossip-sample ordering contract:
// with sender iteration sorted by address, two calls return the same
// transactions in the same order for the senders already present, even
// while other senders' submitters are racing admission (concurrent adds may
// grow later samples but never reorder those senders). Run under -race this
// also guards the sample path against locking regressions.
func TestPendingSampleDeterministic(t *testing.T) {
	p, c := testPool(t, Config{MaxPoolTxs: 4096})
	const stable = 6
	stableAddrs := make([]chain.Address, stable)
	for i := range stableAddrs {
		stableAddrs[i] = fund(c, fmt.Sprintf("stable-%d", i), 1<<20)
		for nonce := uint64(0); nonce < 4; nonce++ {
			if _, err := p.add(chain.Transaction{From: stableAddrs[i], Nonce: nonce}, false, false); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Racing submitters on disjoint senders.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		addr := fund(c, fmt.Sprintf("racer-%d", i), 1<<20)
		wg.Add(1)
		go func(a chain.Address) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := p.add(chain.Transaction{From: a}, true, false); err != nil {
					return // pool full: stop racing, determinism check continues
				}
			}
		}(addr)
	}

	// A racer's address may sort before a stable sender's, so a racing
	// admission legitimately shifts absolute sample positions; the contract
	// is about the senders already present. Sample the whole pool (so every
	// stable sender is inside the bound) and compare the stable senders'
	// subsequences.
	isStable := make(map[chain.Address]bool, stable)
	for _, a := range stableAddrs {
		isStable[a] = true
	}
	stableOnly := func(sample []chain.Transaction) []chain.Transaction {
		var out []chain.Transaction
		for _, tx := range sample {
			if isStable[tx.From] {
				out = append(out, tx)
			}
		}
		return out
	}
	sameTx := func(a, b chain.Transaction) bool { return a.Hash() == b.Hash() }
	for round := 0; round < 50; round++ {
		s1 := stableOnly(p.pendingSample(1 << 20))
		s2 := stableOnly(p.pendingSample(1 << 20))
		if len(s1) != stable*4 || len(s2) != stable*4 {
			t.Fatalf("round %d: stable sample sizes %d/%d, want %d", round, len(s1), len(s2), stable*4)
		}
		for i := range s1 {
			if !sameTx(s1[i], s2[i]) {
				t.Fatalf("round %d: samples diverge at %d: %s nonce %d vs %s nonce %d",
					round, i, s1[i].From, s1[i].Nonce, s2[i].From, s2[i].Nonce)
			}
		}
	}
	close(stop)
	wg.Wait()

	// The full-pool sample is sorted by sender address with each sender's
	// run nonce-contiguous.
	full := p.pendingSample(1 << 20)
	for i := 1; i < len(full); i++ {
		prev, cur := full[i-1], full[i]
		if prev.From == cur.From {
			if cur.Nonce != prev.Nonce+1 {
				t.Fatalf("sample position %d: nonce %d after %d", i, cur.Nonce, prev.Nonce)
			}
		} else if string(cur.From[:]) < string(prev.From[:]) {
			t.Fatalf("sample position %d: sender order regressed", i)
		}
	}
}
