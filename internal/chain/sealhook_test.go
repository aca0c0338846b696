package chain

import (
	"sync"
	"testing"
	"time"
)

// TestSlowSealHookCannotDeadlock is the regression test for the OnSeal
// ordering contract: hooks dispatch under sealMu but with the state lock
// released, so a slow hook that re-enters chain reads back-pressures
// concurrent ProduceBlock/ImportBlock callers without ever deadlocking them,
// and every hook invocation still observes strictly increasing heights.
func TestSlowSealHookCannotDeadlock(t *testing.T) {
	// Producer pre-seals blocks with real transactions for the follower to
	// import.
	producer := New()
	alice := AddressFromString("alice")
	bob := AddressFromString("bob")
	producer.Faucet(alice, 1_000_000)
	const nBlocks = 4
	blocks := make([]Block, nBlocks)
	bodies := make([][]Transaction, nBlocks)
	for i := 0; i < nBlocks; i++ {
		blocks[i] = mustProduce(t, producer, Transaction{From: alice, To: bob, Value: 1, Nonce: uint64(i)})
		body, ok := producer.BlockBody(blocks[i].Number)
		if !ok {
			t.Fatalf("missing body for block %d", blocks[i].Number)
		}
		bodies[i] = body
	}

	f := New()
	f.Faucet(alice, 1_000_000)
	var hookMu sync.Mutex
	var heights []uint64
	f.OnSeal(func(b Block, rs []*Receipt) error {
		// Re-enter chain reads: these take mu, which the dispatch path
		// must have released. A regression that dispatched hooks under
		// mu deadlocks right here and trips the watchdog.
		_ = f.HeadHash()
		_ = f.BalanceOf(bob)
		for _, r := range rs {
			_, _ = f.Receipt(r.TxHash)
		}
		time.Sleep(5 * time.Millisecond) // slow consumer
		hookMu.Lock()
		heights = append(heights, b.Number)
		hookMu.Unlock()
		return nil
	})

	done := make(chan struct{})
	imported := 0
	go func() {
		defer close(done)

		// Phase 1: imports succeed while the slow hook drags on each one.
		for i := range blocks {
			if _, err := f.ImportBlock(blocks[i], bodies[i]); err != nil {
				t.Errorf("import block %d: %v", blocks[i].Number, err)
				return
			}
			imported++
		}

		// Phase 2: ProduceBlock and ImportBlock race on sealMu while the hook
		// sleeps. The re-imports are expected to fail structurally (the
		// head has moved past them) — the property under test is that
		// every call RETURNS; none may wedge on a lock the hook holds.
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				f.ProduceBlock(nil) // empty blocks, hooks still fire
			}
		}()
		go func() {
			defer wg.Done()
			for i := range blocks {
				_, _ = f.ImportBlock(blocks[i], bodies[i])
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = f.HeadHash()
				_ = f.BalanceOf(alice)
			}
		}()
		wg.Wait()
	}()

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: seal/import did not complete with a slow OnSeal hook")
	}
	if imported != nBlocks {
		t.Fatalf("imported %d blocks, want %d", imported, nBlocks)
	}

	hookMu.Lock()
	defer hookMu.Unlock()
	if len(heights) < nBlocks {
		t.Fatalf("hook ran %d times, want at least %d", len(heights), nBlocks)
	}
	for i := 1; i < len(heights); i++ {
		if heights[i] != heights[i-1]+1 {
			t.Fatalf("hook heights not strictly sequential: %v", heights)
		}
	}
}
