package p2p

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/node"
	"github.com/zkdet/zkdet/internal/snapshot"
	"github.com/zkdet/zkdet/internal/storage"
)

// auditString canonicalizes an AuditLineage report for cross-node
// comparison (same encoding the zkdet-cluster demo uses).
func auditString(m *core.Marketplace, reg *core.ProofRegistry, tokenID uint64) (string, error) {
	rep, err := m.AuditLineage(reg, tokenID)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%v/e%d/t%d", rep.Tokens, rep.EncryptionProofs, rep.TransformProofs), nil
}

// TestClusterKillAndRestartConverges is the crash-fault harness of the
// durable engine: a three-member cluster with every node persisting to its
// own data dir; one non-driver member is SIGKILL'd (network down +
// DurableStore.Crash, no clean shutdown) while a mint is in flight, its
// entire stack is rebuilt from the data dir alone, and after the restart
// every member — including the reborn one — serves the identical
// AuditLineage report and the pre-crash receipts.
func TestClusterKillAndRestartConverges(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	sys, err := core.NewTestSystem(1 << 13)
	if err != nil {
		t.Fatal(err)
	}
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")

	const size = 3
	dirs := make([]string, size)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	mkts := make([]*core.Marketplace, size)
	durables := make([]*snapshot.DurableStore, size)

	// buildStack opens (or reopens) member i's full durable deployment from
	// its data dir: engine, blob store, chain with the deterministic
	// genesis, recovery, then the durability hook. The same function serves
	// the initial build and the post-crash restart — that is the point.
	buildStack := func(i int) (NodeSetup, *snapshot.RecoveryReport, error) {
		opts := snapshot.Options{Dir: dirs[i], CheckpointEvery: 2}
		d, err := snapshot.Open(opts)
		if err != nil {
			return NodeSetup{}, nil, err
		}
		bs := d.Blobs(storage.NewStore())
		c := chain.New()
		c.Faucet(alice, 1_000_000)
		c.Faucet(bob, 1_000_000)
		m, _, err := core.NewMarketplaceWith(sys, c, bs)
		if err != nil {
			return NodeSetup{}, nil, err
		}
		rep, err := d.Recover(c) // the marketplace's indexer, attached at genesis, re-sees restored blocks
		if err != nil {
			return NodeSetup{}, nil, err
		}
		if err := d.Attach(c); err != nil {
			return NodeSetup{}, nil, err
		}
		mkts[i] = m
		durables[i] = d
		return NodeSetup{Inner: node.New(c, node.Config{}), Store: bs}, rep, nil
	}

	cl, err := NewCluster(ClusterSpec{
		Size: size,
		Seed: 42,
		Link: LinkProfile{Latency: 100 * time.Microsecond},
		Build: func(i int, id NodeID) (NodeSetup, error) {
			setup, rep, err := buildStack(i)
			if err == nil && rep.Head != 0 {
				err = fmt.Errorf("fresh dir recovered to height %d", rep.Head)
			}
			return setup, err
		},
		Tune: tuneFast,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range mkts {
		m.Store = cl.Nodes[i].NetStore()
	}
	driver := mkts[0]
	driver.Submitter = func(tx chain.Transaction) (*chain.Receipt, error) {
		res, err := cl.Nodes[0].SubmitAndWait(ctx, tx, true)
		if err != nil {
			return nil, err
		}
		return res.Receipt, nil
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	reg := core.NewProofRegistry()
	data := core.Dataset{fr.NewElement(7), fr.NewElement(11)}

	a1, err := driver.MintAsset(alice, "alice", data, fr.MustRandom())
	if err != nil {
		t.Fatalf("mint before crash: %v", err)
	}
	reg.PublishAsset(a1)
	if _, err := cl.WaitConverged(ctx, 0); err != nil {
		t.Fatal(err)
	}
	preCrashHead := cl.Nodes[0].Head()
	if preCrashHead.Number == 0 {
		t.Fatal("no blocks sealed before crash")
	}

	// SIGKILL a non-driver member: drop it off the network, halt its
	// protocol loops, and abandon its durable engine mid-state (buffered
	// frames lost, in-flight checkpoints not awaited).
	const victim = 2
	victimID := cl.Nodes[victim].ID()
	restart := cl.Net.Plan().KillAndRestart(victimID)
	cl.Nodes[victim].Stop()
	durables[victim].Crash()

	// A mint submitted now stalls: with three members, leader rotation
	// reaches the dead node's slot within two blocks and production halts
	// (safety over liveness) until the victim comes back.
	mintDone := make(chan error, 1)
	var a2 *core.Asset
	go func() {
		var err error
		a2, err = driver.MintAsset(alice, "alice", core.Dataset{fr.NewElement(13)}, fr.MustRandom())
		mintDone <- err
	}()
	time.Sleep(50 * time.Millisecond)

	// Restart from the data dir alone: same member ID, fresh in-memory
	// everything, state recovered from snapshot + WAL tail.
	setup, rep, err := buildStack(victim)
	if err != nil {
		t.Fatalf("rebuild victim stack: %v", err)
	}
	if rep.Head == 0 {
		t.Fatalf("victim recovered nothing from %s: %+v", dirs[victim], rep)
	}
	if rep.Head < preCrashHead.Number {
		t.Fatalf("victim recovered to %d, pre-crash head was %d", rep.Head, preCrashHead.Number)
	}
	cfg := Config{ID: victimID, Members: MemberIDs(size), Store: setup.Store}
	tuneFast(victim, &cfg)
	reborn, err := NewNode(cfg, setup.Inner, cl.Net)
	if err != nil {
		t.Fatal(err)
	}
	cl.Nodes[victim] = reborn
	mkts[victim].Store = reborn.NetStore()
	restart()
	restart() // idempotent by contract
	if err := reborn.Start(); err != nil {
		t.Fatal(err)
	}

	// The reborn member rejoined from checkpoint height, not genesis: it
	// starts at its recovered head and syncs only the missed suffix.
	if got := reborn.Head().Number; got < rep.Head {
		t.Fatalf("reborn node started at height %d, below its recovered %d", got, rep.Head)
	}

	if err := <-mintDone; err != nil {
		t.Fatalf("mint across crash: %v", err)
	}
	reg.PublishAsset(a2)
	if _, err := cl.WaitConverged(ctx, cl.Nodes[0].Head().Number); err != nil {
		t.Fatal(err)
	}

	// Every pre-crash transaction is served by the reborn node.
	victimChain := reborn.Inner().Chain()
	for n := uint64(1); n <= preCrashHead.Number; n++ {
		b, ok := victimChain.BlockByNumber(n)
		if !ok {
			t.Fatalf("reborn node lost block %d", n)
		}
		for _, h := range b.TxHashes {
			if _, ok := victimChain.Receipt(h); !ok {
				t.Fatalf("reborn node lost receipt %s (block %d)", h, n)
			}
		}
	}

	// Identical AuditLineage output on all members, reborn included.
	for _, tok := range []uint64{a1.TokenID, a2.TokenID} {
		want, err := auditString(mkts[0], reg, tok)
		if err != nil {
			t.Fatalf("driver audit of token %d: %v", tok, err)
		}
		for i := 1; i < size; i++ {
			got, err := auditString(mkts[i], reg, tok)
			if err != nil {
				t.Fatalf("node %d audit of token %d: %v", i, tok, err)
			}
			if got != want {
				t.Fatalf("token %d: node %d audit %q != driver %q", tok, i, got, want)
			}
		}
	}
}
