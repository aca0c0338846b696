// Command zkdet-cluster runs the multi-node demo: N replicas of the full
// ZKDET deployment (chain + contract suite + blob store) connected by the
// simulated p2p transport, with faults injected mid-run.
//
// The script exercises the whole networking subsystem:
//
//  1. mint and transform data assets through one node — transactions
//     gossip to the rotation leader, which seals at a lone node's block
//     interval, and blocks replicate back by sync;
//
//  2. degrade every link (latency, jitter, drops) and keep going;
//
//  3. partition the cluster 3|4 while a mint is in flight — block
//     production stalls (rotation trades liveness for fork-freedom) and
//     the mint completes only after the heal;
//
//  4. sell an asset through the on-chain escrow, whose settle transaction
//     carries a π_k that every hop batch-verifies before re-gossip — then
//     sell another against a confidential note: the price rides as a
//     Pedersen commitment, screened by the same gossip proof checker, and
//     only the designated auditor's key can open it afterwards;
//
//  5. with -data-dir, SIGKILL one member mid-run — its process state is
//     abandoned (no shutdown path), the node is rebuilt from its data
//     directory alone (snapshot + WAL tail), and it rejoins the cluster
//     from checkpoint height via headers-first sync;
//
//  6. audit every minted token's lineage on every node — same head, same
//     state root, same AuditLineage report, with ciphertexts resolved
//     cross-node through the transport-backed blob store (with -role full,
//     the restarted member has pruned the records and is skipped).
//
//     zkdet-cluster [-nodes 7] [-seed 7] [-drop 0.1] [-latency 500µs]
//     [-data-dir /var/lib/zkdet] [-role archive] [-checkpoint-every 8]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/indexer"
	"github.com/zkdet/zkdet/internal/node"
	"github.com/zkdet/zkdet/internal/p2p"
	"github.com/zkdet/zkdet/internal/snapshot"
	"github.com/zkdet/zkdet/internal/storage"
)

type clusterConfig struct {
	size            int
	seed            int64
	drop            float64
	latency         time.Duration
	timeout         time.Duration
	dataDir         string // "" = in-memory cluster, no crash phase
	role            string
	checkpointEvery uint64
}

func main() {
	var cfg clusterConfig
	flag.IntVar(&cfg.size, "nodes", 7, "cluster size")
	flag.Int64Var(&cfg.seed, "seed", 7, "transport randomness seed")
	flag.Float64Var(&cfg.drop, "drop", 0.10, "per-message drop rate after degradation")
	flag.DurationVar(&cfg.latency, "latency", 500*time.Microsecond, "base link latency after degradation")
	flag.DurationVar(&cfg.timeout, "timeout", 5*time.Minute, "overall demo deadline")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "persist each member under <dir>/node-<i> and run the crash-recovery phase")
	flag.StringVar(&cfg.role, "role", "archive", "durable node role: archive|full")
	flag.Uint64Var(&cfg.checkpointEvery, "checkpoint-every", 8, "blocks between snapshot checkpoints (durable mode)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "zkdet-cluster:", err)
		os.Exit(1)
	}
}

func run(cfg clusterConfig) error {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()

	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")
	issuer := chain.AddressFromString("issuer")
	// The designated auditor: every member bakes the same public key into
	// its genesis; only the secret below can open committed amounts.
	auditor := ct.AuditorKeyFromSecret(fr.NewElement(0xc1a57e2))
	auditorPub := auditor.PublicKey()

	fmt.Printf("== zkdet-cluster: %d nodes, seed %d ==\n", cfg.size, cfg.seed)
	fmt.Println("-- building shared proving system and per-node deployments")
	sys, err := core.NewTestSystem(1 << 13)
	if err != nil {
		return err
	}
	role, err := snapshot.ParseRole(cfg.role)
	if err != nil {
		return err
	}

	// Every member deploys the identical contract suite (same verifying
	// key, same order) onto its own chain, so all replicas share a genesis
	// state root and replayed blocks hash identically.
	size := cfg.size
	mkts := make([]*core.Marketplace, size)
	durables := make([]*snapshot.DurableStore, size)
	defer func() {
		for _, d := range durables {
			if d != nil {
				d.Close()
			}
		}
	}()

	// buildMember assembles member i's full deployment. In durable mode the
	// same function serves the initial build AND the post-crash restart:
	// open the engine on <data-dir>/node-<i>, recover whatever the
	// directory holds, then attach the durability hook.
	buildMember := func(i int) (p2p.NodeSetup, *snapshot.RecoveryReport, error) {
		var (
			bs  storage.LocalStore = storage.NewStore()
			rep *snapshot.RecoveryReport
			d   *snapshot.DurableStore
		)
		if cfg.dataDir != "" {
			opts := snapshot.Options{
				Dir:             filepath.Join(cfg.dataDir, fmt.Sprintf("node-%d", i)),
				Role:            role,
				CheckpointEvery: cfg.checkpointEvery,
			}
			eng, err := snapshot.Open(opts)
			if err != nil {
				return p2p.NodeSetup{}, nil, err
			}
			d = eng
			bs = d.Blobs(storage.NewStore())
		}
		c := chain.New()
		c.Faucet(alice, 1_000_000)
		c.Faucet(bob, 1_000_000)
		c.Faucet(issuer, 1_000_000)
		m, _, err := core.NewMarketplaceWith(sys, c, bs)
		if err != nil {
			return p2p.NodeSetup{}, nil, err
		}
		// Part of genesis like the rest of the suite: identical issuer and
		// auditor key on every member, so replicas stay bit-identical.
		if _, err := m.EnableConfidential(issuer, auditorPub); err != nil {
			return p2p.NodeSetup{}, nil, err
		}
		// The marketplace's indexer is attached at genesis, so it re-sees the
		// blocks Recover restores.
		if d != nil {
			if rep, err = d.Recover(c); err != nil {
				return p2p.NodeSetup{}, nil, err
			}
			if err := d.Attach(c); err != nil {
				return p2p.NodeSetup{}, nil, err
			}
		}
		if old := durables[i]; old != nil {
			old.Close()
		}
		durables[i] = d
		mkts[i] = m
		return p2p.NodeSetup{Inner: node.New(c, node.Config{}), Store: bs}, rep, nil
	}
	tune := func(i int, nc *p2p.Config) {
		nc.StatusInterval = 25 * time.Millisecond
		nc.RebroadcastInterval = 50 * time.Millisecond
	}

	cl, err := p2p.NewCluster(p2p.ClusterSpec{
		Size: size,
		Seed: cfg.seed,
		Link: p2p.LinkProfile{Latency: 100 * time.Microsecond}, // pristine at first
		Build: func(i int, id p2p.NodeID) (p2p.NodeSetup, error) {
			setup, rep, err := buildMember(i)
			if err == nil && rep != nil && rep.Head > 0 {
				fmt.Printf("   node %d: recovered height %d from %s\n", i, rep.Head, cfg.dataDir)
			}
			return setup, err
		},
		Tune: tune,
	})
	if err != nil {
		return err
	}
	// Swap each marketplace's store for the cluster-wide one: URIs minted
	// anywhere now resolve everywhere over the transport.
	for i, m := range mkts {
		m.Store = cl.Nodes[i].NetStore()
	}
	// The driver talks to node 0; its transactions are admitted there,
	// gossiped to the rotation leader, and the wait resolves when the
	// sealed block comes back through sync.
	driver := mkts[0]
	driver.Submitter = func(tx chain.Transaction) (*chain.Receipt, error) {
		res, err := cl.Nodes[0].SubmitAndWait(ctx, tx, true)
		if err != nil {
			return nil, err
		}
		return res.Receipt, nil
	}
	if err := cl.Start(); err != nil {
		return err
	}
	defer cl.Stop()

	reg := core.NewProofRegistry()
	data := func(base uint64) core.Dataset {
		d := make(core.Dataset, 2)
		for i := range d {
			d[i] = fr.NewElement(base + uint64(i))
		}
		return d
	}

	fmt.Println("-- phase 1: mint two assets over a pristine network")
	a1, err := driver.MintAsset(alice, "alice", data(100), fr.MustRandom())
	if err != nil {
		return fmt.Errorf("mint a1: %w", err)
	}
	reg.PublishAsset(a1)
	a2, err := driver.MintAsset(alice, "alice", data(200), fr.MustRandom())
	if err != nil {
		return fmt.Errorf("mint a2: %w", err)
	}
	reg.PublishAsset(a2)
	fmt.Printf("   minted tokens #%d and #%d\n", a1.TokenID, a2.TokenID)

	fmt.Printf("-- phase 2: degrade every link (latency %v, jitter, %.0f%% drop) and transform\n",
		cfg.latency, cfg.drop*100)
	cl.Net.Plan().SetDefault(p2p.LinkProfile{
		Latency:  cfg.latency,
		Jitter:   cfg.latency,
		DropRate: cfg.drop,
	})
	agg, err := driver.Aggregate(alice, "alice", []*core.Asset{a1, a2})
	if err != nil {
		return fmt.Errorf("aggregate: %w", err)
	}
	reg.PublishTransform(agg, nil)
	fmt.Printf("   aggregated into token #%d despite losses\n", agg.Assets[0].TokenID)

	fmt.Println("-- phase 3: partition 3|4 with a mint in flight")
	members := p2p.MemberIDs(size)
	split := size / 2
	if split > 3 {
		split = 3
	}
	cl.Net.Plan().Partition(members[:split], members[split:])

	mintDone := make(chan error, 1)
	var a3 *core.Asset
	go func() {
		var err error
		a3, err = driver.MintAsset(alice, "alice", data(300), fr.MustRandom())
		mintDone <- err
	}()

	time.Sleep(1500 * time.Millisecond)
	printHeights(cl, "   heights during partition (production stalls — safety over liveness):")
	select {
	case err := <-mintDone:
		// Legal if the stall happened after this mint's block; the proofs
		// dominate latency, so usually the partition catches it.
		if err != nil {
			return fmt.Errorf("mint during partition: %w", err)
		}
		fmt.Println("   (mint squeezed in before the rotation stalled)")
	default:
		fmt.Println("   mint is blocked waiting for the partition to heal ...")
	}

	fmt.Println("-- phase 4: heal; sync reconciles, rotation resumes")
	cl.Net.Plan().Heal()
	if err := <-mintDone; err != nil {
		return fmt.Errorf("mint across heal: %w", err)
	}
	reg.PublishAsset(a3)
	fmt.Printf("   mint completed after heal: token #%d\n", a3.TokenID)

	fmt.Println("-- phase 5: escrow sale (settle carries π_k through every gossip hop)")
	bought, err := driver.SellViaEscrow(1, alice, bob, a3, core.TruePredicate{}, 500)
	if err != nil {
		return fmt.Errorf("escrow sale: %w", err)
	}
	if len(bought) != len(a3.Data) || !bought[0].Equal(&a3.Data[0]) {
		return fmt.Errorf("escrow sale delivered wrong plaintext")
	}
	fmt.Printf("   bob bought token #%d and decrypted %d elements\n", a3.TokenID, len(bought))

	fmt.Println("-- phase 5b: confidential sale (Pedersen-committed price, auditable by key)")
	payNotes, err := driver.ConfidentialMint([]core.ConfPayment{{Value: 7500, To: bob}})
	if err != nil {
		return fmt.Errorf("confidential mint: %w", err)
	}
	boughtConf, err := driver.SellConfidential(2, alice, bob, a1, core.RangePredicate{Bits: 16}, payNotes[0])
	if err != nil {
		return fmt.Errorf("confidential sale: %w", err)
	}
	if len(boughtConf) != len(a1.Data) || !boughtConf[0].Equal(&a1.Data[0]) {
		return fmt.Errorf("confidential sale delivered wrong plaintext")
	}
	note, err := contracts.ReadCTNote(driver.Chain, contracts.ConfidentialTokenName, payNotes[0].ID)
	if err != nil {
		return err
	}
	dig := note.Comm.Digest()
	fmt.Printf("   bob paid with note #%d — on-chain only the commitment %x… is visible\n",
		payNotes[0].ID, dig[:6])

	if cfg.dataDir != "" {
		if err := crashPhase(ctx, cl, cfg, buildMember, tune, durables, mkts); err != nil {
			return err
		}
	}

	fmt.Println("-- final phase: cluster-wide convergence and lineage audit")
	head, err := cl.WaitConverged(ctx, 0)
	if err != nil {
		return err
	}
	h0 := cl.Nodes[0].Head()
	fmt.Printf("   converged: height %d, head %s\n", h0.Number, head)
	for i, n := range cl.Nodes {
		h := n.Head()
		if h.Hash() != head || h.StateRoot != h0.StateRoot {
			return fmt.Errorf("node %d diverged: head %s root %s", i, h.Hash(), h.StateRoot)
		}
	}
	fmt.Println("   state roots identical on every node")

	// A full-role member restarted past a checkpoint pruned the receipts that
	// carry token records (DESIGN.md §12): it refuses them by type, and the
	// audits run on the members that hold them.
	pruned := func(i int, err error) bool {
		return role == snapshot.Full && cfg.dataDir != "" && i == size-1 && errors.Is(err, indexer.ErrUnknownToken)
	}
	tokens := []uint64{a1.TokenID, a2.TokenID, agg.Assets[0].TokenID, a3.TokenID}
	for _, id := range tokens {
		want := ""
		for i, m := range mkts {
			rep, err := m.AuditLineage(reg, id)
			if pruned(i, err) {
				fmt.Printf("   node %d (full role, restarted) no longer holds token #%d's record\n", i, id)
				continue
			}
			if err != nil {
				return fmt.Errorf("node %d audit of token #%d: %w", i, id, err)
			}
			got := fmt.Sprintf("%v/e%d/t%d", rep.Tokens, rep.EncryptionProofs, rep.TransformProofs)
			if i == 0 {
				want = got
			} else if got != want {
				return fmt.Errorf("token #%d: node %d audit %s != node 0 audit %s", id, i, got, want)
			}
		}
		fmt.Printf("   token #%d: identical AuditLineage on every node that holds its record\n", id)
	}

	// Auditor-mode audit on every node: the designated key opens the
	// confidential payment behind exchange #2 — same opened amount on every
	// replica, while plain audits (above) never saw a value.
	for i, m := range mkts {
		rep, err := m.AuditLineage(reg, a1.TokenID, core.WithAuditorKey(auditor))
		if pruned(i, err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("node %d auditor-mode audit: %w", i, err)
		}
		if len(rep.ConfidentialPayments) != 1 || rep.ConfidentialPayments[0].Value != 7500 {
			return fmt.Errorf("node %d auditor opening mismatch: %+v", i, rep.ConfidentialPayments)
		}
	}
	fmt.Println("   auditor key opens the hidden price (7500) identically on every node that holds the record")

	printHeights(cl, "-- final state:")
	m := cl.Net.Metrics()
	fmt.Printf("-- transport: %.0f sent, %.0f delivered, %.0f dropped (%.1f%%), %.1f MiB offered\n", m["simnet.sent"],
		m["simnet.delivered"], m["simnet.dropped"], 100*m["simnet.dropped"]/m["simnet.sent"], m["simnet.bytes"]/(1<<20))
	fmt.Println("== ok ==")
	return nil
}

// crashPhase SIGKILLs the highest-index member (never the driver): the node
// drops off the network and its durable engine is abandoned mid-state — no
// checkpoint, no WAL flush beyond what was already acknowledged. The member
// is then rebuilt from its data directory alone and rejoins the cluster
// from checkpoint height via headers-first sync.
func crashPhase(
	ctx context.Context,
	cl *p2p.Cluster,
	cfg clusterConfig,
	buildMember func(int) (p2p.NodeSetup, *snapshot.RecoveryReport, error),
	tune func(int, *p2p.Config),
	durables []*snapshot.DurableStore,
	mkts []*core.Marketplace,
) error {
	victim := cfg.size - 1
	victimID := cl.Nodes[victim].ID()
	fmt.Printf("-- phase 6: SIGKILL node %d (no shutdown path) and restart from %s\n",
		victim, filepath.Join(cfg.dataDir, fmt.Sprintf("node-%d", victim)))

	preCrash := cl.Nodes[0].Head().Number
	restart := cl.Net.Plan().KillAndRestart(victimID)
	cl.Nodes[victim].Stop()
	durables[victim].Crash()
	fmt.Printf("   node %d killed at cluster height %d\n", victim, preCrash)

	start := time.Now()
	setup, rep, err := buildMember(victim)
	if err != nil {
		return fmt.Errorf("rebuild node %d from data dir: %w", victim, err)
	}
	if rep == nil || rep.Head == 0 {
		return fmt.Errorf("node %d recovered nothing from its data dir", victim)
	}
	fmt.Printf("   recovered in %v: snapshot height %d, %d blocks + %d blobs replayed from WAL, head %d\n",
		time.Since(start).Round(time.Millisecond),
		rep.SnapshotHeight, rep.BlocksReplayed, rep.BlobsReplayed, rep.Head)

	nc := p2p.Config{ID: victimID, Members: p2p.MemberIDs(cfg.size), Store: setup.Store}
	tune(victim, &nc)
	reborn, err := p2p.NewNode(nc, setup.Inner, cl.Net)
	if err != nil {
		return err
	}
	cl.Nodes[victim] = reborn
	mkts[victim].Store = reborn.NetStore()
	restart()
	if err := reborn.Start(); err != nil {
		return err
	}
	if got := reborn.Head().Number; got < rep.Head {
		return fmt.Errorf("reborn node started at height %d, below its recovered %d", got, rep.Head)
	}
	fmt.Printf("   node %d rejoined from height %d (not genesis); syncing the missed suffix\n",
		victim, reborn.Head().Number)
	if _, err := cl.WaitConverged(ctx, preCrash); err != nil {
		return fmt.Errorf("cluster did not reconverge after restart: %w", err)
	}
	return nil
}

func printHeights(cl *p2p.Cluster, label string) {
	fmt.Println(label)
	for i, n := range cl.Nodes {
		m, nm := n.Metrics(), n.Inner().Metrics()
		fmt.Printf("   node %d: height %-3d sealed %-2.0f imported %-3.0f pool %-2.0f gossip-in %.0f\n",
			i, n.Head().Number, nm["node.blocksSealed"], nm["node.blocksImported"], nm["node.poolSize"], m["p2p.txsAccepted"])
	}
}
