package bench

import (
	"context"
	"fmt"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/node"
	"github.com/zkdet/zkdet/internal/p2p"
	"github.com/zkdet/zkdet/internal/storage"
)

// --- Network layer: propagation latency vs fanout, sync time vs length ---
//
// These experiments characterize the p2p subsystem rather than the paper's
// crypto: how fast a transaction floods a cluster as the gossip fanout
// grows, and how headers-first sync scales with the length of the chain a
// fresh node has to catch up on. Both run on the in-memory SimNet with a
// realistic link profile, so the numbers are deterministic shapes, not
// wire-clock claims.

// benchLink is the link profile both experiments run over: sub-millisecond
// LAN-ish latency with mild jitter and no loss (loss resilience is covered
// by the p2p package tests; here it would only add retry noise).
var benchLink = p2p.LinkProfile{
	Latency: 200 * time.Microsecond,
	Jitter:  100 * time.Microsecond,
}

// p2pLayer is the network artifact: propagation against fanout, then sync
// time against chain length.
func p2pLayer(s *Session) ([]Table, error) {
	sc := s.Scale
	grows, err := GossipPropagation(sc.GossipNodes, sc.Fanouts, sc.GossipTxs)
	if err != nil {
		return nil, err
	}
	srows, err := ChainSync(sc.SyncLengths, sc.SyncTxs)
	if err != nil {
		return nil, err
	}
	gossip := Table{
		Caption: "Gossip propagation against fanout. Low fanout leans on the periodic pooled-tx rebroadcast to finish coverage; full fanout floods in one hop. forwards/tx counts the pushes of the submission and of each member's first acceptance, min(f, N−1) + (N−1)·min(f, N−2), rebroadcasts aside.",
		Header:  []string{"fanout", "nodes", "propagation", "forwards/tx"},
	}
	for _, r := range grows {
		gossip.Rows = append(gossip.Rows, []any{r.Fanout, r.Nodes, r.Propagation, r.Messages})
	}
	sync := Table{
		Caption: "Headers-first sync of a fresh node against chain length. Throughput rises with length as the cluster's start-up and the first status round-trip amortize over more 64-header batches.",
		Header:  []string{"blocks", "txs/block", "sync time", "blocks/s"},
	}
	for _, r := range srows {
		sync.Rows = append(sync.Rows, []any{r.Blocks, r.TxsPerBlock, r.SyncTime, r.BlocksPerS})
	}
	return []Table{gossip, sync}, nil
}

// GossipRow is one point of the propagation experiment.
type GossipRow struct {
	Fanout      int
	Nodes       int
	Propagation time.Duration // mean time for one tx to reach every node
	Messages    float64       // tx forwards (p2p.txsForwarded) summed over the members, per tx
}

// gossipCluster builds a funded cluster whose members never seal, so a
// pushed transaction can only spread by gossip (first push plus pooled
// rebroadcast) and stays observable in every pool.
func gossipCluster(nodes, fanout int, sender chain.Address) (*p2p.Cluster, error) {
	return p2p.NewCluster(p2p.ClusterSpec{
		Size: nodes,
		Seed: int64(1000*nodes + fanout),
		Link: benchLink,
		Build: func(i int, id p2p.NodeID) (p2p.NodeSetup, error) {
			c := chain.New()
			c.Faucet(sender, 1_000_000)
			// An hour's interval: no sealing, so gossip is isolated.
			return p2p.NodeSetup{Inner: node.New(c, node.Config{BlockInterval: time.Hour})}, nil
		},
		Tune: func(i int, cfg *p2p.Config) {
			cfg.Fanout = fanout
			cfg.RebroadcastInterval = 10 * time.Millisecond
		},
	})
}

// GossipPropagation measures how long one transaction takes to reach every
// node, for each fanout, averaged over txs sequential submissions.
func GossipPropagation(nodes int, fanouts []int, txs int) ([]GossipRow, error) {
	sender := chain.AddressFromString("bench-gossip")
	rows := make([]GossipRow, 0, len(fanouts))
	for _, fanout := range fanouts {
		cl, err := gossipCluster(nodes, fanout, sender)
		if err != nil {
			return nil, err
		}
		if err := cl.Start(); err != nil {
			return nil, err
		}
		var total time.Duration
		for i := 0; i < txs; i++ {
			tx := chain.Transaction{From: sender, Nonce: uint64(i)}
			start := time.Now()
			if _, err := cl.Nodes[0].Submit(tx, false); err != nil {
				cl.Stop()
				return nil, err
			}
			if err := waitAllAccepted(cl, uint64(i+1)); err != nil {
				cl.Stop()
				return nil, err
			}
			total += time.Since(start)
		}
		cl.Stop()
		var forwarded float64
		for _, n := range cl.Nodes {
			forwarded += n.Metrics()["p2p.txsForwarded"]
		}
		rows = append(rows, GossipRow{
			Fanout:      fanout,
			Nodes:       nodes,
			Propagation: total / time.Duration(txs),
			Messages:    forwarded / float64(txs),
		})
	}
	return rows, nil
}

// waitAllAccepted blocks until every non-origin node has accepted `want`
// gossiped transactions.
func waitAllAccepted(cl *p2p.Cluster, want uint64) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, n := range cl.Nodes[1:] {
			if n.Metrics()["p2p.txsAccepted"] < float64(want) {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("gossip propagation stalled below %d txs", want)
}

// SyncRow is one point of the chain-sync experiment.
type SyncRow struct {
	Blocks      int
	TxsPerBlock int
	SyncTime    time.Duration
	BlocksPerS  float64
}

// ChainSync seals `length` blocks on an archive node, then starts a
// two-node cluster where the second member boots from genesis and has to
// fetch the whole chain headers-first. Reported time spans cluster start
// to head convergence.
func ChainSync(lengths []int, txsPerBlock int) ([]SyncRow, error) {
	sender := chain.AddressFromString("bench-sync")
	rows := make([]SyncRow, 0, len(lengths))
	for _, length := range lengths {
		archive, err := grownNode(sender, length, txsPerBlock)
		if err != nil {
			return nil, err
		}
		cl, err := p2p.NewCluster(p2p.ClusterSpec{
			Size: 2,
			Seed: int64(length),
			Link: benchLink,
			Build: func(i int, id p2p.NodeID) (p2p.NodeSetup, error) {
				if i == 0 {
					return p2p.NodeSetup{Inner: archive}, nil
				}
				c := chain.New()
				c.Faucet(sender, 10_000_000)
				return p2p.NodeSetup{Inner: node.New(c, node.Config{}), Store: storage.NewStore()}, nil
			},
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cl.Start(); err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_, err = cl.WaitConverged(ctx, uint64(length))
		cancel()
		elapsed := time.Since(start)
		cl.Stop()
		if err != nil {
			return nil, fmt.Errorf("sync of %d blocks: %w", length, err)
		}
		rows = append(rows, SyncRow{
			Blocks:      length,
			TxsPerBlock: txsPerBlock,
			SyncTime:    elapsed,
			BlocksPerS:  float64(length) / elapsed.Seconds(),
		})
	}
	return rows, nil
}

// grownNode seals `length` blocks of plain transfers on a fresh node.
func grownNode(sender chain.Address, length, txsPerBlock int) (*node.Node, error) {
	c := chain.New()
	c.Faucet(sender, 10_000_000)
	nonce := uint64(0)
	for b := 0; b < length; b++ {
		txs := make([]chain.Transaction, txsPerBlock)
		for t := range txs {
			txs[t] = chain.Transaction{From: sender, Nonce: nonce}
			nonce++
		}
		if res := c.ProduceBlock(txs); len(res.Block.TxHashes) != txsPerBlock {
			return nil, fmt.Errorf("block %d holds %d of %d transactions", b, len(res.Block.TxHashes), txsPerBlock)
		}
	}
	return node.New(c, node.Config{}), nil
}
