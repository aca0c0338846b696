package main

import (
	"context"
	"fmt"
	"net"
	"net/http"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/indexer"
	"github.com/zkdet/zkdet/internal/node"
	"github.com/zkdet/zkdet/internal/snapshot"
	"github.com/zkdet/zkdet/internal/storage"
)

// srsSize is the proof system's SRS size: large enough for the π_k circuit
// the escrow verifier checks.
const srsSize = 1 << 12

// serverConfig tunes one daemon instance.
type serverConfig struct {
	node node.Config
	// dataDir, when set, makes the node durable: blocks, receipts, and blob
	// puts are write-ahead logged and periodically checkpointed there, and
	// a restart recovers from the directory instead of starting fresh.
	dataDir         string
	role            string // "archive" or "full" (durable mode only)
	checkpointEvery uint64 // snapshot cadence in blocks (durable mode only)
	// genesis, when set, finishes the deployment before anything is
	// recovered: where a deployment bakes the confidential subsystem in
	// (enabling it over RPC is devnet-only; no restart can replay that).
	genesis func(*core.Marketplace) error
}

func defaultServerConfig() serverConfig {
	return serverConfig{
		node: node.DefaultConfig(),
		role: "archive",
	}
}

// server is a running ZKDET node: the deployed marketplace, the block
// producer, the event indexer, and the HTTP JSON-RPC gateway over them.
// With a data dir configured it also carries the durable state engine and
// the report of the recovery that ran at boot.
type server struct {
	mkt      *core.Marketplace
	node     *node.Node
	ix       *indexer.Indexer
	http     *http.Server
	lis      net.Listener
	durable  *snapshot.DurableStore   // nil when running in-memory
	recovery *snapshot.RecoveryReport // nil when running in-memory
}

// newServer deploys a fresh chain + contract suite and starts the block
// producer. It does not listen yet; call listen or serve the handler
// directly (tests use httptest).
//
// Blobs live in one content-addressed store. Durable mode (a dataDir) opens
// the state engine there, logs every blob put to it, recovers whatever a
// previous process persisted — latest verified snapshot plus WAL tail — and
// only then starts sealing, so a SIGKILL'd daemon restarts where it left off.
func newServer(cfg serverConfig) (*server, error) {
	sys, err := core.NewTestSystem(srsSize)
	if err != nil {
		return nil, fmt.Errorf("proof system setup: %w", err)
	}
	srv := &server{}
	store := storage.NewStore()
	var blobs storage.BlobStore = store
	if cfg.dataDir != "" {
		role, err := snapshot.ParseRole(cfg.role)
		if err != nil {
			return nil, err
		}
		srv.durable, err = snapshot.Open(snapshot.Options{
			Dir: cfg.dataDir, Role: role, CheckpointEvery: cfg.checkpointEvery,
		})
		if err != nil {
			return nil, fmt.Errorf("opening data dir: %w", err)
		}
		blobs = srv.durable.Blobs(store)
	}
	mkt, _, err := core.NewMarketplaceWith(sys, chain.New(), blobs)
	if err == nil && cfg.genesis != nil {
		err = cfg.genesis(mkt)
	}
	if err != nil {
		return nil, fmt.Errorf("deploying marketplace: %w", err)
	}
	srv.ix = mkt.AttachIndexer() // attached at genesis, so it re-sees the blocks Recover restores
	if d := srv.durable; d != nil {
		if srv.recovery, err = d.Recover(mkt.Chain); err != nil {
			return nil, fmt.Errorf("recovering %s: %w", cfg.dataDir, err)
		}
		if err := d.Attach(mkt.Chain); err != nil {
			return nil, err
		}
	}
	// The marketplace genesis installed the chain's block verifier: the
	// producer folds every block's proofs into one pairing check at seal
	// time, and recovery above replayed them through the same fold.
	n := node.New(mkt.Chain, cfg.node)
	n.Start()
	// Marketplace-level operations (the confidential RPCs) go through the
	// mempool too: the producer owns its chain, and a block produced beside
	// it would spend nonces behind the pool's back.
	mkt.Submitter = func(tx chain.Transaction) (*chain.Receipt, error) {
		res, err := n.SubmitAndWait(context.Background(), tx, true)
		return res.Receipt, err
	}
	srv.mkt, srv.node = mkt, n
	return srv, nil
}

// handler returns the JSON-RPC gateway handler.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", newGateway(s))
	return mux
}

// listen binds the gateway to addr and serves until close.
func (s *server) listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lis = lis
	s.http = &http.Server{Handler: s.handler()}
	go func() { _ = s.http.Serve(lis) }()
	return lis.Addr().String(), nil
}

// close stops the HTTP server (if listening) and the block producer, then
// checkpoints and closes the durable engine so the next start recovers
// from a snapshot instead of replaying the whole WAL.
func (s *server) close() {
	if s.http != nil {
		_ = s.http.Close()
	}
	s.node.Stop()
	if s.durable != nil {
		if err := s.durable.Checkpoint(); err != nil {
			fmt.Println("zkdet-node: shutdown checkpoint:", err)
		}
		if err := s.durable.Close(); err != nil {
			fmt.Println("zkdet-node: closing data dir:", err)
		}
	}
}
