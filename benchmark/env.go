package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
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
	"github.com/zkdet/zkdet/internal/snapshot"
	"github.com/zkdet/zkdet/internal/storage"
)

// srsConstraints sizes the universal SRS: 2^13 gates covers every exchange
// circuit and the 2^12-row π_ct range table.
const srsConstraints = 1 << 13

// submitTimeout bounds one SubmitAndWait; a transaction that is not sealed
// by then is a failed operation.
const submitTimeout = 60 * time.Second

// genesis describes the deterministic genesis both the serving process and
// the post-crash recovery deploy: the contract suite, the optional
// confidential subsystem, and the funded accounts.
type genesis struct {
	auditor *ct.AuditorKey // nil: confidential subsystem off
	issuer  chain.Address
	funded  []chain.Address
	amount  uint64
}

// total is the native value genesis creates; balances must still sum to it
// when the run ends.
func (g genesis) total() uint64 { return uint64(len(g.funded)) * g.amount }

// env is one durable node wired exactly as cmd/zkdet-node/server.go wires
// it: snapshot.Open on a data dir (archive role, default group commit and
// checkpoint cadence), marketplace genesis over the durable blob wrapper,
// indexer attached before Recover, durable hook attached after, seal-time
// proof checker, node.DefaultConfig with ExecWorkers=0.
type env struct {
	dir     string
	gen     genesis
	sys     *core.System
	mkt     *core.Marketplace
	node    *node.Node
	ix      *indexer.Indexer
	durable *snapshot.DurableStore
	tr      *tracer
	// boundary is called before every submit and blob put: points where the
	// client is between two proofs and the node has nothing in flight. It
	// samples the host; a workload may replace it to do more there.
	boundary func()

	// Counted on every acknowledged transaction, traced or not.
	gas   uint64
	acked []chain.Hash
}

// deploy runs the genesis function on a fresh chain over the given blobs.
func (g genesis) deploy(sys *core.System, blobs storage.BlobStore) (*core.Marketplace, error) {
	mkt, _, err := core.NewMarketplaceWith(sys, chain.New(), blobs)
	if err != nil {
		return nil, fmt.Errorf("deploying marketplace: %w", err)
	}
	if g.auditor != nil {
		if _, err := mkt.EnableConfidential(g.issuer, g.auditor.PublicKey()); err != nil {
			return nil, fmt.Errorf("enabling confidential tokens: %w", err)
		}
	}
	for _, a := range g.funded {
		mkt.Chain.Faucet(a, g.amount)
	}
	return mkt, nil
}

// openDurable opens the data dir, deploys genesis, attaches the indexer and
// recovers whatever the directory holds into the fresh chain.
func openDurable(dir string, sys *core.System, g genesis) (*core.Marketplace, *indexer.Indexer, *snapshot.DurableStore, *snapshot.RecoveryReport, error) {
	d, err := snapshot.Open(snapshot.Options{Dir: dir, Role: snapshot.Archive})
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("opening data dir: %w", err)
	}
	mkt, err := g.deploy(sys, d.Blobs(storage.NewStore()))
	if err != nil {
		d.Crash()
		return nil, nil, nil, nil, err
	}
	ix := mkt.AttachIndexer() // before Recover: the indexer re-sees restored blocks
	rep, err := d.Recover(mkt.Chain)
	if err != nil {
		d.Crash()
		return nil, nil, nil, nil, fmt.Errorf("recovering %s: %w", dir, err)
	}
	return mkt, ix, d, rep, nil
}

// newEnv builds the proof system and starts a durable node on a fresh data
// directory under the run's own.
func newEnv(r *runner, g genesis) (*env, error) {
	sys, err := core.NewTestSystem(srsConstraints)
	if err != nil {
		return nil, fmt.Errorf("proof system setup: %w", err)
	}
	dir := filepath.Join(r.dir, "node")
	mkt, ix, d, _, err := openDurable(dir, sys, g)
	if err != nil {
		return nil, err
	}
	if err := d.Attach(mkt.Chain); err != nil {
		d.Crash()
		return nil, err
	}
	tr := r.tr
	e := &env{dir: dir, gen: g, sys: sys, mkt: mkt, ix: ix, durable: d, tr: tr, boundary: r.boundary}
	cfg := node.DefaultConfig()
	cfg.ExecWorkers = 0
	cfg.SealVerifier = mkt.ProofChecker()
	e.node = node.New(mkt.Chain, cfg)
	e.node.Start()
	mkt.Submitter = e.submit
	mkt.Store = &tracedStore{inner: mkt.Store, tr: tr, e: e}
	return e, nil
}

// submit is the Marketplace.Submitter: it routes a client transaction
// through the node's mempool and blocks until the block holding it is
// sealed and durable. Time inside it is node time, so a core.* span's self
// time is client-side proving and verification.
func (e *env) submit(tx chain.Transaction) (*chain.Receipt, error) {
	e.boundary()
	sp := e.tr.begin("node.commit")
	defer e.tr.end(sp)
	ctx, cancel := context.WithTimeout(context.Background(), submitTimeout)
	defer cancel()
	res, err := e.node.SubmitAndWait(ctx, tx, true)
	if err != nil {
		return nil, err
	}
	e.gas += res.Receipt.GasUsed
	e.acked = append(e.acked, res.TxHash)
	return res.Receipt, nil
}

// tracedStore wraps the deployment's blob store so storage time shows as
// its own layer in the waterfall.
type tracedStore struct {
	inner storage.BlobStore
	tr    *tracer
	e     *env
}

func (s *tracedStore) Put(owner string, data []byte) (storage.URI, error) {
	s.e.boundary()
	sp := s.tr.begin("storage.put")
	defer s.tr.end(sp)
	return s.inner.Put(owner, data)
}

func (s *tracedStore) Get(uri storage.URI) ([]byte, error) {
	sp := s.tr.begin("storage.get")
	defer s.tr.end(sp)
	return s.inner.Get(uri)
}

func (s *tracedStore) Remove(owner string, uri storage.URI) error {
	return s.inner.Remove(owner, uri)
}

// errCheck marks a correctness-check failure: the system produced a wrong
// output, which is fatal, unlike a failed operation, which is counted.
var errCheck = errors.New("correctness check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// checkBalances verifies native value is conserved: the funded accounts
// plus every contract's escrow balance still sum to what genesis created.
func (e *env) checkBalances() error {
	c := e.mkt.Chain
	var sum uint64
	for _, a := range e.gen.funded {
		sum += c.BalanceOf(a)
	}
	for _, name := range []string{contracts.DataNFTName, contracts.AuctionName, contracts.EscrowName,
		contracts.ConfidentialTokenName, core.PiKVerifierName, core.PiCTVerifierName} {
		sum += c.BalanceOf(chain.ContractAddress(name))
	}
	if sum != e.gen.total() {
		return checkf("total balance %d, genesis created %d", sum, e.gen.total())
	}
	return nil
}

// crashAndRecover kills the durable engine as SIGKILL would (unsynced
// buffers dropped, checkpoints not awaited), reopens the directory into a
// fresh genesis chain and requires the recovered node to reproduce the
// pre-crash head hash and state root with every acknowledged transaction
// present. It returns the recovered engine (the caller abandons it) and how
// long recovery took.
func (e *env) crashAndRecover(r *runner) (*snapshot.DurableStore, interval, error) {
	want := e.mkt.Chain.Head()
	if err := e.durable.Err(); err != nil {
		return nil, interval{}, checkf("durable engine failed during the run: %v", err)
	}
	e.crash()

	r.boundary()
	iv := r.begin(shareSerial) // a snapshot decode, then blocks replayed one at a time
	mkt, _, d, rep, err := openDurable(e.dir, e.sys, e.gen)
	if err != nil {
		return nil, interval{}, checkf("crash recovery: %v", err)
	}
	iv = r.since(iv)
	got := mkt.Chain.Head()
	if got.Hash() != want.Hash() {
		d.Crash()
		return nil, interval{}, checkf("recovered head %d %s, want %d %s (report %+v)", got.Number, got.Hash(), want.Number, want.Hash(), rep)
	}
	if got.StateRoot != want.StateRoot {
		d.Crash()
		return nil, interval{}, checkf("recovered state root %s, want %s", got.StateRoot, want.StateRoot)
	}
	for _, h := range e.acked {
		if _, ok := mkt.Chain.Receipt(h); !ok {
			d.Crash()
			return nil, interval{}, checkf("acknowledged tx %s missing after recovery", h)
		}
	}
	r.logf("recovered to block %d from snapshot %d + %d replayed blocks in %.0f ms",
		rep.Head, rep.SnapshotHeight, rep.BlocksReplayed, ms(iv.net()))
	return d, iv, nil
}

// crash abandons the durable engine mid-state, then stops the producer so
// its final seal finds a dead log — what a killed process leaves behind. A
// background checkpoint that was in flight is waited for (it would have
// died with the process; here it must not outlive the data dir), and its
// complaint about the dead log is not a finding.
func (e *env) crash() {
	log.SetOutput(io.Discard)
	e.durable.Crash()
	e.node.Stop()
	e.durable.Close() //nolint:errcheck // only waits for the checkpointer; the log is already dead
	log.SetOutput(os.Stderr)
}

// close stops the node if crashAndRecover has not already. Safe on every
// exit path; the data dir goes with the run's directory.
func (e *env) close() { e.crash() }

// seededElement draws a field element from the run's generator.
func seededElement(rng interface{ Uint64() uint64 }) fr.Element {
	var b [32]byte
	for i := 0; i < 4; i++ {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(v >> (8 * j))
		}
	}
	b[0] &= 0x0f // below the modulus
	e, err := fr.FromBytesCanonical(b[:])
	if err != nil {
		panic("benchmark: masked 252-bit value rejected as non-canonical: " + err.Error())
	}
	return e
}
