package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/indexer"
	"github.com/zkdet/zkdet/internal/node"
)

const (
	nodeSlots    = 512 // transactions in flight: one per slot
	nodeFunding  = 1 << 40
	nodePrice    = 7 // value locked by every escrow open
	nodeTransfer = 3 // value moved by every plain transfer

	settleFixtures      = 16 // distinct (statement, π_k) pairs, cycled
	settleReadBatch     = 64 // (Lineage + Exchange) pairs per sample
	settleReadsPerBlock = 2  // samples after each observed block
	mixedMaxDepth       = 8  // duplicate chains stop growing here

	// pollEvery bounds how long the generator sleeps when no result is
	// ready: results are delivered just after the block notification that
	// usually wakes it, so a notification alone can arrive too early.
	pollEvery = time.Millisecond
)

// slot is one closed-loop client of the node workloads: it has at most one
// transaction in flight and submits the next step of its cycle when the
// previous one is acknowledged.
type slot struct {
	step      int // position in the 4-step cycle
	remaining int // transactions left in the current slice
	pending   <-chan node.TxResult
	sent      interval
	sentStep  int

	// node-settle
	seller, buyer chain.Address
	fixture       *settleFixture
	token, exID   uint64

	// node-mixed
	a, b, minter chain.Address
	rng          *rand.Rand   // the slot's own stream, so its picks do not depend on completion order
	start        int          // seeded step the slot's cycle starts at
	tokens       []mixedToken // the minter's tokens
	parent       int          // index into tokens of the duplicate in flight
}

type mixedToken struct {
	id    uint64
	depth int // ancestors
}

// settleFixture is one proved key negotiation: everything an open/settle
// pair needs. Proving thousands in the window would measure the prover, so
// sixteen are proved in set-up and cycled; the node still verifies every
// settlement's π_k on chain.
type settleFixture struct {
	commitment []byte // NFT commitment field c_d ‖ c_k
	hv, ck, kc []byte
	proof      []byte
}

// finished is one completed node-settle lifecycle, kept for the reads and
// the lineage check.
type finished struct {
	token, exID   uint64
	seller, buyer chain.Address
}

// nodeWorkload drives the durable node with raw transactions from one
// generator goroutine keeping nodeSlots in flight.
type nodeWorkload struct {
	r      *runner
	e      *env
	settle bool // node-settle; otherwise node-mixed
	slots  []*slot
	blocks *node.Subscription[node.BlockNotification]
	uri    []byte
	nextEx uint64

	done   []finished   // node-settle: completed lifecycles
	minted []mixedToken // node-mixed: every token so far
}

func newNodeWorkload(r *runner, settle bool) (*nodeWorkload, error) {
	w := &nodeWorkload{r: r, settle: settle, nextEx: 1 + r.rng.Uint64N(1<<32)}
	tag := r.rng.Uint64()
	var g genesis
	g.amount = nodeFunding
	for k := 0; k < nodeSlots; k++ {
		s := &slot{}
		if settle {
			s.seller = chain.AddressFromString(fmt.Sprintf("seller-%d-%d", tag, k))
			s.buyer = chain.AddressFromString(fmt.Sprintf("buyer-%d-%d", tag, k))
			g.funded = append(g.funded, s.seller, s.buyer)
		} else {
			s.a = chain.AddressFromString(fmt.Sprintf("a-%d-%d", tag, k))
			s.b = chain.AddressFromString(fmt.Sprintf("b-%d-%d", tag, k))
			s.minter = chain.AddressFromString(fmt.Sprintf("m-%d-%d", tag, k))
			// A fourth account per slot holds value and never transacts:
			// 2048 funded accounts is the state size the serial executor's
			// per-call balance snapshot scales with.
			idle := chain.AddressFromString(fmt.Sprintf("idle-%d-%d", tag, k))
			g.funded = append(g.funded, s.a, s.b, s.minter, idle)
			// The tx-mix order is seeded: each slot starts its cycle at
			// its own step.
			s.rng = rand.New(rand.NewPCG(r.cfg.seed, uint64(k)+1))
			s.start = s.rng.IntN(4)
		}
		w.slots = append(w.slots, s)
	}
	e, err := newEnv(r, g)
	if err != nil {
		return nil, err
	}
	w.e = e
	w.blocks = e.node.Bus().SubscribeBlocks()

	// One stored blob stands for every token's ciphertext.
	blob := make([]byte, 160)
	for i := range blob {
		blob[i] = byte(r.rng.Uint64())
	}
	uri, err := e.mkt.Store.Put("benchmark", blob)
	if err != nil {
		w.close()
		return nil, err
	}
	w.uri = uri[:]

	if settle {
		fixtures := make([]*settleFixture, settleFixtures)
		for i := range fixtures {
			if fixtures[i], err = proveFixture(r, e.sys); err != nil {
				w.close()
				return nil, err
			}
			r.boundary()
		}
		for k, s := range w.slots {
			s.fixture = fixtures[k%settleFixtures]
		}
	}
	return w, nil
}

func (w *nodeWorkload) close() {
	w.e.node.Bus().UnsubscribeBlocks(w.blocks)
	w.e.close()
}

// proveFixture runs one seeded key negotiation through the real prover.
func proveFixture(r *runner, sys *core.System) (*settleFixture, error) {
	data := make(core.Dataset, exchangeEntries)
	for i := range data {
		data[i] = fr.NewElement(r.rng.Uint64N(1 << exchangeBits))
	}
	seller, err := core.NewSeller(sys, data, seededElement(r.rng), core.TruePredicate{})
	if err != nil {
		return nil, err
	}
	listing := seller.Listing(nodePrice)
	kv := seededElement(r.rng)
	hv := core.HashChallenge(kv)
	st, piK, err := seller.NegotiateKey(kv, hv)
	if err != nil {
		return nil, err
	}
	cd, ck, hvB, kc := listing.Statement.DataCommitment.Bytes(), listing.KeyCommitment.Bytes(), hv.Bytes(), st.KC.Bytes()
	return &settleFixture{
		commitment: append(cd[:], ck[:]...),
		hv:         hvB[:], ck: ck[:], kc: kc[:],
		proof: piK.Bytes(),
	}, nil
}

// next builds the slot's next transaction.
func (w *nodeWorkload) next(s *slot) chain.Transaction {
	if w.settle {
		switch s.step {
		case 0:
			return chain.Transaction{From: s.seller, Contract: contracts.DataNFTName, Method: "mint",
				Args: contracts.EncodeArgs(w.uri, s.fixture.commitment)}
		case 1:
			s.exID = w.nextEx
			w.nextEx++
			return chain.Transaction{From: s.buyer, Contract: contracts.EscrowName, Method: "open", Value: nodePrice,
				Args: contracts.EncodeArgs(contracts.U64(s.exID), s.seller[:], s.fixture.hv, s.fixture.ck)}
		case 2:
			f := s.fixture
			return chain.Transaction{From: s.seller, Contract: contracts.EscrowName, Method: "settle",
				Args: contracts.EncodeArgs(contracts.U64(s.exID), f.kc, f.proof, f.kc, f.ck, f.hv)}
		default:
			return chain.Transaction{From: s.seller, Contract: contracts.DataNFTName, Method: "transfer",
				Args: contracts.EncodeArgs(contracts.U64(s.token), s.buyer[:])}
		}
	}
	switch s.step {
	case 0:
		return chain.Transaction{From: s.a, To: s.b, Value: nodeTransfer}
	case 1:
		return chain.Transaction{From: s.minter, Contract: contracts.DataNFTName, Method: "mint",
			Args: contracts.EncodeArgs(w.uri, make([]byte, 64))}
	case 2:
		return chain.Transaction{From: s.b, To: s.a, Value: nodeTransfer}
	default:
		// Duplicate one of the minter's earlier tokens that can still grow.
		var open []int
		for i, t := range s.tokens {
			if t.depth < mixedMaxDepth {
				open = append(open, i)
			}
		}
		s.parent = open[s.rng.IntN(len(open))]
		return chain.Transaction{From: s.minter, Contract: contracts.DataNFTName, Method: "duplicate",
			Args: contracts.EncodeArgs(contracts.U64(s.tokens[s.parent].id), w.uri, make([]byte, 64))}
	}
}

// submit sends the slot's next transaction without waiting. On return the
// slot has a result pending, or was retired by a refused admission.
func (w *nodeWorkload) submit(s *slot) {
	tx := w.next(s)
	s.sent = w.r.begin(w.r.plan.opShare)
	s.sentStep = s.step
	_, ch, err := w.e.node.SubmitForResult(tx, true)
	if err != nil {
		// Admission refused: a failed op, and the slot retires for the
		// slice so the run still ends.
		w.r.logf("admission failed: %v", err)
		w.r.recordOp(w.r.since(s.sent), false)
		s.remaining = 0
		return
	}
	s.pending = ch
}

// settleResult folds one acknowledged transaction into the slot's state.
func (w *nodeWorkload) settleResult(s *slot, res node.TxResult) error {
	iv := w.r.since(s.sent)
	w.e.tr.addRoot(spanTx, iv)
	s.pending = nil
	if res.Err != nil || res.Receipt == nil || res.Receipt.Err != nil {
		w.r.logf("tx failed at step %d: %v %v", s.sentStep, res.Err, res.Receipt)
		w.r.recordOp(iv, false)
		s.remaining = 0
		return nil
	}
	w.r.recordOp(iv, true)
	w.e.gas += res.Receipt.GasUsed
	w.e.acked = append(w.e.acked, res.TxHash)
	s.remaining--

	mintsToken := (w.settle && s.sentStep == 0) || (!w.settle && (s.sentStep == 1 || s.sentStep == 3))
	var id uint64
	if mintsToken {
		var err error
		if id, err = contracts.DecU64(res.Receipt.Return); err != nil {
			return checkf("mint receipt returned no token id: %v", err)
		}
	}
	switch {
	case w.settle && s.sentStep == 0:
		s.token = id
	case w.settle && s.sentStep == 3:
		w.done = append(w.done, finished{token: s.token, exID: s.exID, seller: s.seller, buyer: s.buyer})
	case !w.settle && s.sentStep == 1:
		s.tokens = append(s.tokens, mixedToken{id: id})
		w.minted = append(w.minted, mixedToken{id: id})
	case !w.settle && s.sentStep == 3:
		t := mixedToken{id: id, depth: s.tokens[s.parent].depth + 1}
		s.tokens = append(s.tokens, t)
		w.minted = append(w.minted, t)
	}
	s.step = (s.sentStep + 1) % 4
	return nil
}

// runSlice has every slot complete perSlot(k) transactions, closed loop,
// and returns when the node is quiescent again. onBlock, when set, runs
// after every observed block.
func (w *nodeWorkload) runSlice(perSlot func(k int) int, onBlock func() error) error {
	inFlight := 0
	for k, s := range w.slots {
		s.remaining = perSlot(k)
		if s.remaining > 0 {
			if w.submit(s); s.pending != nil {
				inFlight++
			}
		}
	}
	timer := time.NewTimer(pollEvery)
	defer timer.Stop()
	deadline := time.Now().Add(submitTimeout)
	for inFlight > 0 {
		progressed := false
		for _, s := range w.slots {
			if s.pending == nil {
				continue
			}
			select {
			case res := <-s.pending:
				progressed = true
				inFlight--
				if err := w.settleResult(s, res); err != nil {
					return err
				}
				if s.remaining > 0 {
					if w.submit(s); s.pending != nil {
						inFlight++
					}
				}
			default:
			}
		}
		if progressed {
			deadline = time.Now().Add(submitTimeout)
			continue
		}
		if time.Now().After(deadline) {
			// Whatever is still in flight timed out: failed ops.
			for _, s := range w.slots {
				if s.pending != nil {
					w.r.recordOp(w.r.since(s.sent), false)
					s.pending, s.remaining = nil, 0
				}
			}
			return nil
		}
		timer.Reset(pollEvery)
		select {
		case _, ok := <-w.blocks.C:
			if ok && onBlock != nil {
				if err := onBlock(); err != nil {
					return err
				}
			}
		case <-timer.C:
		}
	}
	return w.drainBlocks(onBlock)
}

// drainBlocks consumes block notifications that are already queued.
func (w *nodeWorkload) drainBlocks(onBlock func() error) error {
	for {
		select {
		case _, ok := <-w.blocks.C:
			if !ok {
				return nil
			}
			if onBlock != nil {
				if err := onBlock(); err != nil {
					return err
				}
			}
		default:
			return nil
		}
	}
}

// warmup runs every slot through one full cycle, so that every storage slot
// a later cycle rewrites exists (gas per cycle is then the same every
// time), and — on node-settle — leaves slot k at step k mod 4, so blocks
// carry a steady mix of mints, opens, settlements and transfers.
func (w *nodeWorkload) warmup() error {
	if !w.settle {
		// Every minter mints once first, so a cycle that starts at the
		// duplicate step has a token to duplicate.
		for _, s := range w.slots {
			s.step = 1
		}
		if err := w.runSlice(func(int) int { return 1 }, nil); err != nil {
			return err
		}
		for _, s := range w.slots {
			s.step = s.start
		}
	}
	err := w.runSlice(func(k int) int {
		if w.settle {
			return 4 + k%4
		}
		return 4
	}, nil)
	if err != nil {
		return err
	}
	if w.r.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d transactions failed", w.r.failed, w.r.attempted)
	}
	return nil
}

// txsPerSlice is how many transactions each slot completes per slice: one
// whole turn of the 4-step cycle, so every slice costs the same gas. A
// slice is 2048 transactions, eight full blocks: short enough (0.1 to 1 s)
// that the host is sampled often between slices, long enough that six of
// its eight blocks are sealed with all 512 slots in flight.
const txsPerSlice = 4

// measure is one measured window: a slice of closed-loop traffic with
// one read sample beside the writes after every observed block, then — the
// node quiescent again — a host sample, taken after every slice however
// short: the slices are the only places a node workload can be sampled.
func (w *nodeWorkload) measure() error {
	r := w.r
	r.boundary()
	window := r.begin(r.plan.opShare)
	onBlock := w.mixedReads
	if w.settle {
		onBlock = w.settleReads
	}
	if err := w.runSlice(func(int) int { return txsPerSlice }, onBlock); err != nil {
		return err
	}
	r.windows = append(r.windows, r.since(window))
	r.calibrateNow()
	return nil
}

// settleReads are node-settle's reads, issued after every observed block:
// two samples, so that a run's median rests on 160 of them.
func (w *nodeWorkload) settleReads() error {
	for i := 0; i < settleReadsPerBlock; i++ {
		if err := w.settleRead(); err != nil {
			return err
		}
	}
	return nil
}

// settleRead is one read sample: a batch of Lineage+Exchange lookups on
// pseudo-random finished lifecycles, each checked against what the
// generator did.
func (w *nodeWorkload) settleRead() error {
	r, ix := w.r, w.e.ix
	if len(w.done) == 0 {
		return nil
	}
	iv := r.begin(shareSerial)
	sp := w.e.tr.begin(spanIndexRead)
	for i := 0; i < settleReadBatch; i++ {
		f := w.done[r.readRng.IntN(len(w.done))]
		lin, err := ix.Lineage(f.token)
		if err != nil {
			return checkf("lineage of finished token #%d: %v", f.token, err)
		}
		ex, err := ix.Exchange(f.exID)
		if err != nil {
			return checkf("finished exchange %d: %v", f.exID, err)
		}
		if len(lin.Tokens) != 1 || lin.Tokens[0].Owner != f.buyer || len(lin.Edges) != 0 {
			return checkf("token #%d lineage is %+v; the generator minted it and sold it to %s", f.token, lin, f.buyer)
		}
		if ex.Status != indexer.ExchangeSettled || ex.Value != nodePrice || ex.Seller != f.seller {
			return checkf("exchange %d record %+v, want settled at %d", f.exID, ex, nodePrice)
		}
	}
	w.e.tr.end(sp)
	r.recordRead(r.since(iv), true)
	return nil
}

// mixedReads is node-mixed's read sample, issued beside the writes after
// every observed block: four lineages, two paginated event ranges and two
// transaction lookups against the growing index.
func (w *nodeWorkload) mixedReads() error {
	r, ix := w.r, w.e.ix
	if len(w.minted) == 0 || len(w.e.acked) == 0 {
		return nil
	}
	iv := r.begin(shareSerial)
	ok := true
	for i := 0; i < 4; i++ {
		t := w.minted[r.readRng.IntN(len(w.minted))]
		lin, err := ix.Lineage(t.id)
		// A token acknowledged a moment ago is indexed: OnSeal hooks run
		// before the sealer acknowledges.
		if err != nil || len(lin.Tokens) != t.depth+1 {
			ok = false
		}
	}
	head := ix.Head()
	for i := 0; i < 2; i++ {
		from := r.readRng.Uint64N(head + 1)
		_, _, err := ix.Query(indexer.Filter{
			Contract: contracts.DataNFTName, Name: "Transfer",
			FromBlock: from, ToBlock: from + 16, Offset: r.readRng.IntN(64), Limit: 50,
		})
		if err != nil {
			ok = false
		}
	}
	for i := 0; i < 2; i++ {
		if _, found := ix.TxBlock(w.e.acked[r.readRng.IntN(len(w.e.acked))]); !found {
			ok = false
		}
	}
	r.recordRead(r.since(iv), ok)
	return nil
}

// finalChecks verifies, after the window, what the per-op checks cannot:
// sampled lineages equal what the generator did, and value is conserved.
func (w *nodeWorkload) finalChecks() error {
	if w.settle {
		n := len(w.r.reads)
		if err := w.settleRead(); err != nil {
			return err
		}
		w.r.reads = w.r.reads[:n] // a check, not a sample
	} else {
		for i := 0; i < 256 && len(w.minted) > 0; i++ {
			t := w.minted[w.r.readRng.IntN(len(w.minted))]
			lin, err := w.e.ix.Lineage(t.id)
			if err != nil {
				return checkf("lineage of #%d: %v", t.id, err)
			}
			if len(lin.Tokens) != t.depth+1 || len(lin.Edges) != t.depth {
				return checkf("token #%d lineage has %d tokens and %d edges; the generator built a chain of depth %d",
					t.id, len(lin.Tokens), len(lin.Edges), t.depth)
			}
		}
	}
	return w.e.checkBalances()
}

func (w *nodeWorkload) environment() *env { return w.e }
