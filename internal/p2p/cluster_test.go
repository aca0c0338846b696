package p2p

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/node"
	"github.com/zkdet/zkdet/internal/storage"
)

// tuneFast shrinks every interval so cluster tests settle in milliseconds.
func tuneFast(_ int, cfg *Config) {
	cfg.SealInterval = 2 * time.Millisecond
	cfg.StatusInterval = 10 * time.Millisecond
	cfg.RebroadcastInterval = 25 * time.Millisecond
	cfg.RequestTimeout = 100 * time.Millisecond
	cfg.RetryBackoff = 10 * time.Millisecond
}

// transferCluster builds a cluster whose members share a genesis funding
// one sender account per member plus a common sink.
func transferCluster(t *testing.T, size int, seed int64, link LinkProfile) (*Cluster, []chain.Address, chain.Address) {
	t.Helper()
	senders := make([]chain.Address, size)
	for i := range senders {
		senders[i] = chain.AddressFromString(fmt.Sprintf("sender-%02d", i))
	}
	sink := chain.AddressFromString("sink")
	cl, err := NewCluster(ClusterSpec{
		Size: size,
		Seed: seed,
		Link: link,
		Build: func(i int, id NodeID) (NodeSetup, error) {
			c := chain.New()
			for _, s := range senders {
				c.Faucet(s, 1_000_000)
			}
			return NodeSetup{Inner: node.New(c, node.Config{}), Store: storage.NewStore()}, nil
		},
		Tune: tuneFast,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, senders, sink
}

// waitSettled polls until every member converged on one head whose state
// credits the sink with want transfers.
func waitSettled(t *testing.T, cl *Cluster, sink chain.Address, want uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if _, _, ok := cl.Converged(); ok {
			all := true
			for _, n := range cl.Nodes {
				if n.Inner().Chain().BalanceOf(sink) != want {
					all = false
					break
				}
			}
			if all {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, n := range cl.Nodes {
		h := n.Head()
		t.Logf("node %d: height=%d head=%s sink=%d pool=%d", i, h.Number, h.Hash(),
			n.Inner().Chain().BalanceOf(sink), n.Inner().Stats().PoolSize)
	}
	t.Fatal("cluster did not settle")
}

// assertIdenticalState checks heads and state roots match across members.
func assertIdenticalState(t *testing.T, cl *Cluster) {
	t.Helper()
	h0 := cl.Nodes[0].Head()
	for i, n := range cl.Nodes[1:] {
		h := n.Head()
		if h.Hash() != h0.Hash() {
			t.Fatalf("node %d head %s != node 0 head %s", i+1, h.Hash(), h0.Hash())
		}
		if h.StateRoot != h0.StateRoot {
			t.Fatalf("node %d state root diverged", i+1)
		}
	}
}

// TestClusterConvergence drives seeded lossy clusters of 3, 5, and 7
// members and requires every member to converge on one head and state.
func TestClusterConvergence(t *testing.T) {
	for _, size := range []int{3, 5, 7} {
		size := size
		t.Run(fmt.Sprintf("%d-nodes", size), func(t *testing.T) {
			t.Parallel()
			link := LinkProfile{
				Latency:  200 * time.Microsecond,
				Jitter:   500 * time.Microsecond,
				DropRate: 0.10, // every protocol must survive 10% loss
			}
			cl, senders, sink := transferCluster(t, size, int64(1000+size), link)
			if err := cl.Start(); err != nil {
				t.Fatal(err)
			}
			defer cl.Stop()

			const perNode = 5
			for i, n := range cl.Nodes {
				for k := 0; k < perNode; k++ {
					if _, err := n.Submit(chain.Transaction{From: senders[i], To: sink, Value: 1}, true); err != nil {
						t.Fatal(err)
					}
				}
			}
			waitSettled(t, cl, sink, uint64(size*perNode), 30*time.Second)
			assertIdenticalState(t, cl)
			for i, n := range cl.Nodes {
				if got := n.Inner().Stats().PoolSize; got != 0 {
					t.Fatalf("node %d pool not drained: %d", i, got)
				}
			}
		})
	}
}

// TestSubmitAndWaitAcrossCluster submits through a follower and requires
// the inclusion wait to resolve even though another member seals the block.
func TestSubmitAndWaitAcrossCluster(t *testing.T) {
	cl, senders, sink := transferCluster(t, 3, 7, LinkProfile{Latency: 200 * time.Microsecond})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res, err := cl.Nodes[2].SubmitAndWait(ctx, chain.Transaction{From: senders[2], To: sink, Value: 3}, true)
	if err != nil {
		t.Fatalf("SubmitAndWait: %v", err)
	}
	if res.Receipt == nil || res.Receipt.Err != nil {
		t.Fatalf("receipt: %+v", res.Receipt)
	}
	if res.BlockNumber == 0 {
		t.Fatal("no block number reported")
	}
}

// TestPartitionHeal splits a 7-member cluster 3/4 under load, lets both
// sides pool traffic, heals, and requires full convergence — the issue's
// acceptance scenario.
func TestPartitionHeal(t *testing.T) {
	link := LinkProfile{Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond, DropRate: 0.05}
	cl, senders, sink := transferCluster(t, 7, 4242, link)
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	members := MemberIDs(7)
	submit := func(i int, k int) {
		t.Helper()
		for j := 0; j < k; j++ {
			if _, err := cl.Nodes[i].Submit(chain.Transaction{From: senders[i], To: sink, Value: 1}, true); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Pre-partition traffic establishes a common prefix.
	for i := 0; i < 7; i++ {
		submit(i, 2)
	}
	waitSettled(t, cl, sink, 14, 30*time.Second)

	// Partition 3 vs 4 and submit into both sides. With round-robin
	// leadership the chain stalls within a few heights (safety over
	// liveness) and both sides' pools hold the traffic.
	cl.Net.Plan().Partition(members[:3], members[3:])
	for i := 0; i < 7; i++ {
		submit(i, 2)
	}
	time.Sleep(150 * time.Millisecond)

	// Heal: rebroadcast and status ticks carry everything across, sync
	// reconciles the sides, and rotation resumes.
	cl.Net.Plan().Heal()
	waitSettled(t, cl, sink, 28, 60*time.Second)
	assertIdenticalState(t, cl)
}

// stubValidator flags transactions whose Args spell BAD — a stand-in for
// the contracts package's batch proof check in transport-level tests.
type stubValidator struct{}

func (stubValidator) GossipCheck(txs []*chain.Transaction) (int, []error) {
	errs := make([]error, len(txs))
	ok := 0
	for i, tx := range txs {
		if bytes.Equal(tx.Args, []byte("BAD")) {
			errs[i] = errors.New("stub: invalid proof")
		} else {
			ok++
		}
	}
	return ok, errs
}

// evilMember joins the membership but speaks raw messages instead of
// running the protocol.
func evilMember(t *testing.T, net *SimNet, id NodeID) {
	t.Helper()
	if err := net.Attach(id, func(NodeID, Message) {}); err != nil {
		t.Fatal(err)
	}
}

// honestNode builds and starts one protocol-following member with the stub
// validator and a tight demotion threshold.
func honestNode(t *testing.T, net *SimNet, id NodeID, members []NodeID) *Node {
	t.Helper()
	c := chain.New()
	c.Faucet(chain.AddressFromString("victim"), 1000)
	cfg := Config{ID: id, Members: members, Validator: stubValidator{}, DemoteBelow: -40}
	tuneFast(0, &cfg)
	n, err := NewNode(cfg, node.New(c, node.Config{}), net)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n
}

// TestDemotionOnInvalidTxPush: a member pushing proof-invalid transactions
// loses score until it is demoted, its payloads never enter the pool, and
// it stops receiving gossip.
func TestDemotionOnInvalidTxPush(t *testing.T) {
	members := MemberIDs(3)
	net := NewSimNet(nil, 9)
	defer net.Close()
	n0 := honestNode(t, net, members[0], members)
	honestNode(t, net, members[1], members)
	evil := members[2]
	evilMember(t, net, evil)

	victim := chain.AddressFromString("victim")
	// Two pushes of 1 invalid tx each: 2 × -25 crosses the -40 threshold.
	for i := 0; i < 2; i++ {
		net.Send(evil, members[0], Message{Kind: MsgTxPush, Txs: []chain.Transaction{
			{From: victim, Nonce: uint64(i), Args: []byte("BAD"), GasLimit: chain.DefaultGasLimit},
		}})
	}
	waitFor(t, 5*time.Second, func() bool { return n0.isDemoted(evil) })
	if got := n0.Inner().Stats().PoolSize; got != 0 {
		t.Fatalf("invalid transactions entered the pool: %d", got)
	}
	if got := n0.Stats().TxsInvalid; got != 2 {
		t.Fatalf("TxsInvalid = %d, want 2", got)
	}
	for _, target := range n0.gossipTargets("") {
		if target == evil {
			t.Fatal("demoted peer still a gossip target")
		}
	}
	// Further pushes from the demoted peer are ignored outright.
	net.Send(evil, members[0], Message{Kind: MsgTxPush, Txs: []chain.Transaction{
		{From: victim, Nonce: 9, GasLimit: chain.DefaultGasLimit},
	}})
	time.Sleep(50 * time.Millisecond)
	if got := n0.Inner().Stats().PoolSize; got != 0 {
		t.Fatalf("demoted peer's push admitted: %d", got)
	}
}

// TestDemotionOnBogusSync: a member advertising a height it backs with
// non-linking headers is demoted and never corrupts the local chain.
func TestDemotionOnBogusSync(t *testing.T) {
	members := MemberIDs(2)
	net := NewSimNet(nil, 11)
	defer net.Close()
	n0 := honestNode(t, net, members[0], members)
	evil := members[1]
	if err := net.Attach(evil, func(from NodeID, msg Message) {
		if msg.Kind != MsgGetHeaders {
			return
		}
		// Serve headers that do not link to anything.
		junk := chain.Block{Number: msg.From, Parent: chain.Hash{0xde, 0xad}}
		net.Send(evil, from, Message{Kind: MsgHeaders, ReqID: msg.ReqID, OK: true,
			Headers: []chain.Block{junk}, Height: 100})
	}); err != nil {
		t.Fatal(err)
	}
	// Advertise a fake height to trigger sync.
	net.Send(evil, members[0], Message{Kind: MsgStatus, Height: 100, Head: chain.Hash{1}})
	waitFor(t, 5*time.Second, func() bool { return n0.PeerScore(evil) <= -40 })
	if n0.Head().Number != 0 {
		t.Fatal("bogus sync advanced the chain")
	}
}

// TestNetStoreCrossNodeFetch: a blob stored on one member resolves from
// another over the transport, lands in the local cache, and honest peers
// with tampered copies are skipped.
func TestNetStoreCrossNodeFetch(t *testing.T) {
	cl, _, _ := transferCluster(t, 3, 21, LinkProfile{Latency: 100 * time.Microsecond})
	// Replicate nothing: force every read on other members to go remote.
	for i := range cl.Nodes {
		cl.Nodes[i].cfg.Replicate = 1
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	data := []byte("ciphertext-of-a-dataset")
	ns0 := cl.Nodes[0].NetStore()
	uri, err := ns0.Put("alice", data)
	if err != nil {
		t.Fatal(err)
	}

	ns2 := cl.Nodes[2].NetStore()
	got, err := ns2.Get(uri)
	if err != nil {
		t.Fatalf("cross-node fetch: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetched bytes differ")
	}
	if !ns2.local.Has(uri) {
		t.Fatal("fetched blob not cached locally")
	}
	if owner, _ := ns2.local.Owner(uri); owner != "alice" {
		t.Fatalf("cached owner %q, want alice", owner)
	}

	// Tamper node 1's replica (if any) and node 0's original: node 2 can
	// still serve from its own cache, and a fresh member's fetch falls
	// through tampered peers to the good copy on node 2.
	cl.Nodes[0].cfg.Store.(*storage.Store).Corrupt(uri)
	ns1 := cl.Nodes[1].NetStore()
	got, err = ns1.Get(uri)
	if err != nil {
		t.Fatalf("fetch around tampered copy: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetch around tampered copy returned wrong bytes")
	}

	// Unknown URIs miss cluster-wide with a typed error.
	if _, err := ns1.Get(storage.URIOf([]byte("never stored"))); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("cluster-wide miss: %v, want ErrNotFound", err)
	}

	// Removal is local: only the owner may remove, and only its own copy.
	// The owner label is public (MsgGetBlob serves it), so it cannot
	// authorize erasing another member's replica.
	if err := ns2.Remove("mallory", uri); !errors.Is(err, storage.ErrNotOwner) {
		t.Fatalf("non-owner remove: %v, want ErrNotOwner", err)
	}
	if err := ns2.Remove("alice", uri); err != nil {
		t.Fatalf("owner remove: %v", err)
	}
	if ns2.local.Has(uri) {
		t.Fatal("owner remove kept the local copy")
	}
	time.Sleep(50 * time.Millisecond) // hundreds of link latencies
	if !cl.Nodes[1].cfg.Store.Has(uri) {
		t.Fatal("member 2's remove erased member 1's replica")
	}
	got, err = ns2.Get(uri)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("member 1 no longer serves the blob: %v", err)
	}
}

// TestLeaderRotation seals enough blocks that multiple members must have
// taken the leader slot, and checks no height was sealed twice.
func TestLeaderRotation(t *testing.T) {
	cl, senders, sink := transferCluster(t, 3, 31, LinkProfile{Latency: 100 * time.Microsecond})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	// Trickle transactions so seals spread across many heights.
	for k := 0; k < 9; k++ {
		if _, err := cl.Nodes[k%3].Submit(chain.Transaction{From: senders[k%3], To: sink, Value: 1}, true); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitSettled(t, cl, sink, 9, 30*time.Second)

	sealers := 0
	var total uint64
	for _, n := range cl.Nodes {
		s := n.Stats()
		if s.BlocksSealed > 0 {
			sealers++
		}
		total += s.BlocksSealed
	}
	if sealers < 2 {
		t.Fatalf("only %d member(s) ever sealed — rotation not happening", sealers)
	}
	if total != cl.Nodes[0].Head().Number {
		t.Fatalf("%d blocks sealed across members for height %d — a height was sealed twice",
			total, cl.Nodes[0].Head().Number)
	}
}

// PeerScore returns the tracked score of a peer, for the scoring tests.
func (n *Node) PeerScore(id NodeID) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ps, ok := n.peers[id]; ok {
		return ps.score
	}
	return 0
}
