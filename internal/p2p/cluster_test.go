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

// tuneFast shrinks the gossip intervals so cluster tests settle in
// milliseconds.
func tuneFast(_ int, cfg *Config) {
	cfg.StatusInterval = 10 * time.Millisecond
	cfg.RebroadcastInterval = 25 * time.Millisecond
}

// transferCluster builds a cluster whose members share a genesis funding
// one sender account per member plus a common sink, and seal at a 2 ms
// block interval.
func transferCluster(t *testing.T, size int, seed int64, link LinkProfile) (*Cluster, []chain.Address, chain.Address) {
	t.Helper()
	senders := make([]chain.Address, size)
	for i := range senders {
		senders[i] = chain.AddressFromString(fmt.Sprintf("sender-%02d", i))
	}
	cl := fundedCluster(t, size, seed, link, senders, node.Config{BlockInterval: 2 * time.Millisecond})
	return cl, senders, chain.AddressFromString("sink")
}

// fundedCluster builds a cluster whose members fund the given accounts at
// genesis and run their inner nodes with cfg.
func fundedCluster(t *testing.T, size int, seed int64, link LinkProfile, accounts []chain.Address, cfg node.Config) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterSpec{
		Size: size,
		Seed: seed,
		Link: link,
		Build: func(int, NodeID) (NodeSetup, error) {
			c := chain.New()
			for _, a := range accounts {
				c.Faucet(a, 1_000_000)
			}
			return NodeSetup{Inner: node.New(c, cfg), Store: storage.NewStore()}, nil
		},
		Tune: tuneFast,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// waitSettled polls until every member converged on one head whose state
// credits the sink with want transfers and every member's pool is empty.
// The pool is a condition of its own: node.Node.ImportBlock publishes the
// imported state before it removes the block's transactions from the pool,
// so a member can show the sink's balance while its pool still holds them.
func waitSettled(t *testing.T, cl *Cluster, sink chain.Address, want uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if _, _, ok := cl.Converged(); ok {
			all := true
			for _, n := range cl.Nodes {
				if n.Inner().Chain().BalanceOf(sink) != want || n.Inner().Metrics()["node.poolSize"] != 0 {
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
		t.Logf("node %d: height=%d head=%s sink=%d pool=%v", i, h.Number, h.Hash(),
			n.Inner().Chain().BalanceOf(sink), n.Inner().Metrics()["node.poolSize"])
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
				if got := n.Inner().Metrics()["node.poolSize"]; got != 0 {
					t.Fatalf("node %d pool not drained: %v", i, got)
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

// stubBlockVerifier flags transactions whose Args spell BAD — a stand-in
// for the contracts package's batch proof check in transport-level tests,
// installed as the chain's block verifier like the real one.
type stubBlockVerifier struct{}

func (stubBlockVerifier) CheckBlock(txs []*chain.Transaction) (chain.ProofMarks, []error) {
	errs := make([]error, len(txs))
	for i, tx := range txs {
		if bytes.Equal(tx.Args, []byte("BAD")) {
			errs[i] = errors.New("stub: invalid proof")
		}
	}
	return chain.ProofMarks{}, errs
}

// evilMember joins the membership but speaks raw messages instead of
// running the protocol.
func evilMember(t *testing.T, net *SimNet, id NodeID) {
	t.Helper()
	if err := net.Attach(id, func(NodeID, Message) {}); err != nil {
		t.Fatal(err)
	}
}

// honestNode builds and starts one protocol-following member whose chain
// runs the stub block verifier.
func honestNode(t *testing.T, net *SimNet, id NodeID, members []NodeID) *Node {
	t.Helper()
	c := chain.New()
	c.Faucet(chain.AddressFromString("victim"), 1000)
	c.SetBlockVerifier(stubBlockVerifier{})
	cfg := Config{ID: id, Members: members}
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
	// Four pushes of 1 invalid tx each: 4 × scoreInvalidTx reaches demoteBelow.
	for i := 0; i < 4; i++ {
		net.Send(evil, members[0], Message{Kind: MsgTxPush, Txs: []chain.Transaction{
			{From: victim, Nonce: uint64(i), Args: []byte("BAD"), GasLimit: chain.DefaultGasLimit},
		}})
	}
	waitFor(t, 5*time.Second, func() bool { return n0.isDemoted(evil) })
	if got := n0.Inner().Metrics()["node.poolSize"]; got != 0 {
		t.Fatalf("invalid transactions entered the pool: %v", got)
	}
	if got := n0.Metrics()["p2p.txsInvalid"]; got != 4 {
		t.Fatalf("p2p.txsInvalid = %v, want 4", got)
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
	if got := n0.Inner().Metrics()["node.poolSize"]; got != 0 {
		t.Fatalf("demoted peer's push admitted: %v", got)
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
	waitFor(t, 5*time.Second, func() bool { return n0.isDemoted(evil) })
	if n0.Head().Number != 0 {
		t.Fatal("bogus sync advanced the chain")
	}
}

// TestNetStoreCrossNodeFetch: a blob stored on one member resolves from
// another over the transport, lands in the local cache, and peers with
// tampered copies are skipped. Four members with replicate = 2 leave one
// non-writer without a replica, and that member's reads go remote.
func TestNetStoreCrossNodeFetch(t *testing.T) {
	cl, _, _ := transferCluster(t, 4, 21, LinkProfile{Latency: 100 * time.Microsecond})
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	data := []byte("ciphertext-of-a-dataset")
	uri, err := cl.Nodes[0].NetStore().Put("alice", data)
	if err != nil {
		t.Fatal(err)
	}
	holders := func() (have []int, lack []int) {
		for i := 1; i < len(cl.Nodes); i++ {
			if holds(cl.Nodes[i].cfg.Store, uri) {
				have = append(have, i)
			} else {
				lack = append(lack, i)
			}
		}
		return have, lack
	}
	waitFor(t, 5*time.Second, func() bool { have, _ := holders(); return len(have) == replicate })
	replicas, lack := holders()
	if len(lack) != 1 {
		t.Fatalf("members without a replica: %v, want exactly one", lack)
	}
	far := cl.Nodes[lack[0]].NetStore()

	got, err := far.Get(uri)
	if err != nil {
		t.Fatalf("cross-node fetch: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetched bytes differ")
	}
	if !holds(far.local, uri) {
		t.Fatal("fetched blob not cached locally")
	}
	if owner, _ := far.local.Owner(uri); owner != "alice" {
		t.Fatalf("cached owner %q, want alice", owner)
	}

	// Removal is local: only the owner may remove, and only its own copy.
	// The owner label is public (MsgGetBlob serves it), so it cannot
	// authorize erasing another member's replica.
	if err := far.Remove("mallory", uri); !errors.Is(err, storage.ErrNotOwner) {
		t.Fatalf("non-owner remove: %v, want ErrNotOwner", err)
	}
	if err := far.Remove("alice", uri); err != nil {
		t.Fatalf("owner remove: %v", err)
	}
	if holds(far.local, uri) {
		t.Fatal("owner remove kept the local copy")
	}
	time.Sleep(50 * time.Millisecond) // hundreds of link latencies
	for _, i := range replicas {
		if !holds(cl.Nodes[i].cfg.Store, uri) {
			t.Fatalf("an owner remove on member %d erased member %d's replica", lack[0], i)
		}
	}

	// Tamper the writer's original: the next remote fetch falls through it
	// to a good replica.
	cl.Nodes[0].cfg.Store.(*storage.Store).Corrupt(uri)
	got, err = far.Get(uri)
	if err != nil {
		t.Fatalf("fetch around tampered copy: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetch around tampered copy returned wrong bytes")
	}

	// Unknown URIs miss cluster-wide with a typed error.
	if _, err := far.Get(storage.URIOf([]byte("never stored"))); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("cluster-wide miss: %v, want ErrNotFound", err)
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
		sealed := uint64(n.Inner().Metrics()["node.blocksSealed"])
		if sealed > 0 {
			sealers++
		}
		total += sealed
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

// holds reports whether a member's local store holds a blob: a store
// records an owner for exactly the blobs it holds.
func holds(s storage.LocalStore, uri storage.URI) bool {
	_, ok := s.Owner(uri)
	return ok
}
