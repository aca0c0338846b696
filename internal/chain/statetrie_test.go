package chain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// rebuiltDigest is the oracle every commitment test compares against: the
// same trie built from scratch over a copy of the store's slots.
func rebuiltDigest(s *Storage) [32]byte {
	return newStorageFrom(cloneSlots(s.data)).digest()
}

// trieShape walks a trie, failing on a non-canonical branch, and returns
// its leaf count, node count and the depth of its deepest leaf.
func trieShape(t testing.TB, n *trieNode, depth int) (leaves, nodes, maxDepth int) {
	t.Helper()
	if n == nil {
		return 0, 0, 0
	}
	if n.kids == nil {
		return 1, 1, depth
	}
	kids, leafKids := 0, 0
	nodes = 1
	for _, k := range n.kids {
		if k == nil {
			continue
		}
		kids++
		if k.kids == nil {
			leafKids++
		}
		l, c, d := trieShape(t, k, depth+1)
		leaves += l
		nodes += c
		if d > maxDepth {
			maxDepth = d
		}
	}
	if kids == 0 || (kids == 1 && leafKids == 1) {
		t.Fatalf("non-canonical branch at depth %d: %d children, %d of them leaves", depth, kids, leafKids)
	}
	return leaves, nodes, maxDepth
}

// checkStore asserts incremental root == rebuilt root, canonical shape, and
// one leaf per slot.
func checkStore(t testing.TB, stage string, s *Storage) {
	t.Helper()
	if got, want := s.digest(), rebuiltDigest(s); got != want {
		t.Fatalf("%s: incremental root %x, rebuilt %x", stage, got[:6], want[:6])
	}
	if leaves, _, _ := trieShape(t, s.trie.root, 0); leaves != len(s.data) {
		t.Fatalf("%s: %d leaves for %d slots", stage, leaves, len(s.data))
	}
}

// runTrieOps drives one root store with an op stream decoded from raw —
// set, delete, open a mark, revert to the open mark — three bytes per op,
// checking the commitment against the rebuild after every op. The key
// universe is small (so overwrites, deletes of live keys and re-creations
// are common) and includes keys and values carrying the 0x00/0x01 bytes
// the old framing used as separators.
func runTrieOps(t testing.TB, raw []byte) {
	s := NewStorage()
	var j *journal // the open mark; nil when writes are not journaled
	for i := 0; i+2 < len(raw); i += 3 {
		key := fmt.Sprintf("k/%d", raw[i+1]%96)
		switch raw[i+1] % 7 {
		case 0:
			key += "\x00"
		case 1:
			key = "\x01" + key
		}
		view := s.metered(nil, j)
		switch raw[i] % 8 {
		case 0, 1, 2, 3:
			val := make([]byte, int(raw[i+2]%6)) // empty values are slots too
			for b := range val {
				val[b] = raw[i+2] >> uint(b%3)
			}
			if err := view.Set(key, val); err != nil {
				t.Fatal(err)
			}
		case 4, 5:
			if err := view.Delete(key); err != nil {
				t.Fatal(err)
			}
		case 6:
			j = &journal{}
		case 7:
			if j != nil {
				j.revertTo(journalMark{})
				j = nil
			}
		}
		checkStore(t, fmt.Sprintf("op %d", i/3), s)
	}
}

// FuzzStateTrieOps: any op stream leaves the incremental commitment equal
// to the from-scratch rebuild and the trie in canonical shape.
func FuzzStateTrieOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 9, 0, 2, 9, 4, 1, 0})                   // set, set, delete
	f.Add([]byte{0, 1, 9, 6, 0, 0, 0, 1, 3, 4, 1, 0, 7, 0, 0}) // overwrite+delete under a mark, reverted
	f.Add([]byte{6, 0, 0, 0, 5, 1, 0, 6, 1, 7, 0, 0})          // creations reverted to an empty store
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 3*512 {
			raw = raw[:3*512]
		}
		runTrieOps(t, raw)
	})
}

// TestStateRootInjective is the regression test for the old framing
// key‖0x00‖value‖0x01, under which these pairs of stores shared a digest.
func TestStateRootInjective(t *testing.T) {
	build := func(slots map[string]string) [32]byte {
		s := NewStorage()
		for k, v := range slots {
			if err := s.Set(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		return s.digest()
	}
	for _, tc := range []struct {
		name string
		a, b map[string]string
	}{
		{"value swallows the next slot", map[string]string{"a": "x\x01b\x00y"}, map[string]string{"a": "x", "b": "y"}},
		{"separator inside the key", map[string]string{"a\x00b": "c"}, map[string]string{"a": "b\x00c"}},
		{"key/value boundary", map[string]string{"ab": "c"}, map[string]string{"a": "bc"}},
		{"empty value vs absent", map[string]string{"a": ""}, map[string]string{}},
	} {
		if build(tc.a) == build(tc.b) {
			t.Errorf("%s: %q and %q share a root", tc.name, tc.a, tc.b)
		}
	}
}

// TestStateTrieHistoryIndependent: the root and the node count depend on
// the slot set alone — not on insertion order, not on slots that came and
// went, not on a reverted write.
func TestStateTrieHistoryIndependent(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(5))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("tok/%d", i)
	}
	val := func(k string) []byte { return []byte("v:" + k) }
	nodesOf := func(s *Storage) int {
		_, nodes, _ := trieShape(t, s.trie.root, 0)
		return nodes
	}

	a := NewStorage()
	for _, k := range keys {
		a.Set(k, val(k))
	}
	wantRoot, wantNodes := a.digest(), nodesOf(a)

	// Another permutation, folded in several digests instead of one.
	b := NewStorage()
	for i, p := range rng.Perm(n) {
		b.Set(keys[p], val(keys[p]))
		if i%700 == 0 {
			b.digest()
		}
	}
	if b.digest() != wantRoot || nodesOf(b) != wantNodes {
		t.Fatal("insertion order reached the root or the shape")
	}

	// Extra slots inserted then deleted, and values overwritten then put
	// back, must leave no trace.
	for i := 0; i < n; i++ {
		b.Set(fmt.Sprintf("tmp/%d", i), []byte("x"))
		if i%3 == 0 {
			b.Set(keys[i], []byte("other"))
		}
	}
	b.digest()
	for _, p := range rng.Perm(n) {
		b.Delete(fmt.Sprintf("tmp/%d", p))
		b.Set(keys[p], val(keys[p]))
	}
	if b.digest() != wantRoot || nodesOf(b) != wantNodes {
		t.Fatal("inserted-then-deleted slots left a trace")
	}

	// A reverted transaction too.
	j := &journal{}
	view := b.metered(nil, j)
	for i := 0; i < 200; i++ {
		view.Set(fmt.Sprintf("rev/%d", i), []byte("y"))
		view.Delete(keys[rng.Intn(n)])
	}
	b.digest()
	j.revertTo(journalMark{})
	if b.digest() != wantRoot || nodesOf(b) != wantNodes {
		t.Fatal("a reverted transaction left a trace")
	}

	// Deleting everything returns to the empty commitment.
	for _, k := range keys {
		b.Delete(k)
	}
	if b.digest() != NewStorage().digest() || b.trie.root != nil {
		t.Fatal("emptied store does not commit to the empty trie")
	}
}

// TestStateTrieSealCostIndependentOfStateSize counts work instead of
// timing it: folding 64 written slots into a store of 1k or of 100k slots
// recomputes at most 64·(depth+1) node hashes — one leaf plus one branch
// per level on each written slot's path.
func TestStateTrieSealCostIndependentOfStateSize(t *testing.T) {
	for _, size := range []int{1_000, 100_000} {
		s := NewStorage()
		for i := 0; i < size; i++ {
			s.Set(fmt.Sprintf("slot/%d", i), []byte("v"))
		}
		s.digest()
		for i := 0; i < 64; i++ {
			switch i % 3 {
			case 0:
				s.Set(fmt.Sprintf("new/%d", i), []byte("n"))
			case 1:
				s.Set(fmt.Sprintf("slot/%d", i*7), []byte("w"))
			case 2:
				s.Delete(fmt.Sprintf("slot/%d", i*11))
			}
		}
		before := s.trie.hashed
		s.digest()
		recomputed := s.trie.hashed - before
		_, _, depth := trieShape(t, s.trie.root, 0)
		if limit := uint64(64 * (depth + 1)); recomputed > limit {
			t.Errorf("%d slots: 64 writes recomputed %d node hashes, limit %d (depth %d)", size, recomputed, limit, depth)
		}
		if before2 := s.trie.hashed; s.digest() != rebuiltDigest(s) || s.trie.hashed != before2 {
			t.Errorf("%d slots: clean digest diverged from rebuild or rehashed nodes", size)
		}
	}
}

// TestStateTrieRandomOps feeds the fuzz target's op interpreter a few
// thousand seeded random ops (sets, overwrites, deletes, reverted marks).
func TestStateTrieRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	raw := make([]byte, 3*4000)
	rng.Read(raw)
	runTrieOps(t, raw)
}

// chainImage is everything a rejected import or restore must leave
// byte-for-byte untouched.
type chainImage struct {
	Accounts map[Address]account
	Slots    map[string]map[string]string
	Receipts int
	Txs      int
	Pending  int
	Height   int
}

func imageOf(c *Chain) chainImage {
	c.mu.Lock()
	defer c.mu.Unlock()
	img := chainImage{
		Accounts: make(map[Address]account),
		Slots:    make(map[string]map[string]string),
		Receipts: len(c.receipts),
		Txs:      len(c.txs),
		Pending:  len(c.pending),
		Height:   len(c.blocks),
	}
	for a, acc := range c.accounts {
		img.Accounts[a] = *acc
	}
	for name, st := range c.storages {
		m := make(map[string]string, len(st.data))
		for k, v := range st.data {
			m[k] = string(v)
		}
		img.Slots[name] = m
	}
	return img
}

func checkChainStores(t *testing.T, stage string, c *Chain) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, st := range c.storages {
		checkStore(t, stage+": "+name, st)
	}
}

// TestStateRootDigestCacheMatchesFullWalk is the seeded randomized
// differential over every path that mutates contract storage: batches with
// reverts and Go-level failures, slot deletes, a failed ImportBlock rolled
// back through the block journal, and RestoreState. After every step each
// store's incremental root must equal the from-scratch rebuild, and the
// leader, the follower, and the restored chain must agree.
func TestStateRootDigestCacheMatchesFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		leader, senders := batchFixture(t, 6)
		follower, _ := batchFixture(t, 6)
		nonces := make(map[Address]uint64)
		checkChainStores(t, "empty", leader)

		for round := 0; round < 25; round++ {
			stage := fmt.Sprintf("seed %d round %d", seed, round)
			txs := randomBatch(rng, senders, nonces, 10+rng.Intn(50))
			for i := range txs {
				if txs[i].Method == "set" && rng.Intn(3) == 0 {
					txs[i].Method = "drop"
				}
			}
			leader.SubmitBatch(txs, 0)
			checkChainStores(t, stage+" leader", leader)
			b := leader.SealBlock()
			body, _ := leader.BlockBody(b.Number)

			// The follower first sees a block that must be rejected — a
			// lying state root, or a body whose last transaction cannot
			// replay — and must come out of it byte-for-byte unchanged.
			before := imageOf(follower)
			bad, badBody, wantErr := b, body, ErrStateMismatch
			if rng.Intn(2) == 0 || len(body) == 0 {
				bad.StateRoot[rng.Intn(32)] ^= 0x40
			} else {
				stale := body[rng.Intn(len(body))] // its nonce is spent by the time it replays again
				badBody = append(append([]Transaction(nil), body...), stale)
				bad.TxHashes = append(append([]Hash(nil), b.TxHashes...), stale.hash())
				wantErr = ErrImportFailed
			}
			if _, err := follower.ImportBlock(bad, badBody); !errors.Is(err, wantErr) {
				t.Fatalf("%s: rejected block: %v, want %v", stage, err, wantErr)
			}
			if after := imageOf(follower); !reflect.DeepEqual(before, after) {
				t.Fatalf("%s: rejected import leaked state:\nbefore %+v\nafter  %+v", stage, before, after)
			}
			checkChainStores(t, stage+" follower after rollback", follower)
			if _, err := follower.ImportBlock(b, body); err != nil {
				t.Fatalf("%s: honest import: %v", stage, err)
			}
			checkChainStores(t, stage+" follower", follower)
			if follower.HeadHash() != leader.HeadHash() {
				t.Fatalf("%s: follower diverged", stage)
			}

			if round%8 == 7 {
				exp, err := follower.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				restored, _ := batchFixture(t, 0)
				if err := restored.RestoreState(exp); err != nil {
					t.Fatalf("%s: restore: %v", stage, err)
				}
				checkChainStores(t, stage+" restored", restored)
				restored.mu.Lock()
				root := restored.stateRootLocked()
				restored.mu.Unlock()
				if root != b.StateRoot {
					t.Fatalf("%s: restored root diverged", stage)
				}
			}
		}
	}
}

// TestStateRootStableWithoutMutation: sealing twice over an unchanged
// state yields the same root, and recomputes nothing.
func TestStateRootStableWithoutMutation(t *testing.T) {
	c, senders := batchFixture(t, 2)
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, 3)
	if _, err := c.Submit(Transaction{From: senders[0], Contract: "pa", Method: "set", Args: buf}); err != nil {
		t.Fatal(err)
	}
	b := c.SealBlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	hashed := c.storages["pa"].trie.hashed
	if root := c.stateRootLocked(); root != b.StateRoot {
		t.Fatal("state root changed without a mutation")
	}
	if c.storages["pa"].trie.hashed != hashed {
		t.Fatal("clean state root recomputed node hashes")
	}
}
