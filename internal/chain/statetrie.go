package chain

import (
	"crypto/sha256"
	"encoding/binary"
)

// stateTrie is the commitment to one contract's storage: a 16-ary Merkle
// radix trie over the nibbles of sha256(key), with each leaf sitting at the
// shallowest prefix that is unique to its key.
//
//	leaf   = H(0x00 ‖ uint64be(len(key)) ‖ key ‖ value)
//	branch = H(0x01 ‖ 16 child hashes), an empty child slot hashing as
//	empty  = H(0x02), which is also the root of an empty trie
//
// The leading byte separates the three domains and the key length makes the
// leaf encoding injective, so two different slot sets never share a root.
//
// Canonical shape: every branch has at least two leaves beneath it. put
// pushes a colliding leaf down until the two hashes part; del collapses a
// branch left with a single leaf child back into that leaf. The shape, and
// with it the root, is therefore a function of the key/value set alone —
// never of write order, nor of a write having been reverted — which is what
// lets replicas that reach the same state by different histories (executed,
// re-executed after a rollback, restored from a snapshot) agree on the root.
//
// Every node caches its hash; a write marks the branches on its path stale
// and rootHash recomputes only those, so folding w writes into a trie of n
// slots hashes O(w · log16 n) nodes.
type stateTrie struct {
	root *trieNode
	// hashed counts node hashes computed (leaves and branches) since the
	// trie was created; the scaling test reads its deltas.
	hashed uint64
}

// trieNode is a leaf (kids == nil) or a branch.
type trieNode struct {
	hash  [32]byte       // leaf: the leaf hash; branch: valid unless stale
	kh    [32]byte       // leaf: sha256(key), whose nibbles are the path
	kids  *[16]*trieNode // branch: children by next nibble
	stale bool           // branch: a descendant changed since hash was computed
}

var emptyTrieHash = sha256.Sum256([]byte{0x02})

// leafHash is the injective, domain-separated slot encoding.
func leafHash(key string, value []byte) [32]byte {
	var stack [256]byte
	buf := append(stack[:0], 0x00)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = append(buf, value...)
	return sha256.Sum256(buf)
}

func nibble(kh *[32]byte, depth int) byte {
	b := kh[depth/2]
	if depth%2 == 0 {
		return b >> 4
	}
	return b & 0x0f
}

// keyHash is the trie path of a slot key.
func keyHash(key string) [32]byte {
	var stack [128]byte
	return sha256.Sum256(append(stack[:0], key...))
}

// put sets the leaf for key.
func (t *stateTrie) put(key string, value []byte) {
	kh := keyHash(key)
	leaf := leafHash(key, value)
	t.hashed++
	t.root = trieInsert(t.root, &kh, &leaf, 0)
}

// del removes the leaf for key, if present.
func (t *stateTrie) del(key string) {
	kh := keyHash(key)
	t.root = trieDelete(t.root, &kh, 0)
}

// trieInsert returns n with the leaf (kh, leaf) set beneath it; depth is the
// number of nibbles consumed on the way to n. Two distinct key hashes part
// within 64 nibbles, which bounds the push-down recursion.
func trieInsert(n *trieNode, kh, leaf *[32]byte, depth int) *trieNode {
	if n == nil {
		return &trieNode{kh: *kh, hash: *leaf}
	}
	if n.kids == nil {
		if n.kh == *kh {
			n.hash = *leaf
			return n
		}
		// The prefix is no longer unique: push the resident leaf one level
		// down and insert beside it (recursing again if they still collide).
		b := &trieNode{kids: new([16]*trieNode)}
		b.kids[nibble(&n.kh, depth)] = n
		n = b
	}
	n.stale = true
	i := nibble(kh, depth)
	n.kids[i] = trieInsert(n.kids[i], kh, leaf, depth+1)
	return n
}

// trieDelete returns n without the leaf kh, restoring the canonical shape
// on the way back up.
func trieDelete(n *trieNode, kh *[32]byte, depth int) *trieNode {
	if n == nil {
		return nil
	}
	if n.kids == nil {
		if n.kh == *kh {
			return nil
		}
		return n
	}
	n.stale = true
	i := nibble(kh, depth)
	n.kids[i] = trieDelete(n.kids[i], kh, depth+1)
	var only *trieNode
	count := 0
	for _, k := range n.kids {
		if k != nil {
			only = k
			count++
		}
	}
	if count == 1 && only.kids == nil {
		return only // its prefix is unique one level up now
	}
	return n
}

// rootHash returns the commitment, recomputing the stale branches.
func (t *stateTrie) rootHash() [32]byte {
	if t.root == nil {
		return emptyTrieHash
	}
	return *t.nodeHash(t.root)
}

func (t *stateTrie) nodeHash(n *trieNode) *[32]byte {
	if n.stale {
		var buf [1 + 16*32]byte
		buf[0] = 0x01
		for i, k := range n.kids {
			h := &emptyTrieHash
			if k != nil {
				h = t.nodeHash(k)
			}
			copy(buf[1+32*i:], h[:])
		}
		n.hash = sha256.Sum256(buf[:])
		n.stale = false
		t.hashed++
	}
	return &n.hash
}
