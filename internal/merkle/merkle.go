// Package merkle implements Poseidon-based Merkle trees with membership
// proofs, both natively and as a circuit gadget — one of the cryptographic
// gadgets of §IV-D used to anchor datasets and storage integrity checks.
package merkle

import (
	"errors"
	"fmt"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/poseidon"
)

// ErrProofInvalid reports a failed membership verification.
var ErrProofInvalid = errors.New("merkle: proof verification failed")

// Tree is a complete binary Merkle tree over field-element leaves, padded
// with zeros to a power of two.
type Tree struct {
	// levels[0] is the (padded) leaf layer; the last level is the root.
	levels [][]fr.Element
	nLeaf  int // original (unpadded) leaf count
}

// New builds a tree over the given leaves.
func New(leaves []fr.Element) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, errors.New("merkle: empty leaf set")
	}
	size := 1
	for size < len(leaves) {
		size <<= 1
	}
	layer := make([]fr.Element, size)
	copy(layer, leaves)
	t := &Tree{nLeaf: len(leaves)}
	t.levels = append(t.levels, layer)
	for len(layer) > 1 {
		next := make([]fr.Element, len(layer)/2)
		for i := range next {
			next[i] = poseidon.Compress(layer[2*i], layer[2*i+1])
		}
		t.levels = append(t.levels, next)
		layer = next
	}
	return t, nil
}

// Root returns the tree root.
func (t *Tree) Root() fr.Element { return t.levels[len(t.levels)-1][0] }

// Depth returns the tree depth (number of siblings in a proof).
func (t *Tree) Depth() int { return len(t.levels) - 1 }

// Proof is a Merkle membership proof: the leaf index and the sibling path
// from leaf to root.
type Proof struct {
	Index    int
	Siblings []fr.Element
}

// Prove returns the membership proof for leaf i.
func (t *Tree) Prove(i int) (Proof, error) {
	if i < 0 || i >= t.nLeaf {
		return Proof{}, fmt.Errorf("merkle: leaf index %d out of range [0, %d)", i, t.nLeaf)
	}
	p := Proof{Index: i, Siblings: make([]fr.Element, t.Depth())}
	idx := i
	for lvl := 0; lvl < t.Depth(); lvl++ {
		p.Siblings[lvl] = t.levels[lvl][idx^1]
		idx >>= 1
	}
	return p, nil
}

// Verify checks that leaf sits at p.Index under root.
func Verify(root, leaf fr.Element, p Proof) error {
	cur := leaf
	idx := p.Index
	for _, sib := range p.Siblings {
		if idx&1 == 0 {
			cur = poseidon.Compress(cur, sib)
		} else {
			cur = poseidon.Compress(sib, cur)
		}
		idx >>= 1
	}
	if !cur.Equal(&root) {
		return ErrProofInvalid
	}
	return nil
}

// GadgetVerify emits constraints checking a Merkle path inside a circuit:
// given the leaf wire, boolean path-direction wires (1 = leaf on the right)
// and sibling wires, it returns the computed root wire, which callers
// constrain against a public root.
// A path/sibling length mismatch is recorded on the builder (a malformed
// proof shape is user input, not a programmer invariant) and the leaf wire
// is returned unconstrained; Compile will fail.
func GadgetVerify(b *circuit.Builder, leaf circuit.Variable, pathBits, siblings []circuit.Variable) circuit.Variable {
	if len(pathBits) != len(siblings) {
		b.Fail("merkle: path length mismatch (%d bits, %d siblings)", len(pathBits), len(siblings))
		return leaf
	}
	cur := leaf
	for i := range siblings {
		b.AssertBoolean(pathBits[i])
		left := b.Select(pathBits[i], siblings[i], cur)
		right := b.Select(pathBits[i], cur, siblings[i])
		cur = poseidon.GadgetCompress(b, left, right)
	}
	return cur
}
