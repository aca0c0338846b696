package bn254

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/big"
	"math/rand"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// fixedBaseEdgeScalars are the scalars a signed recoding at width c can get
// wrong: 0, 1, r − 1 (whose top window takes a carry), each side of a
// window boundary and of the digit-sign boundary 2^(c-1) in a low, a middle
// and the top window, and runs of 1 bits that carry window after window.
func fixedBaseEdgeScalars(c int) []fr.Element {
	out := msmEdgeScalars(c)
	one := big.NewInt(1)
	top := msmWindows(scalarBits, c) - 1
	for _, w := range []int{1, 7, top} {
		shift := uint(c * w)
		edge := new(big.Int).Lsh(one, shift)
		sign := new(big.Int).Lsh(one, shift+uint(c-1))
		ones := new(big.Int).Sub(edge, one) // every digit below w at its carry
		for _, v := range []*big.Int{edge, ones, sign, new(big.Int).Sub(sign, one), new(big.Int).Add(sign, ones)} {
			out = append(out, fr.FromBig(v))
		}
	}
	return out
}

// fixedBaseNaive is the reference: one G1ScalarMul per scalar.
func fixedBaseNaive(base *G1Affine, scalars []fr.Element) []G1Affine {
	out := make([]G1Affine, len(scalars))
	for i := range scalars {
		out[i] = G1ScalarMul(base, &scalars[i])
	}
	return out
}

// TestFixedBaseMulMatchesScalarMul checks the kernel against G1ScalarMul on
// random and edge scalars, each edge scalar also repeated, in more than one
// batch, at fixedBaseWidth and at widths whose top window sits lower or
// higher in the last word.
func TestFixedBaseMulMatchesScalarMul(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	base := msmTestPoints(3)[2]
	n := fixedBaseBatch + 77
	if testing.Short() {
		n = 300
	}
	for _, c := range []int{fixedBaseWidth, 8, 13} {
		edges := fixedBaseEdgeScalars(c)
		scalars := msmTestScalars(rng, n)
		for i, e := range edges {
			scalars[3*i], scalars[3*i+1] = e, e
			scalars[n-1-i] = e // in the last, shorter batch too
		}
		want := fixedBaseNaive(&base, scalars)
		got := fixedBaseMul(&base, scalars, c)
		for i := range want {
			if !got[i].Equal(&want[i]) {
				t.Fatalf("c=%d: scalar %d (%s): fixed-base product differs from G1ScalarMul", c, i, scalars[i].String())
			}
		}
	}
}

// limbsOf returns v, below 2^256 but not necessarily below r, as the
// little-endian limbs recodeSigned takes.
func limbsOf(v *big.Int) [4]uint64 {
	var be [32]byte
	v.FillBytes(be[:])
	var l [4]uint64
	for j := range l {
		l[j] = binary.BigEndian.Uint64(be[24-8*j:])
	}
	return l
}

// TestFixedBaseAdditionBranches drives one batch onto the branches a
// canonical scalar never reaches at fixedBaseWidth: digits that sum to r
// (the top window's entry meets the negated partial sum, and the addition
// cancels to infinity) and digits of 2^255 − r (the entry meets the
// partial sum itself, and the addition is a doubling), beside ordinary
// columns. 2^255 − r is 2q − r for the top window's entry q = 2^254; at
// another width, q is the multiple of the top window's weight nearest r.
// The test first checks that each crafted column really meets its branch,
// then that every column's sum is right.
func TestFixedBaseAdditionBranches(t *testing.T) {
	base := G1Generator()
	r := fr.Modulus()
	for _, c := range []int{fixedBaseWidth, 8} {
		tab := newFixedBaseTable(&base, c)
		shift := uint(c * (tab.windows - 1))
		q := new(big.Int).Rsh(new(big.Int).Add(r, new(big.Int).Lsh(big.NewInt(1), shift-1)), shift)
		twice := new(big.Int).Sub(new(big.Int).Lsh(q, shift+1), r)
		values := []*big.Int{r, twice, big.NewInt(5), r, new(big.Int).Sub(r, big.NewInt(1)), twice}
		branch := []int{-1, +1, 0, -1, 0, +1} // cancellation, doubling, neither
		m := len(values)
		var s fixedBaseScratch
		s.digits = make([]int16, tab.windows*m)
		for i, v := range values {
			l := limbsOf(v)
			recodeSigned(&l, c, s.digits[i:], m)
		}

		// The sums below the top window, and the top window's entries.
		var low fixedBaseScratch
		low.digits = append([]int16(nil), s.digits...)
		top := tab.windows - 1
		topRow := append([]int16(nil), s.digits[top*m:]...)
		clear(low.digits[top*m:])
		partial := make([]G1Affine, m)
		tab.addWindows(partial, &low)
		half := 1 << (c - 1)
		for i, want := range branch {
			if want == 0 {
				continue
			}
			if topRow[i] == 0 {
				t.Fatalf("c=%d: column %d has no top digit", c, i)
			}
			q := signedEntry(tab.pts[top*half:], topRow[i])
			if want < 0 {
				q.Neg(&q)
			}
			if !partial[i].Equal(&q) {
				t.Fatalf("c=%d: column %d does not meet the %s branch", c, i, map[int]string{-1: "cancellation", 1: "doubling"}[want])
			}
		}

		got := make([]G1Affine, m)
		tab.addWindows(got, &s)
		for i, v := range values {
			e := fr.FromBig(v) // v mod r
			want := G1ScalarMul(&base, &e)
			if !got[i].Equal(&want) {
				t.Fatalf("c=%d: column %d (%s): sum differs from G1ScalarMul", c, i, v)
			}
		}
	}
}

// TestFixedBaseScratchCleared checks that the kernel leaves no digit of a
// scalar behind: after mulRange over several batches, the last one short,
// the whole digit scratch reads zero.
func TestFixedBaseScratchCleared(t *testing.T) {
	base := G1Generator()
	tab := newFixedBaseTable(&base, fixedBaseWidth)
	tau := fr.NewElement(0x5eed2025)
	scalars := fr.Powers(&tau, 2*fixedBaseBatch+5)
	out := make([]G1Affine, len(scalars))
	var s fixedBaseScratch
	tab.mulRange(out, scalars, &s)
	if cap(s.digits) < tab.windows*fixedBaseBatch {
		t.Fatalf("digit scratch holds %d digits, want at least a batch's %d", cap(s.digits), tab.windows*fixedBaseBatch)
	}
	for i, d := range s.digits[:cap(s.digits)] {
		if d != 0 {
			t.Fatalf("digit %d of the scratch is %d after mulRange, want 0", i, d)
		}
	}
	if want := G1ScalarMul(&base, &scalars[len(scalars)-1]); !out[len(out)-1].Equal(&want) {
		t.Fatal("last product differs from G1ScalarMul")
	}
}

// fixedBaseSRSDigest is SHA-256 over the 64-byte encodings of
// [τ^i]G for i < 32 784 and τ = 0x5eed2025, as the Jacobian fixed-base
// table this kernel replaced computed them.
const fixedBaseSRSDigest = "9064a871733a36a7745b4f8579b3db4521c5f4c6761051b618e2c8535d76de56"

// TestFixedBaseSRSPowersPinned pins the powers of a benchmark-sized SRS
// byte for byte, on every architecture the suite runs on.
func TestFixedBaseSRSPowersPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("32 784 powers")
	}
	tau := fr.NewElement(0x5eed2025)
	g := G1Generator()
	pts := G1FixedBaseMul(&g, fr.Powers(&tau, 32784))
	h := sha256.New()
	for i := range pts {
		b := pts[i].Bytes()
		h.Write(b[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fixedBaseSRSDigest {
		t.Fatalf("SRS powers digest %s, want %s", got, fixedBaseSRSDigest)
	}
}
