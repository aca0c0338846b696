package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/plonk"
)

// rangeDoubler is doubler behind a 16-bit range check on every input: the
// one processing circuit of this package's tests that emits lookup rows, so
// it compiles with the range table beside custom gates.
type rangeDoubler struct{ doubler }

func (rangeDoubler) Name() string { return "range-doubler" }
func (r rangeDoubler) Gadget(b *circuit.Builder, src []circuit.Variable) []circuit.Variable {
	for _, v := range src {
		b.AssertRange(v, 16)
	}
	return r.doubler.Gadget(b, src)
}

// vkFingerprint hashes everything of a verifying key that the circuit decides:
// the domain, the public-input count, the shape flags and the preprocessed
// commitments the key's shape commits, in the order the transcript binds
// them (the eight selector and permutation ones, then QLk and Tbl with
// lookups, then the Poseidon selectors and round-constant columns),
// zero-padded to the sixteen every key committed when these were first
// captured. The two flags were Lookup || Custom, the single "extended" bit
// keys carried then, and Custom; every key has custom gates since the
// classic shape was deleted, so both are the literal true.
func vkFingerprint(vk *plonk.VerifyingKey) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d/%d/%v/%v/%d", vk.N, vk.NbPublic, true, true, vk.TableBits)
	cols := []*kzg.Commitment{&vk.QL, &vk.QR, &vk.QO, &vk.QM, &vk.QC, &vk.S1, &vk.S2, &vk.S3}
	if vk.Lookup {
		cols = append(cols, &vk.QLk, &vk.Tbl)
	}
	cols = append(cols, &vk.QPosF, &vk.QPosP, &vk.KC0, &vk.KC1, &vk.KC2)
	for len(cols) < 16 {
		cols = append(cols, &kzg.Commitment{})
	}
	for _, c := range cols {
		raw := c.Bytes()
		h.Write(raw[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// TestTransformKeysUnchanged pins the verifying key of every π_t shape the
// package's tests and the benchmark use — captured at 85e0ef6, before the four
// per-kind builders became one — over testSys's deterministic SRS. Two were
// re-captured when plonk.Setup began taking 3·2^k domains, with the circuits
// untouched: pi_t/dup/3 (512 → 384 rows) and pi_t/proc/doubler/4 (8 192 →
// 6 144); a key's domain size is part of its fingerprint. pi_t/proc/doubler/4
// moved again (6 144 → 4 096 rows) when the classic Poseidon lowering folded
// its round constants into the S-box and MDS gates. Every custom-gate key
// (the four structural ones and pi_t/proc/range-doubler/4) was re-captured
// when keys came to commit only the extension columns their shape reads: the
// MiMC selector left every custom key and its transcript. pi_t/proc/doubler/4
// moved a last time (classic on 4 096 rows → custom gates on 512) when every
// processing π_t came to compile on one lowering, the range table plus custom
// gates; pi_t/proc/range-doubler/4, which had opted into that lowering, held
// to the digit. All six moved once more when Poseidon rounds came to add
// their constants after the MDS (version-3 proofs): a custom row's K columns
// hold the next round's constants, and round 0's ride in the gates feeding
// each permutation — two more per Poseidon-CTR call, for k and the nonce
// (pi_t/dup/3 aa5d04a1… → 3e2240ba…, pi_t/dup/4 e8ad8981… → 79759aae…,
// pi_t/agg/[2 3] ea268b47… → 5d4c6059…, pi_t/part/[2 3] 2f20d836… →
// 349a4599…, pi_t/proc/doubler/4 48f97500… → 5f3f89c1…,
// pi_t/proc/range-doubler/4 5feefb1a… → 36845e0e…). All six moved again when
// a data commitment became the commitment to the data's digest: the two
// duplications became the one size-free key pi_t/dup, which proves two
// openings of one digest on N = 192 (pi_t/dup/3 3e2240ba… on 384 and
// pi_t/dup/4 79759aae… on 512 → 9ac02961…), and the odd sizes of the
// aggregation and the partition pay one more permutation each (pi_t/agg/[2 3]
// 5d4c6059… → 1e4b4b89… and pi_t/part/[2 3] 349a4599… → cccc6e54…, both
// 512 → 768 rows; pi_t/proc/doubler/4 5f3f89c1… → 2671bcca…,
// pi_t/proc/range-doubler/4 36845e0e… → 601f2c34…, each on its domain of
// before). The subtests keep the duplications' old names. Each key is built twice:
// by a prover from a real witness, and
// by a verifier that never proved, from a zero witness. A change to which
// gates a transformation circuit emits, or in which order, moves a
// fingerprint; re-capturing one is a decision to invalidate every published
// π_t of that shape.
func TestTransformKeysUnchanged(t *testing.T) {
	srs := testSys().SRS()
	commitAll := func(ds ...Dataset) (cs, os []fr.Element) {
		for _, d := range ds {
			c, o := d.Commit()
			cs, os = append(cs, c), append(os, o)
		}
		return cs, os
	}
	dup := func(n int) func(*System) (*TransformProof, error) {
		return func(s *System) (*TransformProof, error) {
			cs, os := commitAll(smallData(n))
			tp, _, err := s.ProveDuplication(smallData(n), cs[0], os[0])
			return tp, err
		}
	}
	process := func(p Processor) func(*System) (*TransformProof, error) {
		return func(s *System) (*TransformProof, error) {
			cs, os := commitAll(smallData(4))
			tp, _, _, err := s.ProveProcessing(p, smallData(4), cs[0], os[0])
			return tp, err
		}
	}
	cases := []struct {
		name  string // the key's, but for the duplications: one key, two sizes
		key   string
		want  string
		proc  Processor
		prove func(*System) (*TransformProof, error)
	}{
		{name: "pi_t/dup/3", key: "pi_t/dup", want: "9ac0296175a6550cecdfa43c", prove: dup(3)},
		{name: "pi_t/dup/4", key: "pi_t/dup", want: "9ac0296175a6550cecdfa43c", prove: dup(4)},
		{key: "pi_t/agg/[2 3]", want: "1e4b4b89a7379b6d4f9a3978", prove: func(s *System) (*TransformProof, error) {
			srcs := []Dataset{smallData(2), smallData(3)}
			cs, os := commitAll(srcs...)
			tp, _, _, err := s.transform(TransformAggregation, srcs, cs, os, nil, nil)
			return tp, err
		}},
		{key: "pi_t/part/[2 3]", want: "cccc6e54c3f4020abba8efe2", prove: func(s *System) (*TransformProof, error) {
			cs, os := commitAll(smallData(5))
			tp, _, _, err := s.transform(TransformPartition, []Dataset{smallData(5)}, cs, os, []int{2, 3}, nil)
			return tp, err
		}},
		{key: "pi_t/proc/doubler/4", want: "2671bcca2caabb92cf6a39fa", proc: doubler{}, prove: process(doubler{})},
		{key: "pi_t/proc/range-doubler/4", want: "601f2c34becbf21b628ee872", proc: rangeDoubler{}, prove: process(rangeDoubler{})},
	}
	for _, tc := range cases {
		if tc.name == "" {
			tc.name = tc.key
		}
		t.Run(tc.name, func(t *testing.T) {
			// Fresh Systems, so neither key is one another test cached.
			prover, verifier := NewSystem(srs), NewSystem(srs)
			tp, err := tc.prove(prover)
			if err != nil {
				t.Fatal(err)
			}
			if err := verifier.VerifyTransform(tp, tc.proc); err != nil {
				t.Fatalf("zero-witness key refuses the real-witness proof: %v", err)
			}
			for name, sys := range map[string]*System{"real witness": prover, "zero witness": verifier} {
				vk, err := sys.vkFor(tc.key, nil) // cached by the call above
				if err != nil {
					t.Fatal(err)
				}
				if got := vkFingerprint(vk); got != tc.want {
					t.Errorf("%s: key fingerprint %s, want %s (N=%d lookup=%v tableBits=%d)",
						name, got, tc.want, vk.N, vk.Lookup, vk.TableBits)
				}
			}
		})
	}
}

// TestTransformShapeRefused: Kind, Shape and the commitment lists of a
// published π_t are its publisher's word. Whatever they say, verification
// answers with ErrBadShape before a circuit is sized by them: no panic, no
// allocation of a hostile size, no plonk.Setup.
func TestTransformShapeRefused(t *testing.T) {
	sys := NewSystem(testSys().SRS())
	var setups atomic.Int32
	sys.setup = func(cs *plonk.ConstraintSystem, srs *kzg.SRS) (*plonk.ProvingKey, *plonk.VerifyingKey, error) {
		setups.Add(1)
		return plonk.Setup(cs, srs)
	}
	tooMany := sys.SRS().MaxDegree() + 1
	bases := []struct {
		tp   TransformProof
		proc Processor
	}{
		{tp: TransformProof{Kind: TransformDuplication, Shape: []int{4}, Sources: make([]fr.Element, 1), Derived: make([]fr.Element, 1)}},
		{tp: TransformProof{Kind: TransformAggregation, Shape: []int{2, 3}, Sources: make([]fr.Element, 2), Derived: make([]fr.Element, 1)}},
		{tp: TransformProof{Kind: TransformPartition, Shape: []int{2, 3}, Sources: make([]fr.Element, 1), Derived: make([]fr.Element, 2)}},
		{tp: TransformProof{Kind: TransformProcessing, Shape: []int{4, 4}, Sources: make([]fr.Element, 1), Derived: make([]fr.Element, 1)}, proc: doubler{}},
	}
	first := func(v int) func(*TransformProof, *Processor) {
		return func(tp *TransformProof, _ *Processor) { tp.Shape = append([]int{v}, tp.Shape[1:]...) }
	}
	mutations := []struct {
		name  string
		apply func(*TransformProof, *Processor)
	}{
		{"negative size", first(-1)},
		{"zero size", first(0)},
		{"one element more than the SRS has rows for", first(tooMany)},
		{"a size whose sum overflows", first(math.MaxInt)},
		{"sizes that only together exceed the SRS", func(tp *TransformProof, _ *Processor) {
			for i := range tp.Shape {
				tp.Shape[i] = tooMany / 2
			}
		}},
		{"no Shape", func(tp *TransformProof, _ *Processor) { tp.Shape = nil }},
		{"Shape of another kind's length", func(tp *TransformProof, _ *Processor) {
			if len(tp.Shape) == 1 || tp.Kind == TransformProcessing {
				tp.Shape = append(tp.Shape, 4, 4)
			} else {
				tp.Shape = tp.Shape[:1]
			}
		}},
		{"one source commitment too many", func(tp *TransformProof, _ *Processor) { tp.Sources = append(tp.Sources, fr.One()) }},
		{"no derived commitment", func(tp *TransformProof, _ *Processor) { tp.Derived = nil }},
		{"unknown kind", func(tp *TransformProof, _ *Processor) { tp.Kind = "shuffle" }},
		{"processing: nil Processor", func(_ *TransformProof, p *Processor) { *p = nil }},
		{"processing: derived size f does not yield", func(tp *TransformProof, _ *Processor) { tp.Shape[len(tp.Shape)-1]++ }},
	}
	for _, base := range bases {
		for _, mut := range mutations {
			if strings.HasPrefix(mut.name, "processing:") && base.tp.Kind != TransformProcessing {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", base.tp.Kind, mut.name), func(t *testing.T) {
				tp, proc := base.tp, base.proc
				tp.Shape = append([]int{}, tp.Shape...)
				mut.apply(&tp, &proc)
				if err := sys.VerifyTransform(&tp, proc); !errors.Is(err, ErrBadShape) {
					t.Fatalf("VerifyTransform(kind=%s shape=%v): %v, want ErrBadShape", tp.Kind, tp.Shape, err)
				}
				if err := sys.VerifyChain(ProofChain{&tp}, map[int]Processor{0: proc}); !errors.Is(err, ErrBadShape) {
					t.Fatalf("VerifyChain: %v, want ErrBadShape", err)
				}
			})
		}
	}
	if n := setups.Load(); n != 0 {
		t.Fatalf("refusing shapes ran plonk.Setup %d times, want 0", n)
	}
}
