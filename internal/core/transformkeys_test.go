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

// rangeDoubler is doubler behind a 16-bit range check on every input, and it
// asks for the lookup lowering: the one processing circuit of this package's
// tests that compiles with the range table and custom gates.
type rangeDoubler struct{ doubler }

func (rangeDoubler) Name() string             { return "range-doubler" }
func (rangeDoubler) WantsLookupCircuit() bool { return true }
func (r rangeDoubler) Gadget(b *circuit.Builder, src []circuit.Variable) []circuit.Variable {
	for _, v := range src {
		b.AssertRange(v, 16)
	}
	return r.doubler.Gadget(b, src)
}

// vkFingerprint hashes everything of a verifying key that the circuit decides:
// the domain, the public-input count, the shape flags and all sixteen
// preprocessed commitments. The first flag is Lookup || Custom, the single
// "extended" bit keys carried when these were captured, so they still hold;
// the QLk and Tbl commitments tell a lookup key from a custom-only one.
func vkFingerprint(vk *plonk.VerifyingKey) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d/%d/%v/%v/%d", vk.N, vk.NbPublic, vk.Lookup || vk.Custom, vk.Custom, vk.TableBits)
	for _, c := range []*kzg.Commitment{
		&vk.QL, &vk.QR, &vk.QO, &vk.QM, &vk.QC, &vk.S1, &vk.S2, &vk.S3,
		&vk.QLk, &vk.Tbl, &vk.QMimc, &vk.QPosF, &vk.QPosP, &vk.KC0, &vk.KC1, &vk.KC2,
	} {
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
// moved once more (6 144 → 4 096 rows) when the classic Poseidon lowering
// folded its round constants into the S-box and MDS gates: a classic
// processing π_t commits with classic Poseidon. Each key is
// built twice: by a prover from a real witness, and by a verifier that never
// proved, from a zero witness. A change to which gates a transformation
// circuit emits, or in which order, moves a fingerprint; re-capturing one is a
// decision to invalidate every published π_t of that shape.
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
		key   string
		want  string
		proc  Processor
		prove func(*System) (*TransformProof, error)
	}{
		{key: "pi_t/dup/3", want: "842ca177536c007295986c9d", prove: dup(3)},
		{key: "pi_t/dup/4", want: "14cb9e8be5a19545baf1ec2c", prove: dup(4)},
		{key: "pi_t/agg/[2 3]", want: "1ed4535690b9fd69e25f8ee2", prove: func(s *System) (*TransformProof, error) {
			srcs := []Dataset{smallData(2), smallData(3)}
			cs, os := commitAll(srcs...)
			tp, _, _, err := s.transform(TransformAggregation, srcs, cs, os, nil, nil)
			return tp, err
		}},
		{key: "pi_t/part/[2 3]", want: "9129f8424f94cd90deeb130b", prove: func(s *System) (*TransformProof, error) {
			cs, os := commitAll(smallData(5))
			tp, _, _, err := s.transform(TransformPartition, []Dataset{smallData(5)}, cs, os, []int{2, 3}, nil)
			return tp, err
		}},
		{key: "pi_t/proc/doubler/4", want: "4cbb9e3db8e508b39d4a6180", proc: doubler{}, prove: process(doubler{})},
		{key: "pi_t/proc/range-doubler/4", want: "9fa0eb179bb65dd4e28bb6d1", proc: rangeDoubler{}, prove: process(rangeDoubler{})},
	}
	for _, tc := range cases {
		t.Run(tc.key, func(t *testing.T) {
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
					t.Errorf("%s: key fingerprint %s, want %s (N=%d lookup=%v custom=%v tableBits=%d)",
						name, got, tc.want, vk.N, vk.Lookup, vk.Custom, vk.TableBits)
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
