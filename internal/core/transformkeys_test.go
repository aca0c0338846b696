package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
// preprocessed commitments.
func vkFingerprint(vk *plonk.VerifyingKey) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d/%d/%v/%v/%d", vk.N, vk.NbPublic, vk.Extended, vk.Custom, vk.TableBits)
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
// per-kind builders became one — over testSys's deterministic SRS. Each key is
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
		{key: "pi_t/dup/3", want: "f2be6a1b9856299811b5ef71", prove: dup(3)},
		{key: "pi_t/dup/4", want: "14cb9e8be5a19545baf1ec2c", prove: dup(4)},
		{key: "pi_t/agg/[2 3]", want: "1ed4535690b9fd69e25f8ee2", prove: func(s *System) (*TransformProof, error) {
			srcs := []Dataset{smallData(2), smallData(3)}
			cs, os := commitAll(srcs...)
			tp, _, _, err := s.ProveAggregation(srcs, cs, os)
			return tp, err
		}},
		{key: "pi_t/part/[2 3]", want: "9129f8424f94cd90deeb130b", prove: func(s *System) (*TransformProof, error) {
			cs, os := commitAll(smallData(5))
			tp, _, _, err := s.ProvePartition(smallData(5), cs[0], os[0], []int{2, 3})
			return tp, err
		}},
		{key: "pi_t/proc/doubler/4", want: "2bf73dd4d8615a889eda9bbb", proc: doubler{}, prove: process(doubler{})},
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
					t.Errorf("%s: key fingerprint %s, want %s (N=%d extended=%v custom=%v tableBits=%d)",
						name, got, tc.want, vk.N, vk.Extended, vk.Custom, vk.TableBits)
				}
			}
		})
	}
}
