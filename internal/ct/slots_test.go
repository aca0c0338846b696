package ct

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/plonk"
)

// splitTransfer makes a balanced 1→n statement: output i holds 100+i.
func splitTransfer(p *Params, pub *bn254.G1Affine, n int, ctx []byte) (*Statement, []Opening, []OutputSecret) {
	outs := make([]OutputSecret, n)
	st := &Statement{Context: ctx}
	var total uint64
	for i := range outs {
		outs[i] = OutputSecret{V: uint64(100 + i), R: fr.NewElement(uint64(2000 + i)), Rho: fr.NewElement(uint64(3000 + i))}
		total += outs[i].V
		st.Outputs = append(st.Outputs, p.NewOutput(pub, outs[i].V, &outs[i].R, &outs[i].Rho))
	}
	ins := []Opening{{V: total, R: fr.NewElement(1001)}}
	st.Inputs = []Commitment{p.Commit(total, &ins[0].R)}
	return st, ins, outs
}

// checkRanges verifies p's range proofs under a given challenge, past the
// sigma check: what the range layer alone accepts.
func checkRanges(vk *plonk.VerifyingKey, p *Proof, e fr.Element) error {
	for g, ri := range p.rangeInstances(e) {
		if err := plonk.Verify(vk, ri.Proof, ri.Public); err != nil {
			return fmt.Errorf("range proof %d: %w", g, err)
		}
	}
	return nil
}

// cloneProof deep-copies the lists a corruption rewrites.
func cloneProof(p *Proof) *Proof {
	c := *p
	c.Outputs = append([]OutputProof(nil), p.Outputs...)
	c.Ranges = append([]*plonk.Proof(nil), p.Ranges...)
	return &c
}

// TestRangeSlotSpliceRejected is the slot-level soundness suite of the
// four-slot π_ct: for transfers of 1, 2, 4, 5 and 16 outputs (1, 1, 1, 2
// and 4 range proofs) every way of putting the wrong thing in a slot, or
// the wrong proof in the list, is turned away — by Verify, and where the
// sigma check would mask it, by the range layer alone under the honest
// challenge.
func TestRangeSlotSpliceRejected(t *testing.T) {
	p := DefaultParams()
	rp := testProver(t)
	pk, vk, err := rp.keys()
	if err != nil {
		t.Fatal(err)
	}
	ak := AuditorKeyFromSecret(fr.NewElement(0x51075))
	pub := ak.PublicKey()

	for _, tc := range []struct{ n, proofs int }{{1, 1}, {2, 1}, {4, 1}, {5, 2}, {16, 4}} {
		n := tc.n
		t.Run(fmt.Sprintf("outputs=%d", n), func(t *testing.T) {
			ctx := []byte("splice")
			st, ins, outs := splitTransfer(p, &pub, n, ctx)
			proof, e, slots, err := proveSigma(p, &pub, st, ins, outs, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < n; lo += RangeSlots {
				r, err := rp.Prove(e, slots[lo:min(lo+RangeSlots, n)])
				if err != nil {
					t.Fatal(err)
				}
				proof.Ranges = append(proof.Ranges, r)
			}
			if len(proof.Ranges) != tc.proofs {
				t.Fatalf("%d range proofs, want %d", len(proof.Ranges), tc.proofs)
			}
			if err := Verify(p, vk, &pub, st, proof); err != nil {
				t.Fatalf("honest proof rejected: %v", err)
			}
			back, err := ProofFromBytes(proof.Bytes())
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if err := Verify(p, vk, &pub, st, back); err != nil {
				t.Fatalf("decoded proof rejected: %v", err)
			}
			rejected := func(t *testing.T, bad *Proof) {
				t.Helper()
				if err := Verify(p, vk, &pub, st, bad); !errors.Is(err, ErrProofInvalid) {
					t.Errorf("Verify: got %v, want ErrProofInvalid", err)
				}
				if err := checkRanges(vk, bad, e); err == nil {
					t.Error("the range layer accepted it under the honest challenge")
				}
			}

			t.Run("out-of-range amount", func(t *testing.T) {
				// Every position up to five outputs; at sixteen, each slot
				// index once and each of the four proofs once.
				positions := []int{0, 5, 10, 15}
				if n <= 5 {
					positions = positions[:0]
					for j := 0; j < n; j++ {
						positions = append(positions, j)
					}
				}
				for _, j := range positions {
					t.Run(fmt.Sprintf("output=%d", j), func(t *testing.T) {
						st, ins, outs := splitTransfer(p, &pub, n, ctx)
						outs[j].V += 1 << RangeBits
						ins[0].V += 1 << RangeBits
						st.Outputs[j] = p.NewOutput(&pub, outs[j].V, &outs[j].R, &outs[j].Rho)
						st.Inputs[0] = p.Commit(ins[0].V, &ins[0].R)
						if _, err := Prove(p, rp, &pub, st, ins, outs, nil); !errors.Is(err, ErrOutOfRange) {
							t.Fatalf("Prove: got %v, want ErrOutOfRange", err)
						}
						// The sigma half neither knows nor cares: it is valid.
						forged, e, slots, err := proveSigma(p, &pub, st, ins, outs, rand.New(rand.NewSource(int64(j))))
						if err != nil {
							t.Fatal(err)
						}
						forged.Ranges = make([]*plonk.Proof, rangeCount(n))
						if _, err := verifySigma(p, &pub, st, forged); err != nil {
							t.Fatalf("sigma half of the overflowing transfer rejected: %v", err)
						}
						// The circuit refuses the amount in this slot...
						g, lo := j/RangeSlots, j/RangeSlots*RangeSlots
						group := append([]RangeSlot(nil), slots[lo:min(lo+RangeSlots, n)]...)
						if _, err := rp.Prove(e, group); err == nil {
							t.Fatal("the range prover accepted the out-of-range slot")
						}
						// ...so the forger proves the amount reduced into
						// range: a valid π_ct, for another z_v.
						s := &group[j-lo]
						s.V = fr.NewElement(outs[j].V - 1<<RangeBits)
						s.ZV.Mul(&e, &s.V)
						s.ZV.Add(&s.ZV, &s.TV)
						forged.Ranges[g], err = rp.Prove(e, group)
						if err != nil {
							t.Fatal(err)
						}
						honest := forged.rangeInstances(e)[g].Public
						if err := plonk.Verify(vk, forged.Ranges[g], honest); err == nil {
							t.Error("reduced-amount range proof verified against the sigma proof's z_v")
						}
						// Moving the sigma response to match breaks the
						// opening equation instead.
						forged.Outputs[j].ZV = s.ZV
						if err := plonk.Verify(vk, forged.Ranges[g], forged.rangeInstances(e)[g].Public); err != nil {
							t.Fatalf("the forger's range proof is not even valid for its own z_v: %v", err)
						}
						if _, err := verifySigma(p, &pub, st, forged); !errors.Is(err, ErrProofInvalid) {
							t.Errorf("sigma check with the reduced z_v: got %v, want ErrProofInvalid", err)
						}
					})
				}
			})

			if n >= 2 {
				t.Run("two outputs swapped", func(t *testing.T) {
					bad := cloneProof(proof)
					a, b := &bad.Outputs[0], &bad.Outputs[n-1]
					a.ZV, b.ZV = b.ZV, a.ZV
					a.PT, b.PT = b.PT, a.PT
					rejected(t, bad)
				})
			}
			t.Run("live slot holds the dummy pair", func(t *testing.T) {
				bad := cloneProof(proof)
				bad.Outputs[n-1].ZV, bad.Outputs[n-1].PT = fr.Element{}, dummyPT
				rejected(t, bad)
			})
			if n%RangeSlots != 0 {
				t.Run("dummy slot holds a live output", func(t *testing.T) {
					// The verifier fills unused slots itself; were it to take
					// a live pair there the honest proof must not cover it...
					last := proof.rangeInstances(e)[tc.proofs-1]
					k := n % RangeSlots // first unused slot of the last proof
					pubs := append([]fr.Element(nil), last.Public...)
					pubs[1+2*k], pubs[2+2*k] = proof.Outputs[0].ZV, proof.Outputs[0].PT
					if err := plonk.Verify(vk, last.Proof, pubs); err == nil {
						t.Error("honest proof verified with a live pair in a dummy slot")
					}
					// ...and a prover who proves a live witness there gets a
					// valid proof the verifier's dummy turns away.
					lo := (tc.proofs - 1) * RangeSlots
					_, witness, err := BuildRangeCircuit(e, append(slots[lo:n:n], slots[0])).Compile()
					if err != nil {
						t.Fatal(err)
					}
					smuggled, err := plonk.Prove(pk, witness)
					if err != nil {
						t.Fatal(err)
					}
					if err := plonk.Verify(vk, smuggled, pubs); err != nil {
						t.Fatalf("the smuggling proof is not valid for its own publics: %v", err)
					}
					bad := cloneProof(proof)
					bad.Ranges[tc.proofs-1] = smuggled
					rejected(t, bad)
				})
			}
			t.Run("range-proof list", func(t *testing.T) {
				for name, ranges := range map[string][]*plonk.Proof{
					"one short": proof.Ranges[:tc.proofs-1],
					"one long":  append(proof.Ranges[:tc.proofs:tc.proofs], proof.Ranges[0]),
				} {
					bad := cloneProof(proof)
					bad.Ranges = ranges
					if err := Verify(p, vk, &pub, st, bad); !errors.Is(err, ErrBadStatement) {
						t.Errorf("%s: Verify: got %v, want ErrBadStatement", name, err)
					}
					if _, err := ProofFromBytes(bad.Bytes()); !errors.Is(err, ErrBadProofEncoding) {
						t.Errorf("%s: decode: got %v, want ErrBadProofEncoding", name, err)
					}
				}
				if tc.proofs > 1 {
					bad := cloneProof(proof)
					bad.Ranges[0], bad.Ranges[tc.proofs-1] = bad.Ranges[tc.proofs-1], bad.Ranges[0]
					rejected(t, bad)
				}
			})
			t.Run("another context", func(t *testing.T) {
				other := *st
				other.Context = []byte("elsewhere")
				if err := Verify(p, vk, &pub, &other, proof); !errors.Is(err, ErrProofInvalid) {
					t.Errorf("Verify: got %v, want ErrProofInvalid", err)
				}
				// The range proofs were made for e; under the challenge of
				// the other context they prove nothing.
				if err := checkRanges(vk, proof, challenge(p, &pub, &other, proof)); err == nil {
					t.Error("range proofs made for one challenge verified under another")
				}
			})
		})
	}
}

// sigmaDigest hashes the sigma half of a proof: the balance pair and every
// output's nonce commitments, nonce binding and responses.
func sigmaDigest(p *Proof) string {
	h := sha256.New()
	tb := p.TBal.Bytes()
	zb := p.ZBal.Bytes()
	h.Write(tb[:])
	h.Write(zb[:])
	for i := range p.Outputs {
		op := &p.Outputs[i]
		for _, pt := range []bn254.G1Affine{op.TOpen, op.TEnc1, op.TEnc2} {
			b := pt.Bytes()
			h.Write(b[:])
		}
		for _, s := range []fr.Element{op.PT, op.ZV, op.ZR, op.ZRho} {
			b := s.Bytes()
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSigmaHalfUnchanged pins the sigma protocol across the move to slots:
// with a seeded rng, TBal/ZBal and every TOpen/TEnc1/TEnc2/PT/ZV/ZR/ZRho
// equal what Prove produced when each output carried its own π_ct (the
// digests were captured at that commit). The nonce draw order, the
// zkdet/ct/transfer/v1 transcript and the responses did not move.
func TestSigmaHalfUnchanged(t *testing.T) {
	want := map[int]string{
		1:  "c480016b9ffd3bfb6aeb1ba4cdd1e5acc9638d53ad90ae59b737058c60c5ab1f",
		2:  "2d3bb13a0555874cedcebb54d2d32552a39203b23dffa0356e985a0f7b73bf48",
		4:  "14b45a6398d4eaca08b2630b41f7cde55ba1aecbecbf8a99ba5deecbc6b71344",
		5:  "f5ab46f003bff43ab1ab62b4fa0bc90059ae387c1292c1568724d1866a46b34d",
		16: "8ff049f8bb3dbbe8c991b74235080525bf042a55662ffef8cf7a52bc3686f71b",
	}
	p := DefaultParams()
	ak := AuditorKeyFromSecret(fr.NewElement(0x51a))
	pub := ak.PublicKey()
	for _, n := range []int{1, 2, 4, 5, 16} {
		st, ins, outs := splitTransfer(p, &pub, n, []byte("sigma-identity"))
		proof, _, _, err := proveSigma(p, &pub, st, ins, outs, rand.New(rand.NewSource(int64(21+n))))
		if err != nil {
			t.Fatal(err)
		}
		if n == 2 { // through the exported entry point once: same draws
			if proof, err = Prove(p, testProver(t), &pub, st, ins, outs, rand.New(rand.NewSource(int64(21+n)))); err != nil {
				t.Fatal(err)
			}
		}
		if got := sigmaDigest(proof); got != want[n] {
			t.Errorf("%d outputs: sigma half digest %s, want %s", n, got, want[n])
		}
	}
}

// TestOneRangeKey counts plonk.Setup calls across a mint, a 1→2, a 2→5 and
// a 1→16 transfer: there is one π_ct shape, so one key, whatever the arity.
func TestOneRangeKey(t *testing.T) {
	p := DefaultParams()
	rp := NewRangeProver(testSRS(t))
	var setups atomic.Int32
	rp.setup = func(cs *plonk.ConstraintSystem, srs *kzg.SRS) (*plonk.ProvingKey, *plonk.VerifyingKey, error) {
		setups.Add(1)
		return plonk.Setup(cs, srs)
	}
	ak := AuditorKeyFromSecret(fr.NewElement(0x0e))
	pub := ak.PublicKey()
	vk, err := rp.VK()
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range [][2]int{{0, 1}, {1, 2}, {2, 5}, {1, 16}} {
		st, ins, outs := splitTransfer(p, &pub, shape[1], []byte("one-key"))
		switch shape[0] {
		case 0:
			st.Mint, st.Inputs, ins = true, nil, nil
		case 2: // split the input note in two
			ins = []Opening{{V: ins[0].V - 1, R: fr.NewElement(1001)}, {V: 1, R: fr.NewElement(1002)}}
			st.Inputs = []Commitment{p.Commit(ins[0].V, &ins[0].R), p.Commit(ins[1].V, &ins[1].R)}
		}
		proof, err := Prove(p, rp, &pub, st, ins, outs, nil)
		if err != nil {
			t.Fatalf("%d→%d: %v", shape[0], shape[1], err)
		}
		if got, want := len(proof.Ranges), rangeCount(shape[1]); got != want {
			t.Fatalf("%d→%d: %d range proofs, want %d", shape[0], shape[1], got, want)
		}
		if err := Verify(p, vk, &pub, st, proof); err != nil {
			t.Fatalf("%d→%d: %v", shape[0], shape[1], err)
		}
	}
	if n := setups.Load(); n != 1 {
		t.Fatalf("plonk.Setup ran %d times, want 1", n)
	}
}

// encodeV1 lays a proof out in the version-1 wire format, where each
// output proof carried its own length-prefixed π_ct (here: range proof
// i mod len(Ranges), any decodable blob serves).
func encodeV1(p *Proof) []byte {
	v2 := p.Bytes()
	out := append([]byte(nil), v2[:proofFixed]...)
	out[4] = 1
	for i := range p.Outputs {
		out = append(out, v2[proofFixed+i*outProofFixed:proofFixed+(i+1)*outProofFixed]...)
		blob := p.Ranges[i%len(p.Ranges)].Bytes()
		out = binary.BigEndian.AppendUint32(out, uint32(len(blob)))
		out = append(out, blob...)
	}
	return out
}

// TestProofDecodeRejectsV1AndBadCounts covers the version-2 decoder's new
// refusals on a transfer of real arity (5 outputs, 2 range proofs).
func TestProofDecodeRejectsV1AndBadCounts(t *testing.T) {
	proof := fiveOutputProof(t)
	good := proof.Bytes()
	if _, err := ProofFromBytes(good); err != nil {
		t.Fatalf("honest encoding rejected: %v", err)
	}
	if _, err := ProofFromBytes(encodeV1(proof)); !errors.Is(err, ErrBadProofEncoding) || !bytes.Contains([]byte(err.Error()), []byte("unknown version 1")) {
		t.Fatalf("version-1 bytes: got %v, want ErrBadProofEncoding (unknown version 1)", err)
	}
	countAt := proofFixed + 5*outProofFixed
	for _, count := range []uint16{0, 1, 3, 5} {
		bad := append([]byte(nil), good...)
		binary.BigEndian.PutUint16(bad[countAt:], count)
		if _, err := ProofFromBytes(bad); !errors.Is(err, ErrBadProofEncoding) {
			t.Errorf("range-proof count %d for 5 outputs: got %v", count, err)
		}
	}
	// A zero-length blob where the first range proof should be.
	empty := append([]byte(nil), good[:countAt+2]...)
	empty = append(empty, 0, 0, 0, 0)
	empty = append(empty, good[countAt+2:]...)
	if _, err := ProofFromBytes(empty); !errors.Is(err, ErrBadProofEncoding) {
		t.Errorf("zero-length range proof: got %v", err)
	}
	// A length prefix past plonk's largest encoding is refused before it
	// is believed.
	long := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(long[countAt+2:], plonk.MaxProofSize+1)
	if _, err := ProofFromBytes(long); !errors.Is(err, ErrBadProofEncoding) {
		t.Errorf("oversized range proof length: got %v", err)
	}
}

// fiveOutputProof proves a 1→5 transfer: two range proofs, the second with
// three dummy slots.
func fiveOutputProof(tb testing.TB) *Proof {
	tb.Helper()
	p := DefaultParams()
	ak := AuditorKeyFromSecret(fr.NewElement(0x5))
	pub := ak.PublicKey()
	st, ins, outs := splitTransfer(p, &pub, 5, []byte("wire"))
	proof, err := Prove(p, testProver(tb), &pub, st, ins, outs, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return proof
}
