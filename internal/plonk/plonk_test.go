package plonk

import (
	"errors"
	"sync"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/poly"
)

// Shared SRS for all tests: big enough for every test circuit.
var testSRSOnce = sync.OnceValue(func() *kzg.SRS {
	tau := fr.NewElement(0x5eed)
	srs, err := kzg.NewSRSFromSecret(1<<11, &tau)
	if err != nil {
		panic(err)
	}
	return srs
})

func neg(v uint64) fr.Element {
	e := fr.NewElement(v)
	var out fr.Element
	out.Neg(&e)
	return out
}

// buildMulAddCircuit proves knowledge of x, y with x·y = pub0, x+y = pub1.
func buildMulAddCircuit() (*ConstraintSystem, []fr.Element) {
	cs := NewConstraintSystem(2)
	x := cs.NewVariable()
	y := cs.NewVariable()
	minusOne := neg(1)
	// x·y - pub0 = 0
	cs.MustAddGate(Gate{QM: fr.One(), QO: minusOne, A: x, B: y, C: 0})
	// x + y - pub1 = 0
	cs.MustAddGate(Gate{QL: fr.One(), QR: fr.One(), QO: minusOne, A: x, B: y, C: 1})
	witness := []fr.Element{fr.NewElement(35), fr.NewElement(12), fr.NewElement(5), fr.NewElement(7)}
	return cs, witness
}

// buildPowerCircuit proves pub0 = x^(2^k) for secret x, chaining squarings.
func buildPowerCircuit(k int) (*ConstraintSystem, []fr.Element) {
	cs := NewConstraintSystem(1)
	x := cs.NewVariable()
	val := fr.NewElement(3)
	witness := []fr.Element{fr.Zero(), val}
	cur := x
	curVal := val
	minusOne := neg(1)
	for i := 0; i < k; i++ {
		sq := cs.NewVariable()
		var sqVal fr.Element
		sqVal.Square(&curVal)
		witness = append(witness, sqVal)
		cs.MustAddGate(Gate{QM: fr.One(), QO: minusOne, A: cur, B: cur, C: sq})
		cur, curVal = sq, sqVal
	}
	// Final value equals the public input.
	cs.MustAddGate(Gate{QL: fr.One(), QO: minusOne, A: cur, B: cur, C: 0})
	witness[0] = curVal
	return cs, witness
}

func TestIsSatisfied(t *testing.T) {
	cs, witness := buildMulAddCircuit()
	if err := cs.IsSatisfied(witness); err != nil {
		t.Fatalf("honest witness rejected: %v", err)
	}
	bad := append([]fr.Element{}, witness...)
	bad[2] = fr.NewElement(4) // x=4, y=7: 28 != 35
	if err := cs.IsSatisfied(bad); err == nil {
		t.Fatal("bad witness accepted")
	}
	if err := cs.IsSatisfied(witness[:2]); !errors.Is(err, ErrWitnessLength) {
		t.Fatalf("want ErrWitnessLength, got %v", err)
	}
}

func TestAddGateValidation(t *testing.T) {
	cs := NewConstraintSystem(0)
	if err := cs.AddGate(Gate{A: 5}); err == nil {
		t.Fatal("gate with unknown variable accepted")
	}
	v := cs.NewVariable()
	if err := cs.AddGate(Gate{A: v, B: v, C: v}); err != nil {
		t.Fatalf("valid gate rejected: %v", err)
	}
}

func TestProveVerifyRoundTrip(t *testing.T) {
	cs, witness := buildMulAddCircuit()
	pk, vk, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(pk, witness)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, proof, witness[:2]); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
}

func TestVerifyRejectsWrongPublicInputs(t *testing.T) {
	cs, witness := buildMulAddCircuit()
	pk, vk, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(pk, witness)
	if err != nil {
		t.Fatal(err)
	}
	wrong := []fr.Element{fr.NewElement(36), fr.NewElement(12)}
	if err := Verify(vk, proof, wrong); err == nil {
		t.Fatal("proof accepted with wrong public inputs")
	}
	if err := Verify(vk, proof, witness[:1]); !errors.Is(err, ErrWrongPublic) {
		t.Fatalf("want ErrWrongPublic, got %v", err)
	}
}

func TestProveRejectsUnsatisfiedWitness(t *testing.T) {
	cs, witness := buildMulAddCircuit()
	pk, _, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]fr.Element{}, witness...)
	bad[3] = fr.NewElement(8) // x+y = 13 != 12
	if _, err := Prove(pk, bad); !errors.Is(err, ErrUnsatisfied) {
		t.Fatalf("want ErrUnsatisfied, got %v", err)
	}
}

func TestLargerCircuit(t *testing.T) {
	cs, witness := buildPowerCircuit(200)
	if err := cs.IsSatisfied(witness); err != nil {
		t.Fatalf("power circuit witness: %v", err)
	}
	pk, vk, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(pk, witness)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, proof, witness[:1]); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
}

// TestCopyConstraints checks that the permutation argument actually binds
// shared variables: a witness satisfying each gate locally but breaking the
// wiring must not produce a valid proof.
func TestCopyConstraints(t *testing.T) {
	// Gates: v2 = v1², v3 = v2² with v2 shared. A prover using different
	// values for v2's two occurrences would need to break the permutation.
	cs := NewConstraintSystem(1)
	v1 := cs.NewVariable()
	v2 := cs.NewVariable()
	v3 := cs.NewVariable()
	minusOne := neg(1)
	cs.MustAddGate(Gate{QM: fr.One(), QO: minusOne, A: v1, B: v1, C: v2})
	cs.MustAddGate(Gate{QM: fr.One(), QO: minusOne, A: v2, B: v2, C: v3})
	cs.MustAddGate(Gate{QL: fr.One(), QO: minusOne, A: v3, B: v3, C: 0})

	// Honest: v1=2, v2=4, v3=16, public=16.
	honest := []fr.Element{fr.NewElement(16), fr.NewElement(2), fr.NewElement(4), fr.NewElement(16)}
	pk, vk, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(pk, honest)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, proof, honest[:1]); err != nil {
		t.Fatal(err)
	}
	// Any witness claiming public=17 must fail at proving time (there is
	// no consistent assignment).
	bad := []fr.Element{fr.NewElement(17), fr.NewElement(2), fr.NewElement(4), fr.NewElement(16)}
	if _, err := Prove(pk, bad); !errors.Is(err, ErrUnsatisfied) {
		t.Fatalf("want ErrUnsatisfied, got %v", err)
	}
}

func TestProofSizeConstant(t *testing.T) {
	// Paper §VI-B3: proof length is independent of the relation, and a
	// classic proof is 9 G1 + 6 Fr behind the 6-byte header.
	if ProofSize != 774 {
		t.Fatalf("ProofSize = %d, want 774", ProofSize)
	}
	sizes := map[string]int{}
	for _, k := range []int{4, 64, 400} {
		cs, witness := buildPowerCircuit(k)
		pk, vk, err := Setup(cs, testSRSOnce())
		if err != nil {
			t.Fatal(err)
		}
		proof, err := Prove(pk, witness)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(vk, proof, witness[:1]); err != nil {
			t.Fatal(err)
		}
		sizes[itoa(k)] = len(proof.Bytes())
	}
	want := ProofSize
	for k, s := range sizes {
		if s != want {
			t.Fatalf("k=%s: proof size %d != %d", k, s, want)
		}
	}
}

func TestProofSerializationRoundTrip(t *testing.T) {
	cs, witness := buildMulAddCircuit()
	pk, vk, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(pk, witness)
	if err != nil {
		t.Fatal(err)
	}
	data := proof.Bytes()
	back, err := ProofFromBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, back, witness[:2]); err != nil {
		t.Fatalf("deserialized proof rejected: %v", err)
	}
	// Corruptions must be caught at decode or verify time.
	data[3] ^= 0x5a
	if back, err := ProofFromBytes(data); err == nil {
		if err := Verify(vk, back, witness[:2]); err == nil {
			t.Fatal("corrupted serialized proof accepted")
		}
	}
	if _, err := ProofFromBytes(data[:100]); err == nil {
		t.Fatal("short proof accepted")
	}
}

// TestZeroKnowledgeBlinding: two proofs of the same statement must differ
// (blinding randomness), yet both verify.
func TestZeroKnowledgeBlinding(t *testing.T) {
	cs, witness := buildMulAddCircuit()
	pk, vk, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	p1, err := Prove(pk, witness)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Prove(pk, witness)
	if err != nil {
		t.Fatal(err)
	}
	if p1.A.Equal(&p2.A) {
		t.Fatal("wire commitments identical across proofs: no blinding")
	}
	if err := Verify(vk, p1, witness[:2]); err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, p2, witness[:2]); err != nil {
		t.Fatal(err)
	}
}

// TestProveConcurrentSharedKey proves against one *ProvingKey from eight
// goroutines at once, as the marketplace key cache does, for a classic, a
// lookup and a custom-gate (6n coset) key, then a classic and a custom-gate
// key on 3·2^k domains (whose transforms share the domain's scratch pool);
// the race detector watches the shared key and its round-3 tables, which
// only Setup may write.
func TestProveConcurrentSharedKey(t *testing.T) {
	for _, shape := range []string{"muladd", "lookup", "mixed", "power20", "poseidon"} {
		t.Run(shape, func(t *testing.T) {
			cs, witness := goldenCircuit(t, shape)
			pk, vk, err := Setup(cs, testSRSOnce())
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					proof, err := Prove(pk, witness)
					if err != nil {
						t.Error(err)
						return
					}
					if err := Verify(vk, proof, witness[:cs.nbPublic]); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestKeyResidentQuotientTables checks what Setup stores on the key for
// round 3 against its definition, for every key shape (4n, 6n and 8n cosets):
// the key holds coset columns for exactly the preprocessed polynomials its
// shape's identities read — none of the lookup pair on a custom-only key,
// none of the six custom-gate columns on a lookup-only one — each the coset
// FFT of the key's coefficient polynomial, in the order the prover indexes
// them; the coset points are g·ω_Eⁱ, L1 and 1/Z_H on them match the domain's
// own evaluators.
func TestKeyResidentQuotientTables(t *testing.T) {
	classic := []string{"QL", "QR", "QO", "QM", "QC", "S1", "S2", "S3"}
	lookup := []string{"QLk", "Tbl"}
	custom := []string{"QMimc", "QPosF", "QPosP", "KC0", "KC1", "KC2"}
	join := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	wantCols := map[string][]string{
		"muladd": classic, "power5": classic, "power50": classic, "power20": classic,
		"lookup": join(classic, lookup),
		"mimc":   join(classic, custom), "poseidon": join(classic, custom),
		"mixed": join(classic, lookup, custom),
	}
	for _, tc := range goldenShapes {
		t.Run(tc.name, func(t *testing.T) {
			cs, _ := tc.build()
			pk, _, err := Setup(cs, testSRSOnce())
			if err != nil {
				t.Fatal(err)
			}
			domainE, _ := pk.quotientDomain()
			n, big := pk.Domain.N, domainE.N
			names := wantCols[tc.name]
			wantBig := map[string]uint64{
				"muladd": 4 * 8, "power5": 4 * 8, "power50": 4 * 64, "power20": 4 * 24, "lookup": 4 * 256,
				"mimc": 6 * 8, "poseidon": 8 * 12, "mixed": 6 * 64,
			}[tc.name]
			if len(pk.fixedCoset) != len(names) || big != wantBig {
				t.Fatalf("key holds %d columns on a %d-point coset of a %d-point domain, want %v on %d", len(pk.fixedCoset), big, n, names, wantBig)
			}
			byName := map[string]poly.Polynomial{
				"QL": pk.QL, "QR": pk.QR, "QO": pk.QO, "QM": pk.QM, "QC": pk.QC,
				"S1": pk.S1, "S2": pk.S2, "S3": pk.S3, "QLk": pk.QLk, "Tbl": pk.Tbl,
				"QMimc": pk.QMimc, "QPosF": pk.QPosF, "QPosP": pk.QPosP,
				"KC0": pk.KC0, "KC1": pk.KC1, "KC2": pk.KC2,
			}
			for k, name := range names {
				fresh := make([]fr.Element, big)
				copy(fresh, byName[name])
				if err := domainE.FFTCoset(fresh); err != nil {
					t.Fatal(err)
				}
				if len(pk.fixedCoset[k]) != len(fresh) {
					t.Fatalf("column %d (%s) has %d entries, want %d", k, name, len(pk.fixedCoset[k]), len(fresh))
				}
				for i := range fresh {
					if !fresh[i].Equal(&pk.fixedCoset[k][i]) {
						t.Fatalf("column %d differs from a fresh coset FFT of %s at %d", k, name, i)
					}
				}
			}
			if uint64(len(pk.cosetX)) != big || uint64(len(pk.cosetL1)) != big || uint64(len(pk.zhInv)) != big/n {
				t.Fatalf("table lengths %d/%d/%d", len(pk.cosetX), len(pk.cosetL1), len(pk.zhInv))
			}
			for i := uint64(0); i < big; i += big/64 + 1 {
				x := domainE.Element(i)
				x.Mul(&x, &domainE.CosetShift)
				if !x.Equal(&pk.cosetX[i]) {
					t.Fatalf("coset point %d is not g·ωⁱ", i)
				}
				if l1 := pk.Domain.LagrangeEval(0, &x); !l1.Equal(&pk.cosetL1[i]) {
					t.Fatalf("L1 table wrong at %d", i)
				}
				zh := pk.Domain.VanishingEval(&x)
				zh.Mul(&zh, &pk.zhInv[i%(big/n)])
				if !zh.IsOne() {
					t.Fatalf("zhInv table wrong at %d", i)
				}
			}
		})
	}
}

func TestSetupErrors(t *testing.T) {
	empty := &ConstraintSystem{}
	if _, _, err := Setup(empty, testSRSOnce()); !errors.Is(err, ErrEmptyCircuit) {
		t.Fatalf("want ErrEmptyCircuit, got %v", err)
	}
	// SRS too small.
	tau := fr.NewElement(3)
	small, err := kzg.NewSRSFromSecret(4, &tau)
	if err != nil {
		t.Fatal(err)
	}
	cs, _ := buildMulAddCircuit()
	if _, _, err := Setup(cs, small); !errors.Is(err, ErrSRSTooSmall) {
		t.Fatalf("want ErrSRSTooSmall, got %v", err)
	}
}

func TestProveWitnessLength(t *testing.T) {
	cs, witness := buildMulAddCircuit()
	pk, _, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Prove(pk, witness[:3]); !errors.Is(err, ErrWitnessLength) {
		t.Fatalf("want ErrWitnessLength, got %v", err)
	}
}

func BenchmarkVerify(b *testing.B) {
	cs, witness := buildPowerCircuit(1000)
	pk, vk, err := Setup(cs, testSRSOnce())
	if err != nil {
		b.Fatal(err)
	}
	proof, err := Prove(pk, witness)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(vk, proof, witness[:1]); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
