package plonk

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// One prover serves every key shape, and each shape's output is pinned byte
// for byte: same preprocessed commitments, same proof points and
// evaluations, and hence the same verifier transcript. The classic digests
// were captured from the pre-lookup prover (commit 396cf92), so circuits
// that use neither lookups nor custom gates are still proved exactly as
// before those features existed. Blinding is pinned to the seeded stream
// below; any drift in the transcript, the blinding order or the opening
// fold fails here. CI runs this as the lookup-identity job.
var classicGoldens = map[string]struct{ vk, proof string }{
	"muladd":  {"d2f0d33c2c329fee79d96db83a69d0896fcc2aa10f2eed1781ade3ff482cacbd", "6b3aa6919443a1125991c5c756a758aa7216c840258ef4b49318e7b465161a33"},
	"power5":  {"fcc7edf635b09124458e96b2ec89160226e288e0c51aea3f6f78fcf2ffe5d670", "f1b9590cb1908e48d70d81bf933c2c381002852f2d7b452a577211f7d70aa304"},
	"power50": {"a21bae105b9940e8c5417c9a6c22e654140f15f17a626afa44bdf2c0e807a402", "287aba7720ffaba9320b179774ab00840bd7f60e0783e35a87c38277b14a4eb2"},
	// A classic key on a 3·2^k domain (21 rows on 24, a 96-point coset),
	// captured when that size family arrived.
	"power20": {"91565bbefe4a266cab0f5b2b2d7e4d714a9558af81681aac4bb9787ae6e8b222", "3f9393e6785a89a74c17f36581334212f1511a9507929c4f42cc6a9c512abcae"},
	// Extended shapes, captured at commit 4713881 (the last one with a
	// separate extended prover and verifier): the key digest also covers the
	// extension commitments, table size and MDS, the proof digest the full
	// wire encoding.
	"lookup": {"4ba506c3c9b2fbfc4466799a46b1e3b8a76cc9dbeec7f76822746b34a032e908", "72d6b6fc355431f378d715dca2b07e538783e7df86b754c63d7694fae0b27174"},
	// mixed has held since then although its quotient moved from an 8n to a
	// 6n coset (it is the same polynomial whichever coset it is interpolated
	// from), and although quotientNumerator now shares the Poseidon S-box
	// and multiplies each gate family's selector once (field arithmetic is
	// exact). The custom-only proofs mimc and poseidon were re-captured when
	// they stopped carrying an empty lookup argument (flags 0x03 → 0x02, no
	// [M], [H], [S], β_L or LogUp openings); their keys did not move.
	// poseidon's 9 rows sit on a 12-point domain (a 3·2^k custom-gate key,
	// 8n coset).
	"mimc":     {"9ff1d3289b981428949c350f375a0f156a0c2ea68398619460eb043d8c1d362c", "3cc27419d0adc6e868a7463ceff1c0c1761adc7077060d191fd3713ab0141476"},
	"poseidon": {"0606d13cae2154e1b2743a08875393605eff38cb6f75ff9f6165d14ca6e3e730", "8df47d7e83084f2fc47c6156ff78662fc477157a80288e714cda51d881970846"},
	"mixed":    {"23222f9dd003828a2fa3f2403bba595ba05ebb2ceff65845534e6535b9e303c0", "894b9e62525957146b5021397ad0804d234b44fe2e4880c8eeb9b319df59f587"},
}

// goldenShapes builds one circuit per pinned row: four classic sizes (power20
// on a 3·2^k domain) and the four extended shapes (lookup-only, MiMC and
// Poseidon custom gates — the latter on a 3·2^k domain — lookup plus custom).
var goldenShapes = []struct {
	name  string
	build func() (*ConstraintSystem, []fr.Element)
}{
	{"muladd", buildMulAddCircuit},
	{"power5", func() (*ConstraintSystem, []fr.Element) { return buildPowerCircuit(5) }},
	{"power50", func() (*ConstraintSystem, []fr.Element) { return buildPowerCircuit(50) }},
	{"power20", func() (*ConstraintSystem, []fr.Element) { return buildPowerCircuit(20) }},
	{"lookup", func() (*ConstraintSystem, []fr.Element) {
		return buildLookupCircuit(8, []uint64{0, 1, 42, 42, 255, 128, 42})
	}},
	{"mimc", func() (*ConstraintSystem, []fr.Element) { return buildMiMCCustomCircuit(5) }},
	{"poseidon", func() (*ConstraintSystem, []fr.Element) { return buildPoseidonCustomCircuit(6) }},
	{"mixed", buildMixedCircuit},
}

// goldenCircuit builds the goldenShapes row of the given name.
func goldenCircuit(t testing.TB, name string) (*ConstraintSystem, []fr.Element) {
	for _, gs := range goldenShapes {
		if gs.name == name {
			return gs.build()
		}
	}
	t.Fatalf("no golden shape %q", name)
	return nil, nil
}

func TestClassicProverBitIdentity(t *testing.T) {
	for _, tc := range goldenShapes {
		t.Run(tc.name, func(t *testing.T) {
			cs, witness := tc.build()
			pk, vk, err := Setup(cs, testSRSOnce())
			if err != nil {
				t.Fatal(err)
			}
			want := classicGoldens[tc.name]
			if got := hex.EncodeToString(digestVKForTest(vk)); got != want.vk {
				t.Errorf("verifying key drifted from the pinned prover:\n got %s\nwant %s", got, want.vk)
			}
			restore := randScalar
			randScalar = seededScalarsForTest(0x90_1d)
			proof, err := Prove(pk, witness)
			randScalar = restore
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(vk, proof, witness[:cs.NbPublic()]); err != nil {
				t.Fatalf("pinned proof rejected: %v", err)
			}
			if got := hex.EncodeToString(digestProofForTest(proof)); got != want.proof {
				t.Errorf("proof drifted from the pinned prover:\n got %s\nwant %s", got, want.proof)
			}
		})
	}
}

// seededScalarsForTest returns a deterministic scalar stream for pinning
// proofs: call i yields SHA-256("zkdet/golden-blind" ‖ seed ‖ i) reduced
// into Fr.
func seededScalarsForTest(seed uint64) func() fr.Element {
	var ctr uint64
	return func() fr.Element {
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[:8], seed)
		binary.BigEndian.PutUint64(buf[8:], ctr)
		ctr++
		h := sha256.Sum256(append([]byte("zkdet/golden-blind"), buf[:]...))
		return fr.FromBytes(h[:])
	}
}

// digestVKForTest hashes every verifying-key field that determines the
// verifier's behavior, independent of any serialization format.
func digestVKForTest(vk *VerifyingKey) []byte {
	h := sha256.New()
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], vk.N)
	h.Write(u[:])
	binary.BigEndian.PutUint64(u[:], uint64(vk.NbPublic))
	h.Write(u[:])
	for _, p := range []interface{ Bytes() [64]byte }{
		&vk.QL, &vk.QR, &vk.QO, &vk.QM, &vk.QC, &vk.S1, &vk.S2, &vk.S3,
	} {
		b := p.Bytes()
		h.Write(b[:])
	}
	k1 := vk.K1.Bytes()
	k2 := vk.K2.Bytes()
	h.Write(k1[:])
	h.Write(k2[:])
	if vk.shape() == 0 {
		return h.Sum(nil)
	}
	if vk.Custom {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	binary.BigEndian.PutUint64(u[:], uint64(vk.TableBits))
	h.Write(u[:])
	for _, p := range []interface{ Bytes() [64]byte }{
		&vk.QLk, &vk.Tbl, &vk.QMimc, &vk.QPosF, &vk.QPosP, &vk.KC0, &vk.KC1, &vk.KC2,
	} {
		b := p.Bytes()
		h.Write(b[:])
	}
	for l := range vk.MDS {
		for j := range vk.MDS[l] {
			b := vk.MDS[l][j].Bytes()
			h.Write(b[:])
		}
	}
	return h.Sum(nil)
}

// digestProofForTest hashes the proof's points, evaluations and (hence)
// everything the verifier transcript absorbs, independent of the wire
// encoding in serialize.go.
func digestProofForTest(p *Proof) []byte {
	h := sha256.New()
	for _, pt := range []interface{ Bytes() [64]byte }{
		&p.A, &p.B, &p.C, &p.Z, &p.TLo, &p.TMid, &p.THi, &p.WZeta, &p.WZetaOmega,
	} {
		b := pt.Bytes()
		h.Write(b[:])
	}
	evals := p.Evals.evalList()
	evals = append(evals, p.Evals.ZOmega)
	for i := range evals {
		b := evals[i].Bytes()
		h.Write(b[:])
	}
	if p.Evals.Ext != nil {
		h.Write(p.Bytes())
	}
	return h.Sum(nil)
}
