package plonk

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
)

// One prover serves every key shape, and each shape's output is pinned byte
// for byte: same preprocessed commitments, same proof points and openings,
// and hence the same verifier transcript. The key digests were captured
// from the pre-lookup prover (commit 396cf92) for the classic rows and at
// commit 4713881 for the extended ones, and have not moved since: circuits
// that use neither lookups nor custom gates are still preprocessed exactly
// as before those features existed. Every proof digest was re-captured once
// when proofs moved to the linearized version-2 format (openings only of
// what the identities read non-linearly). Blinding is pinned to the seeded
// stream below; any drift in the transcript, the blinding order, the
// linearization or the opening fold fails here. CI runs this as the
// lookup-identity job.
var classicGoldens = map[string]struct{ vk, proof string }{
	"muladd":  {"d2f0d33c2c329fee79d96db83a69d0896fcc2aa10f2eed1781ade3ff482cacbd", "34e13285c36f0c4b79f6d9f7714d808f7d48556d9ee5b44477de9846b520b641"},
	"power5":  {"fcc7edf635b09124458e96b2ec89160226e288e0c51aea3f6f78fcf2ffe5d670", "715225fc64a36eae396661aa82e2da1f4ea29b0e9c0bfdd2f6dfc8c95b13f3ca"},
	"power50": {"a21bae105b9940e8c5417c9a6c22e654140f15f17a626afa44bdf2c0e807a402", "425127caeacf0c29f7d5ba4d8270579509c71d1f0007c0ea6c52f89e83d64d98"},
	// A classic key on a 3·2^k domain (21 rows on 24, a 96-point coset),
	// captured when that size family arrived.
	"power20": {"91565bbefe4a266cab0f5b2b2d7e4d714a9558af81681aac4bb9787ae6e8b222", "094eafcee69491387c665b09d09016070eab5eab39daea432afcf9494be58ca8"},
	// Extended shapes: the key digest also covers the extension
	// commitments, table size and MDS, the proof digest the extension's
	// commitments and openings.
	"lookup": {"4ba506c3c9b2fbfc4466799a46b1e3b8a76cc9dbeec7f76822746b34a032e908", "fdd8ba47d4332a269183d8f765451c968b905c7d4344bf4df548a808a48e221c"},
	"mimc":   {"9ff1d3289b981428949c350f375a0f156a0c2ea68398619460eb043d8c1d362c", "0e02ddb1992974c4903be9c3eecc3592dc28ace654d8bdacca502027a00ef85b"},
	// poseidon's 9 rows sit on a 12-point domain (a 3·2^k custom-gate key,
	// 8n coset).
	"poseidon": {"0606d13cae2154e1b2743a08875393605eff38cb6f75ff9f6165d14ca6e3e730", "a79c5ca5ca528c7d783e069196951afffe7a8d80ca1a0df8b6b98fca176c09e5"},
	"mixed":    {"23222f9dd003828a2fa3f2403bba595ba05ebb2ceff65845534e6535b9e303c0", "c7ca4cd2dcaee30e0217ae9091ca2eb994514ed2698f70034c90b79dd94956f6"},
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
			if err := Verify(vk, proof, witness[:cs.nbPublic]); err != nil {
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

// digestProofForTest hashes the proof's points and openings and (hence)
// everything the verifier transcript absorbs, independent of the wire
// encoding in serialize.go.
func digestProofForTest(p *Proof) []byte {
	h := sha256.New()
	pts := []*kzg.Commitment{&p.A, &p.B, &p.C, &p.Z, &p.TLo, &p.TMid, &p.THi, &p.WZeta, &p.WZetaOmega}
	if p.Lookup {
		pts = append(pts, &p.M, &p.H, &p.S)
	}
	for i := range p.TExtra {
		pts = append(pts, &p.TExtra[i])
	}
	for _, pt := range pts {
		b := pt.Bytes()
		h.Write(b[:])
	}
	atZeta, atOmega := p.openings()
	for _, e := range append(atZeta, atOmega...) {
		b := e.Bytes()
		h.Write(b[:])
	}
	return h.Sum(nil)
}
