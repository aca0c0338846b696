package kzg

import (
	"testing"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/poly"
)

func testSRS(t *testing.T, size int) *SRS {
	t.Helper()
	tau := fr.NewElement(0xbeef1234)
	srs, err := NewSRSFromSecret(size, &tau)
	if err != nil {
		t.Fatal(err)
	}
	return srs
}

func randPoly(n int) poly.Polynomial {
	p := make(poly.Polynomial, n)
	for i := range p {
		p[i] = fr.MustRandom()
	}
	return p
}

func TestSRSStructure(t *testing.T) {
	srs := testSRS(t, 16)
	if err := VerifySRS(srs); err != nil {
		t.Fatalf("VerifySRS on honest SRS: %v", err)
	}
	// G1[1] must be [τ]G1.
	g := bn254.G1Generator()
	tau := fr.NewElement(0xbeef1234)
	want := bn254.G1ScalarMul(&g, &tau)
	if !srs.G1[1].Equal(&want) {
		t.Fatal("SRS power 1 mismatch")
	}
	// Corrupt a power: VerifySRS must notice.
	srs.G1[7] = g
	if err := VerifySRS(srs); err == nil {
		t.Fatal("VerifySRS accepted corrupted SRS")
	}
}

func TestCommitOpenVerify(t *testing.T) {
	srs := testSRS(t, 64)
	p := randPoly(50)
	c, err := Commit(srs, p)
	if err != nil {
		t.Fatal(err)
	}
	z := fr.MustRandom()
	proof, err := Open(srs, p, &z)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Eval(&z); !proof.ClaimedValue.Equal(&want) {
		t.Fatal("claimed value != p(z)")
	}
	if err := Verify(srs, &c, &z, &proof); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	srs := testSRS(t, 64)
	p := randPoly(40)
	c, err := Commit(srs, p)
	if err != nil {
		t.Fatal(err)
	}
	z := fr.MustRandom()
	proof, err := Open(srs, p, &z)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong claimed value.
	bad := proof
	bad.ClaimedValue.Add(&bad.ClaimedValue, &[]fr.Element{fr.One()}[0])
	if err := Verify(srs, &c, &z, &bad); err == nil {
		t.Fatal("accepted wrong claimed value")
	}

	// Wrong point.
	zBad := fr.MustRandom()
	if err := Verify(srs, &c, &zBad, &proof); err == nil {
		t.Fatal("accepted wrong evaluation point")
	}

	// Wrong commitment (different polynomial).
	q := randPoly(40)
	cq, err := Commit(srs, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(srs, &cq, &z, &proof); err == nil {
		t.Fatal("accepted proof against wrong commitment")
	}

	// Corrupted quotient point.
	bad = proof
	g := bn254.G1Generator()
	bad.Quotient = bn254.G1Add(&bad.Quotient, &g)
	if err := Verify(srs, &c, &z, &bad); err == nil {
		t.Fatal("accepted corrupted quotient")
	}
}

func TestCommitmentHomomorphism(t *testing.T) {
	// KZG commitments are additively homomorphic: C(p+q) = C(p) + C(q).
	srs := testSRS(t, 32)
	p, q := randPoly(20), randPoly(25)
	cp, err := Commit(srs, p)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := Commit(srs, q)
	if err != nil {
		t.Fatal(err)
	}
	pq := append(poly.Polynomial(nil), q...) // q is the longer
	for i := range p {
		pq[i].Add(&pq[i], &p[i])
	}
	cpq, err := Commit(srs, pq)
	if err != nil {
		t.Fatal(err)
	}
	sum := bn254.G1Add(&cp, &cq)
	if !cpq.Equal(&sum) {
		t.Fatal("commitment homomorphism fails")
	}
}

func TestCommitDegreeBound(t *testing.T) {
	srs := testSRS(t, 8)
	if _, err := Commit(srs, randPoly(9)); err == nil {
		t.Fatal("commit beyond SRS size should fail")
	}
	// Exactly at the bound is fine.
	if _, err := Commit(srs, randPoly(8)); err != nil {
		t.Fatalf("commit at SRS size: %v", err)
	}
}

func TestCeremonyProducesValidSRS(t *testing.T) {
	cer, err := NewCeremony(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := cer.Contribute([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	srs, err := cer.SRS()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyChain(cer.Contributions(), srs); err != nil {
		t.Fatalf("honest chain rejected: %v", err)
	}

	// The resulting SRS must actually work for commit/open/verify.
	p := randPoly(10)
	c, err := Commit(srs, p)
	if err != nil {
		t.Fatal(err)
	}
	z := fr.MustRandom()
	proof, err := Open(srs, p, &z)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(srs, &c, &z, &proof); err != nil {
		t.Fatalf("ceremony SRS does not verify proofs: %v", err)
	}
}

func TestCeremonyDetectsTampering(t *testing.T) {
	cer, err := NewCeremony(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := cer.Contribute([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := cer.Contribute([]byte("b")); err != nil {
		t.Fatal(err)
	}
	srs, err := cer.SRS()
	if err != nil {
		t.Fatal(err)
	}
	contribs := cer.Contributions()

	// Tamper with a contribution's G2 half.
	badContribs := make([]Contribution, len(contribs))
	copy(badContribs, contribs)
	g2 := bn254.G2Generator()
	badContribs[1].SG2 = g2
	if err := VerifyChain(badContribs, srs); err == nil {
		t.Fatal("tampered chain accepted")
	}

	// Empty chain.
	if err := VerifyChain(nil, srs); err == nil {
		t.Fatal("empty chain accepted")
	}

	// Chain head not matching final SRS.
	g1 := bn254.G1Generator()
	badSRS := &SRS{G1: append([]bn254.G1Affine{}, srs.G1...), G2: srs.G2}
	badSRS.G1[1] = g1
	if err := VerifyChain(contribs, badSRS); err == nil {
		t.Fatal("mismatched final SRS accepted")
	}

	// Ceremony with zero contributions cannot finalize.
	empty, err := NewCeremony(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.SRS(); err == nil {
		t.Fatal("ceremony without contributions finalized")
	}
}

func BenchmarkSRSGen(b *testing.B) {
	tau := fr.NewElement(0x9999)
	for _, n := range []int{1 << 10, 1 << 14} {
		b.Run(itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewSRSFromSecret(n, &tau); err != nil {
					b.Fatal(err)
				}
			}
		})
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

func TestSRSSerializationRoundTrip(t *testing.T) {
	srs := testSRS(t, 16)
	data := srs.Bytes()
	back, err := SRSFromBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.G1) != len(srs.G1) {
		t.Fatal("power count changed")
	}
	for i := range srs.G1 {
		if !back.G1[i].Equal(&srs.G1[i]) {
			t.Fatalf("g1[%d] mismatch", i)
		}
	}
	for i := range srs.G2 {
		if !back.G2[i].Equal(&srs.G2[i]) {
			t.Fatalf("g2[%d] mismatch", i)
		}
	}
	// The deserialized SRS works.
	p := randPoly(10)
	c, err := Commit(back, p)
	if err != nil {
		t.Fatal(err)
	}
	z := fr.MustRandom()
	proof, err := Open(back, p, &z)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(back, &c, &z, &proof); err != nil {
		t.Fatal(err)
	}
}

func TestSRSFromBytesRejectsTampering(t *testing.T) {
	srs := testSRS(t, 8)
	good := srs.Bytes()

	// Truncated.
	if _, err := SRSFromBytes(good[:50]); err == nil {
		t.Fatal("truncated SRS accepted")
	}
	// Bad magic.
	bad := append([]byte{}, good...)
	bad[0] ^= 0xff
	if _, err := SRSFromBytes(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Corrupt a G1 power: either decode fails (off-curve) or the power
	// chain check fails.
	bad = append([]byte{}, good...)
	off := len(srsMagic) + 8 + 64*3 // inside G1[3]
	bad[off] ^= 0x01
	if _, err := SRSFromBytes(bad); err == nil {
		t.Fatal("corrupted power accepted")
	}
	// Swap two powers (all points stay on-curve): the pairing check must
	// catch it.
	bad = append([]byte{}, good...)
	a := len(srsMagic) + 8 + 64*2
	b := len(srsMagic) + 8 + 64*5
	for i := 0; i < 64; i++ {
		bad[a+i], bad[b+i] = bad[b+i], bad[a+i]
	}
	if _, err := SRSFromBytes(bad); err == nil {
		t.Fatal("swapped powers accepted")
	}
}
