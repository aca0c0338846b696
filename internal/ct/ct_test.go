package ct

import (
	"errors"
	"sync"
	"testing"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/poseidon"
)

// testSRS is shared across tests: π_ct proves on a 512-row domain and
// plonk.Setup asks for 3N powers, so an SRS of 3·512+6 points covers it.
var (
	srsOnce sync.Once
	srsInst *kzg.SRS
	srsErr  error
)

func testSRS(t testing.TB) *kzg.SRS {
	t.Helper()
	srsOnce.Do(func() {
		tau := fr.NewElement(0x5eed2025)
		srsInst, srsErr = kzg.NewSRSFromSecret(3*512+6, &tau)
	})
	if srsErr != nil {
		t.Fatalf("building SRS: %v", srsErr)
	}
	return srsInst
}

var proverOnce sync.Once
var proverInst *RangeProver

func testProver(t testing.TB) *RangeProver {
	t.Helper()
	srs := testSRS(t)
	proverOnce.Do(func() { proverInst = NewRangeProver(srs) })
	return proverInst
}

func TestPedersenHomomorphic(t *testing.T) {
	p := DefaultParams()
	if p.H.Equal(&p.G) || p.H.IsInfinity() || !p.H.IsOnCurve() {
		t.Fatalf("bad H")
	}
	r1 := fr.NewElement(111)
	r2 := fr.NewElement(222)
	c1 := p.Commit(30, &r1)
	c2 := p.Commit(12, &r2)
	var rsum fr.Element
	rsum.Add(&r1, &r2)
	if !c1.Add(c2).Equal(p.Commit(42, &rsum)) {
		t.Fatalf("homomorphic add broken")
	}
	var rdiff fr.Element
	rdiff.Sub(&r1, &r2)
	if !c1.Sub(c2).Equal(p.Commit(18, &rdiff)) {
		t.Fatalf("homomorphic sub broken")
	}
	b := c1.Bytes()
	back, err := CommitmentFromBytes(b[:])
	if err != nil || !back.Equal(c1) {
		t.Fatalf("round trip: %v", err)
	}
	bad := b
	bad[0] ^= 0xff
	if _, err := CommitmentFromBytes(bad[:]); err == nil {
		t.Fatalf("off-curve point accepted")
	}
}

func TestHashToG1Deterministic(t *testing.T) {
	a := hashToG1([]byte("seed-a"))
	b := hashToG1([]byte("seed-a"))
	c := hashToG1([]byte("seed-b"))
	if !a.Equal(&b) {
		t.Fatalf("hashToG1 not deterministic")
	}
	if a.Equal(&c) {
		t.Fatalf("distinct seeds collided")
	}
	if !a.IsOnCurve() || a.IsInfinity() {
		t.Fatalf("hashToG1 left the curve")
	}
}

func TestAuditorRoundTrip(t *testing.T) {
	p := DefaultParams()
	ak := AuditorKeyFromSecret(fr.NewElement(0xa0d17))
	pub := ak.PublicKey()
	for _, v := range []uint64{0, 1, 4095, 4096, 1<<24 - 1} {
		r := fr.NewElement(7*v + 13)
		rho := fr.NewElement(3*v + 1)
		out := p.NewOutput(&pub, v, &r, &rho)
		op, err := ak.Open(p, out.C, &out.Audit)
		if err != nil {
			t.Fatalf("open v=%d: %v", v, err)
		}
		if op.V != v || !op.R.Equal(&r) {
			t.Fatalf("open v=%d returned v=%d", v, op.V)
		}
	}
}

func TestAuditorDetectsGarbledBlinder(t *testing.T) {
	p := DefaultParams()
	ak := AuditorKeyFromSecret(fr.NewElement(5))
	pub := ak.PublicKey()
	r := fr.NewElement(42)
	rho := fr.NewElement(43)
	out := p.NewOutput(&pub, 100, &r, &rho)
	out.Audit.CR.Add(&out.Audit.CR, &r) // sender garbles the blinder channel
	if _, err := ak.Open(p, out.C, &out.Audit); !errors.Is(err, ErrAuditOpen) {
		t.Fatalf("want ErrAuditOpen, got %v", err)
	}
}

// buildTransfer makes a balanced 2-in/2-out statement with consistent
// secrets.
func buildTransfer(t *testing.T, p *Params, pub *bn254.G1Affine, ctx []byte) (*Statement, []Opening, []OutputSecret) {
	t.Helper()
	ins := []Opening{
		{V: 60, R: fr.NewElement(1001)},
		{V: 40, R: fr.NewElement(1002)},
	}
	outs := []OutputSecret{
		{V: 75, R: fr.NewElement(2001), Rho: fr.NewElement(3001)},
		{V: 25, R: fr.NewElement(2002), Rho: fr.NewElement(3002)},
	}
	st := &Statement{Context: ctx}
	for i := range ins {
		st.Inputs = append(st.Inputs, p.Commit(ins[i].V, &ins[i].R))
	}
	for i := range outs {
		st.Outputs = append(st.Outputs, p.NewOutput(pub, outs[i].V, &outs[i].R, &outs[i].Rho))
	}
	return st, ins, outs
}

func TestTransferProveVerify(t *testing.T) {
	p := DefaultParams()
	rp := testProver(t)
	ak := AuditorKeyFromSecret(fr.NewElement(77))
	pub := ak.PublicKey()
	st, ins, outs := buildTransfer(t, p, &pub, []byte("ctx-1"))
	proof, err := Prove(p, rp, &pub, st, ins, outs, nil)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	vk, err := rp.VK()
	if err != nil {
		t.Fatalf("vk: %v", err)
	}
	if err := Verify(p, vk, &pub, st, proof); err != nil {
		t.Fatalf("verify: %v", err)
	}

	// The auditor can open every output of the proven statement.
	for i := range st.Outputs {
		op, err := ak.Open(p, st.Outputs[i].C, &st.Outputs[i].Audit)
		if err != nil || op.V != outs[i].V {
			t.Fatalf("auditor open output %d: v=%d err=%v", i, op.V, err)
		}
	}

	// Context binding: the same proof under a different context fails.
	st2 := *st
	st2.Context = []byte("ctx-2")
	if err := VerifySigma(p, &pub, &st2, proof); err == nil {
		t.Fatalf("context rebind accepted")
	}
	// Tampered response fails.
	bad := *proof
	bad.Outputs = append([]OutputProof(nil), proof.Outputs...)
	bad.Outputs[0].ZV.Add(&bad.Outputs[0].ZV, &bad.ZBal)
	var one fr.Element
	one.SetOne()
	bad.Outputs[0].ZV.Add(&bad.Outputs[0].ZV, &one)
	if err := VerifySigma(p, &pub, st, &bad); err == nil {
		t.Fatalf("tampered response accepted")
	}
}

func TestTransferRejectsUnbalanced(t *testing.T) {
	p := DefaultParams()
	rp := testProver(t)
	ak := AuditorKeyFromSecret(fr.NewElement(78))
	pub := ak.PublicKey()
	st, ins, outs := buildTransfer(t, p, &pub, nil)
	// Forge: inflate output 0 by 10 (keeping its commitment consistent
	// with the forged secrets) — the honest prover API refuses...
	outs[0].V += 10
	st.Outputs[0] = p.NewOutput(&pub, outs[0].V, &outs[0].R, &outs[0].Rho)
	if _, err := Prove(p, rp, &pub, st, ins, outs, nil); !errors.Is(err, ErrUnbalanced) {
		t.Fatalf("want ErrUnbalanced, got %v", err)
	}
	// ...and a proof built for the balanced statement cannot be replayed
	// against the inflated one.
	st2, ins2, outs2 := buildTransfer(t, p, &pub, nil)
	proof, err := Prove(p, rp, &pub, st2, ins2, outs2, nil)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if err := VerifySigma(p, &pub, st, proof); err == nil {
		t.Fatalf("unbalanced statement accepted")
	}
}

func TestMintProveVerify(t *testing.T) {
	p := DefaultParams()
	rp := testProver(t)
	ak := AuditorKeyFromSecret(fr.NewElement(79))
	pub := ak.PublicKey()
	outs := []OutputSecret{{V: 1000, R: fr.NewElement(1), Rho: fr.NewElement(2)}}
	st := &Statement{Mint: true, Context: []byte("mint")}
	st.Outputs = append(st.Outputs, p.NewOutput(&pub, outs[0].V, &outs[0].R, &outs[0].Rho))
	proof, err := Prove(p, rp, &pub, st, nil, outs, nil)
	if err != nil {
		t.Fatalf("prove mint: %v", err)
	}
	vk, err := rp.VK()
	if err != nil {
		t.Fatalf("vk: %v", err)
	}
	if err := Verify(p, vk, &pub, st, proof); err != nil {
		t.Fatalf("verify mint: %v", err)
	}
}

func TestRangeProofRejectsOutOfRange(t *testing.T) {
	p := DefaultParams()
	rp := testProver(t)
	ak := AuditorKeyFromSecret(fr.NewElement(80))
	pub := ak.PublicKey()
	// The prover refuses out-of-range outputs outright.
	outs := []OutputSecret{{V: 1 << RangeBits, R: fr.NewElement(1), Rho: fr.NewElement(2)}}
	st := &Statement{Mint: true}
	st.Outputs = append(st.Outputs, p.NewOutput(&pub, outs[0].V, &outs[0].R, &outs[0].Rho))
	if _, err := Prove(p, rp, &pub, st, nil, outs, nil); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	// A directly forged witness fails inside the circuit: just past the
	// bound, one further, and a field-negative amount (r − 1 = −1), each
	// with a z_v and P_t consistent with it, in every slot position.
	e := fr.NewElement(7)
	var minusOne fr.Element
	minusOne.SetOne()
	minusOne.Neg(&minusOne)
	for name, v := range map[string]fr.Element{
		"2^24":     fr.NewElement(1 << RangeBits),
		"2^24 + 1": fr.NewElement(1<<RangeBits + 1),
		"r - 1":    minusOne,
	} {
		for pos := 0; pos < RangeSlots; pos++ {
			slots := make([]RangeSlot, pos+1)
			for i := range slots {
				s := &slots[i]
				s.V = fr.NewElement(uint64(1000 + i))
				if i == pos {
					s.V = v
				}
				s.TV, s.ST = fr.NewElement(uint64(5+i)), fr.NewElement(uint64(60+i))
				s.ZV.Mul(&e, &s.V)
				s.ZV.Add(&s.ZV, &s.TV)
				s.PT = poseidon.CommitWith([]fr.Element{s.TV}, s.ST)
			}
			cs, witness, err := BuildRangeCircuit(e, slots).Compile()
			if err != nil {
				t.Fatalf("v = %s in slot %d: compile: %v", name, pos, err)
			}
			if err := cs.IsSatisfied(witness); err == nil {
				t.Errorf("v = %s in slot %d: circuit satisfied", name, pos)
			}
			if _, err := rp.Prove(e, slots); err == nil {
				t.Errorf("v = %s in slot %d: out-of-range witness proved", name, pos)
			}
		}
	}
}

func TestProofEncodingRoundTrip(t *testing.T) {
	p := DefaultParams()
	rp := testProver(t)
	ak := AuditorKeyFromSecret(fr.NewElement(81))
	pub := ak.PublicKey()
	st, ins, outs := buildTransfer(t, p, &pub, []byte("enc"))
	proof, err := Prove(p, rp, &pub, st, ins, outs, nil)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	b := proof.Bytes()
	back, err := ProofFromBytes(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(back.Outputs) != len(proof.Outputs) || len(back.Ranges) != 1 || !back.ZBal.Equal(&proof.ZBal) {
		t.Fatalf("round trip mismatch")
	}
	vk, err := rp.VK()
	if err != nil {
		t.Fatalf("vk: %v", err)
	}
	if err := Verify(p, vk, &pub, st, back); err != nil {
		t.Fatalf("decoded proof rejected: %v", err)
	}
	// Truncation and trailing bytes are rejected.
	if _, err := ProofFromBytes(b[:len(b)-1]); err == nil {
		t.Fatalf("truncated proof accepted")
	}
	if _, err := ProofFromBytes(append(append([]byte(nil), b...), 0)); err == nil {
		t.Fatalf("trailing bytes accepted")
	}
	// Output wire round trip.
	ob := st.Outputs[0].Bytes()
	oback, err := OutputFromBytes(ob[:])
	if err != nil || !oback.C.Equal(st.Outputs[0].C) {
		t.Fatalf("output round trip: %v", err)
	}
}
