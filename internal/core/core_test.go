package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/plonk"
)

// Shared test system: SRS large enough for every core test circuit.
var testSys = sync.OnceValue(func() *System {
	s, err := NewTestSystem(1 << 13)
	if err != nil {
		panic(err)
	}
	return s
})

func smallData(n int) Dataset {
	d := make(Dataset, n)
	for i := range d {
		d[i] = fr.NewElement(uint64(100 + i))
	}
	return d
}

func TestEncodeDecodeBytes(t *testing.T) {
	cases := [][]byte{
		[]byte("hello"),
		bytes.Repeat([]byte{0xab}, 100),
		{},
		{0},
		bytes.Repeat([]byte{0}, 31),
		bytes.Repeat([]byte{0xff}, 62),
	}
	for _, in := range cases {
		d := EncodeBytes(in)
		out, err := DecodeBytes(d)
		if err != nil {
			t.Fatalf("decode %d bytes: %v", len(in), err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("round trip mismatch for %d bytes", len(in))
		}
	}
	if _, err := DecodeBytes(nil); !errors.Is(err, ErrDatasetEmpty) {
		t.Fatal("empty dataset decoded")
	}
}

func TestCiphertextRoundTrip(t *testing.T) {
	d := smallData(5)
	k := fr.MustRandom()
	ct := d.Encrypt(k)
	back := ct.Decrypt(k)
	for i := range d {
		if !back[i].Equal(&d[i]) {
			t.Fatal("decrypt mismatch")
		}
	}
	// Serialization.
	raw := ct.Bytes()
	ct2, err := CiphertextFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !ct2.Nonce.Equal(&ct.Nonce) || len(ct2.Blocks) != len(ct.Blocks) {
		t.Fatal("ciphertext serialization mismatch")
	}
	if _, err := CiphertextFromBytes(raw[:33]); err == nil {
		t.Fatal("ragged ciphertext accepted")
	}
}

func TestEncryptionProofRoundTrip(t *testing.T) {
	sys := testSys()
	data := smallData(4)
	key := fr.MustRandom()
	st, _, ct, proof, err := sys.EncryptAndProve(data, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.VerifyEncryption(st, proof); err != nil {
		t.Fatalf("honest π_e rejected: %v", err)
	}
	// The ciphertext in the statement is the real one.
	back := ct.Decrypt(key)
	if !back[0].Equal(&data[0]) {
		t.Fatal("ciphertext does not decrypt")
	}
	// Tampered ciphertext must not verify (Theorem 5.1 integrity).
	bad := *st
	bad.Ciphertext = append([]fr.Element{}, st.Ciphertext...)
	bad.Ciphertext[2] = fr.NewElement(12345)
	if err := sys.VerifyEncryption(&bad, proof); err == nil {
		t.Fatal("tampered ciphertext verified")
	}
	// Tampered data commitment must not verify.
	bad2 := *st
	bad2.DataCommitment = fr.NewElement(1)
	if err := sys.VerifyEncryption(&bad2, proof); err == nil {
		t.Fatal("tampered commitment verified")
	}
	// Empty dataset rejected.
	if _, _, _, _, err := sys.EncryptAndProve(nil, key); !errors.Is(err, ErrDatasetEmpty) {
		t.Fatal("empty dataset proved")
	}
}

func TestDuplicationProof(t *testing.T) {
	sys := testSys()
	data := smallData(4)
	cs, os := data.Commit()
	tp, _, err := sys.ProveDuplication(data, cs, os)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.VerifyTransform(tp, nil); err != nil {
		t.Fatalf("honest duplication rejected: %v", err)
	}
	// The derived commitment differs from the source (fresh blinder) yet
	// commits the same content.
	if tp.Sources[0].Equal(&tp.Derived[0]) {
		t.Fatal("derived commitment identical to source")
	}
	// Tampering with the derived commitment must fail.
	bad := *tp
	bad.Derived = []fr.Element{fr.NewElement(42)}
	if err := sys.VerifyTransform(&bad, nil); err == nil {
		t.Fatal("tampered duplication verified")
	}
}

func TestAggregationProof(t *testing.T) {
	sys := testSys()
	s1, s2 := smallData(3), smallData(2)
	c1, o1 := s1.Commit()
	c2, o2 := s2.Commit()
	tp, pieces, _, err := sys.transform(TransformAggregation, []Dataset{s1, s2}, []fr.Element{c1, c2}, []fr.Element{o1, o2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	derived := pieces[0]
	if len(derived) != 5 {
		t.Fatalf("derived size %d", len(derived))
	}
	// Order matters: D = S1 ‖ S2.
	if !derived[0].Equal(&s1[0]) || !derived[3].Equal(&s2[0]) {
		t.Fatal("aggregation order broken")
	}
	if err := sys.VerifyTransform(tp, nil); err != nil {
		t.Fatalf("honest aggregation rejected: %v", err)
	}
	// Swapped source commitments must fail (wrong order).
	bad := *tp
	bad.Sources = []fr.Element{c2, c1}
	if err := sys.VerifyTransform(&bad, nil); err == nil {
		t.Fatal("swapped aggregation verified")
	}
	// Single source rejected.
	if _, _, _, err := sys.transform(TransformAggregation, []Dataset{s1}, []fr.Element{c1}, []fr.Element{o1}, nil, nil); !errors.Is(err, ErrBadShape) {
		t.Fatal("single-source aggregation allowed")
	}
}

func TestPartitionProof(t *testing.T) {
	sys := testSys()
	src := smallData(5)
	cs, os := src.Commit()
	tp, pieces, _, err := sys.transform(TransformPartition, []Dataset{src}, []fr.Element{cs}, []fr.Element{os}, []int{2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 2 || len(pieces[0]) != 2 || len(pieces[1]) != 3 {
		t.Fatalf("piece sizes wrong: %d/%d", len(pieces[0]), len(pieces[1]))
	}
	// Exhaustive & exclusive: concatenation reproduces the source.
	recon := append(pieces[0].Clone(), pieces[1]...)
	for i := range src {
		if !recon[i].Equal(&src[i]) {
			t.Fatal("partition lost or duplicated content")
		}
	}
	if err := sys.VerifyTransform(tp, nil); err != nil {
		t.Fatalf("honest partition rejected: %v", err)
	}
	// Invalid shapes.
	if _, _, _, err := sys.transform(TransformPartition, []Dataset{src}, []fr.Element{cs}, []fr.Element{os}, []int{5}, nil); !errors.Is(err, ErrBadShape) {
		t.Fatal("1-piece partition allowed")
	}
	if _, _, _, err := sys.transform(TransformPartition, []Dataset{src}, []fr.Element{cs}, []fr.Element{os}, []int{2, 2}, nil); !errors.Is(err, ErrBadShape) {
		t.Fatal("non-exhaustive partition allowed")
	}
	if _, _, _, err := sys.transform(TransformPartition, []Dataset{src}, []fr.Element{cs}, []fr.Element{os}, []int{0, 5}, nil); !errors.Is(err, ErrBadShape) {
		t.Fatal("empty piece allowed")
	}
}

// doubler is a toy Processor: d_i = 2·s_i.
type doubler struct{}

func (doubler) Name() string { return "doubler" }
func (doubler) Apply(src Dataset) (Dataset, error) {
	out := make(Dataset, len(src))
	for i := range src {
		out[i].Add(&src[i], &src[i])
	}
	return out, nil
}
func (doubler) Gadget(b *circuit.Builder, src []circuit.Variable) []circuit.Variable {
	out := make([]circuit.Variable, len(src))
	for i := range src {
		out[i] = b.Add(src[i], src[i])
	}
	return out
}

func TestProcessingProof(t *testing.T) {
	sys := testSys()
	src := smallData(4)
	cs, os := src.Commit()
	tp, derived, _, err := sys.ProveProcessing(doubler{}, src, cs, os)
	if err != nil {
		t.Fatal(err)
	}
	var want fr.Element
	want.Add(&src[0], &src[0])
	if !derived[0].Equal(&want) {
		t.Fatal("processing result wrong")
	}
	if err := sys.VerifyTransform(tp, doubler{}); err != nil {
		t.Fatalf("honest processing rejected: %v", err)
	}
	if err := sys.VerifyTransform(tp, nil); err == nil {
		t.Fatal("processing verified without its Processor")
	}
}

func TestProofChain(t *testing.T) {
	sys := testSys()
	// S --dup--> D1 --dup--> D2 --process--> D3: links share commitments.
	src := smallData(4)
	cs, os := src.Commit()
	dup, od, err := sys.ProveDuplication(src, cs, os)
	if err != nil {
		t.Fatal(err)
	}
	dup2, od2, err := sys.ProveDuplication(src, dup.Derived[0], od)
	if err != nil {
		t.Fatal(err)
	}
	proc, _, _, err := sys.ProveProcessing(doubler{}, src, dup2.Derived[0], od2)
	if err != nil {
		t.Fatal(err)
	}
	procs := map[int]Processor{2: doubler{}}
	if err := sys.VerifyChain(ProofChain{dup, dup2, proc}, procs); err != nil {
		t.Fatalf("honest chain rejected: %v", err)
	}
	// The links are folded into one pairing; a middle link only the pairing
	// refuses must still be the one the error names.
	bad := *dup2
	bad.Proof = withWZeta(t, dup2.Proof, dup.Proof)
	err = sys.VerifyChain(ProofChain{dup, &bad, proc}, procs)
	if !errors.Is(err, plonk.ErrProofInvalid) || !strings.Contains(err.Error(), "chain link 1: π_t (duplication)") {
		t.Fatalf("corrupted middle link: %v, want plonk.ErrProofInvalid naming chain link 1", err)
	}
	// A chain whose links do not connect must fail.
	other := smallData(4)
	co, oo := other.Commit()
	stray, _, err := sys.ProveDuplication(other, co, oo)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.VerifyChain(ProofChain{dup, stray}, nil); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("disconnected chain accepted: %v", err)
	}
	if err := sys.VerifyChain(nil, nil); err == nil {
		t.Fatal("empty chain accepted")
	}
}

// escrowMarketplace is an in-memory marketplace with a funded seller and
// buyer: the arbiter 𝒥 of the exchange tests is its on-chain escrow.
func escrowMarketplace(t *testing.T) (m *Marketplace, seller, buyer chain.Address) {
	t.Helper()
	m, _ = newTestMarketplace(t)
	seller, buyer = chain.AddressFromString("seller"), chain.AddressFromString("buyer")
	m.Chain.Faucet(seller, 1_000_000)
	m.Chain.Faucet(buyer, 1_000_000)
	return m, seller, buyer
}

// openEscrow is the buyer locking price against (h_v, c_k) in exchange id.
func openEscrow(m *Marketplace, buyer, seller chain.Address, id, price uint64, hv, ck fr.Element) error {
	hvB, ckB := hv.Bytes(), ck.Bytes()
	_, err := m.submit(buyer, contracts.EscrowName, "open", price,
		contracts.EncodeArgs(contracts.U64(id), seller[:], hvB[:], ckB[:]))
	return err
}

// settleEscrow is the seller submitting π_k for statement st to exchange id.
func settleEscrow(m *Marketplace, seller chain.Address, id uint64, st KeyStatement, piK *plonk.Proof) error {
	kc, ck, hv := st.KC.Bytes(), st.KeyCommitment.Bytes(), st.HV.Bytes()
	_, err := m.submit(seller, contracts.EscrowName, "settle", 0,
		contracts.EncodeArgs(contracts.U64(id), kc[:], piK.Bytes(), kc[:], ck[:], hv[:]))
	return err
}

func refundEscrow(m *Marketplace, buyer chain.Address, id uint64) error {
	_, err := m.submit(buyer, contracts.EscrowName, "refund", 0, contracts.EncodeArgs(contracts.U64(id)))
	return err
}

func TestKeySecureExchangeHonestFlow(t *testing.T) {
	sys := testSys()
	m, sellerAddr, buyerAddr := escrowMarketplace(t)
	data := smallData(4)
	key := fr.MustRandom()
	pred := RangePredicate{Bits: 16}

	seller, err := NewSeller(sys, data, key, pred)
	if err != nil {
		t.Fatal(err)
	}
	listing := seller.Listing(1000)

	// Phase 1: buyer validates the data.
	piP, err := seller.ProveData()
	if err != nil {
		t.Fatal(err)
	}
	buyer := NewBuyer(sys, listing, pred)
	if err := buyer.VerifyData(piP); err != nil {
		t.Fatalf("π_p rejected: %v", err)
	}

	// Buyer locks payment with the arbiter.
	kv, hv := buyer.Challenge()
	if err := openEscrow(m, buyerAddr, sellerAddr, 1, 1000, hv, listing.KeyCommitment); err != nil {
		t.Fatal(err)
	}

	// Phase 2: key negotiation; the arbiter verifies π_k and pays.
	st, piK, err := seller.NegotiateKey(kv, hv)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Chain.BalanceOf(sellerAddr)
	if err := settleEscrow(m, sellerAddr, 1, st, piK); err != nil {
		t.Fatalf("π_k rejected: %v", err)
	}
	if paid := m.Chain.BalanceOf(sellerAddr) - before; paid != 1000 {
		t.Fatalf("seller paid %d", paid)
	}

	// Buyer reads the published k_c, recovers k and decrypts.
	kcB, err := contracts.ReadSettledKc(m.Chain, contracts.EscrowName, 1)
	if err != nil {
		t.Fatalf("kc not published: %v", err)
	}
	kc, err := fr.FromBytesCanonical(kcB)
	if err != nil || !kc.Equal(&st.KC) {
		t.Fatalf("published kc %x, proven %v (%v)", kcB, st.KC, err)
	}
	got, err := buyer.Decrypt(kc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !got[i].Equal(&data[i]) {
			t.Fatal("buyer recovered wrong data")
		}
	}

	// Key secrecy: kc alone does not reveal k — a third party decrypting
	// with kc gets garbage.
	ct := Ciphertext{Nonce: listing.Statement.Nonce, Blocks: listing.Statement.Ciphertext}
	eavesdrop := ct.Decrypt(kc)
	if eavesdrop[0].Equal(&data[0]) {
		t.Fatal("kc decrypts the ciphertext: key leaked")
	}
}

func TestExchangeSellerFairness(t *testing.T) {
	sys := testSys()
	data := smallData(4)
	key := fr.MustRandom()
	pred := TruePredicate{}
	seller, err := NewSeller(sys, data, key, pred)
	if err != nil {
		t.Fatal(err)
	}
	// Malicious buyer sends k_v that does not match h_v: honest seller
	// aborts (Theorem 5.2 seller fairness).
	kv := fr.MustRandom()
	wrongHv := fr.NewElement(1)
	if _, _, err := seller.NegotiateKey(kv, wrongHv); !errors.Is(err, ErrChallengeHash) {
		t.Fatalf("seller did not abort on bad challenge: %v", err)
	}
}

func TestExchangeBuyerFairness(t *testing.T) {
	sys := testSys()
	m, sellerAddr, buyerAddr := escrowMarketplace(t)
	data := smallData(4)
	key := fr.MustRandom()
	pred := TruePredicate{}
	seller, err := NewSeller(sys, data, key, pred)
	if err != nil {
		t.Fatal(err)
	}
	listing := seller.Listing(500)
	buyer := NewBuyer(sys, listing, pred)
	kv, hv := buyer.Challenge()
	if err := openEscrow(m, buyerAddr, sellerAddr, 1, 500, hv, listing.KeyCommitment); err != nil {
		t.Fatal(err)
	}

	st, piK, err := seller.NegotiateKey(kv, hv)
	if err != nil {
		t.Fatal(err)
	}
	before, nonce := m.Chain.BalanceOf(sellerAddr), m.Chain.NonceOf(sellerAddr)
	// Malicious seller submits a k_c different from the proven one: the
	// arbiter must not pay (Theorem 5.2 buyer fairness). π_k does not verify
	// for the statement the calldata names, so the block's proof fold evicts
	// the settlement before it executes — no receipt, no gas, no nonce bump —
	// as it does on a node.
	badSt := st
	badSt.KC = fr.NewElement(999)
	if err := settleEscrow(m, sellerAddr, 1, badSt, piK); !errors.Is(err, contracts.ErrProofRejected) {
		t.Fatalf("arbiter paid for a forged kc: %v", err)
	}
	// So is a statement whose hv is not the one π_k was made for.
	badSt2 := st
	badSt2.HV = fr.NewElement(1)
	if err := settleEscrow(m, sellerAddr, 1, badSt2, piK); !errors.Is(err, contracts.ErrProofRejected) {
		t.Fatalf("arbiter accepted mismatched hv: %v", err)
	}
	if got := m.Chain.NonceOf(sellerAddr); got != nonce {
		t.Fatalf("evicted settlements moved the seller's nonce %d → %d", nonce, got)
	}
	// Exchange 1's valid (kc, c, hv, π_k) aimed at exchange 2 passes the
	// fold and reaches the escrow, whose own public-input check refuses it:
	// a reverted receipt that spends the nonce.
	if err := openEscrow(m, buyerAddr, sellerAddr, 2, 500, fr.NewElement(77), listing.KeyCommitment); err != nil {
		t.Fatal(err)
	}
	if err := settleEscrow(m, sellerAddr, 2, st, piK); !errors.Is(err, contracts.ErrBadArgs) {
		t.Fatalf("exchange 2 settled with exchange 1's statement: %v", err)
	}
	if got := m.Chain.NonceOf(sellerAddr); got != nonce+1 {
		t.Fatalf("reverted settlement left the seller's nonce at %d, want %d", got, nonce+1)
	}
	if got := m.Chain.BalanceOf(sellerAddr); got != before {
		t.Fatalf("seller balance moved by refused settlements: %d → %d", before, got)
	}
	// Honest settle still works afterwards, then nothing is refunded.
	if err := settleEscrow(m, sellerAddr, 1, st, piK); err != nil {
		t.Fatal(err)
	}
	if err := refundEscrow(m, buyerAddr, 1); !errors.Is(err, contracts.ErrExchangeSettled) {
		t.Fatalf("refund after settle: %v", err)
	}
}

func TestExchangeRefundPath(t *testing.T) {
	m, sellerAddr, buyerAddr := escrowMarketplace(t)
	if err := openEscrow(m, buyerAddr, sellerAddr, 1, 250, fr.NewElement(9), fr.NewElement(7)); err != nil {
		t.Fatal(err)
	}
	// The marketplace's escrow refunds 100 blocks after the open.
	for i := 0; i <= 100; i++ {
		m.Chain.ProduceBlock(nil)
	}
	before := m.Chain.BalanceOf(buyerAddr)
	if err := refundEscrow(m, buyerAddr, 1); err != nil {
		t.Fatal(err)
	}
	if got := m.Chain.BalanceOf(buyerAddr) - before; got != 250 {
		t.Fatalf("refund %d", got)
	}
	if err := refundEscrow(m, buyerAddr, 1); !errors.Is(err, contracts.ErrExchangeSettled) {
		t.Fatalf("double refund: %v", err)
	}
}

func TestSellerRejectsBadData(t *testing.T) {
	sys := testSys()
	// Data violating the predicate cannot be listed honestly...
	data := Dataset{fr.NewFromInt64(-1)} // huge value, fails range check
	if _, err := NewSeller(sys, data, fr.MustRandom(), RangePredicate{Bits: 16}); !errors.Is(err, ErrPredicateFailed) {
		t.Fatal("predicate-violating listing accepted")
	}
	// ...and a forced proof attempt fails inside the SNARK.
	s := &Seller{sys: sys, pred: RangePredicate{Bits: 16}, data: data, key: fr.MustRandom()}
	s.ct = data.Encrypt(s.key)
	s.cd, s.od = data.Commit()
	s.ck, s.ok = KeyCommit(s.key)
	if _, err := s.ProveData(); err == nil {
		t.Fatal("π_p produced for predicate-violating data")
	}
}

func TestPredicates(t *testing.T) {
	good := Dataset{fr.NewElement(10), fr.NewElement(20)}
	withZero := Dataset{fr.NewElement(10), fr.Zero()}
	big := Dataset{fr.NewFromInt64(-5)}

	if !(TruePredicate{}).Check(big) {
		t.Fatal("true predicate rejected")
	}
	if !(RangePredicate{Bits: 8}).Check(good) || (RangePredicate{Bits: 8}).Check(big) {
		t.Fatal("range predicate wrong")
	}
	sum := SumPredicate{Total: fr.NewElement(30)}
	if !sum.Check(good) || sum.Check(withZero) {
		t.Fatal("sum predicate wrong")
	}
	if !(NonZeroPredicate{}).Check(good) || (NonZeroPredicate{}).Check(withZero) {
		t.Fatal("nonzero predicate wrong")
	}
	names := map[string]bool{}
	for _, p := range []Predicate{TruePredicate{}, RangePredicate{Bits: 8}, sum, NonZeroPredicate{}} {
		if names[p.Name()] {
			t.Fatal("predicate names collide")
		}
		names[p.Name()] = true
	}
}

func TestZKCPVerifierCost(t *testing.T) {
	p := ZKCPVerifierCost(4)
	if p.IsInfinity() {
		t.Fatal("cost model returned infinity")
	}
}

func TestKeyCircuitVK(t *testing.T) {
	sys := testSys()
	vk1, err := sys.KeyCircuitVK()
	if err != nil {
		t.Fatal(err)
	}
	vk2, err := sys.KeyCircuitVK()
	if err != nil {
		t.Fatal(err)
	}
	if vk1 != vk2 {
		t.Fatal("π_k setup not cached")
	}
	if vk1.NbPublic != 3 {
		t.Fatalf("π_k has %d public inputs, want 3", vk1.NbPublic)
	}
}

// TestKeysForSetsUpOncePerShape releases 32 first callers of one uncached
// circuit shape together — what zkdet-node's load mode does with its
// clients at start — and counts plonk.Setup calls: exactly one per shape,
// and every caller holds the same key. A second shape gets its own.
func TestKeysForSetsUpOncePerShape(t *testing.T) {
	sys := NewSystem(testSys().SRS())
	var setups atomic.Int32
	sys.setup = func(cs *plonk.ConstraintSystem, srs *kzg.SRS) (*plonk.ProvingKey, *plonk.VerifyingKey, error) {
		setups.Add(1)
		return plonk.Setup(cs, srs)
	}
	const callers = 32
	pks := make([]*plonk.ProvingKey, callers)
	vks := make([]*plonk.VerifyingKey, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				pks[i], _, _, errs[i] = sys.keysFor(keyCircuitShape, buildKeyCircuit(&KeyStatement{}, &KeyWitness{}))
			} else {
				vks[i], errs[i] = sys.KeyCircuitVK()
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if i%2 == 0 && pks[i] != pks[0] {
			t.Fatalf("caller %d holds a different proving key", i)
		}
		if i%2 == 1 && vks[i] != pks[0].VK {
			t.Fatalf("caller %d holds a different verifying key", i)
		}
	}
	if n := setups.Load(); n != 1 {
		t.Fatalf("plonk.Setup ran %d times for one shape, want 1", n)
	}
	dup4 := transformShape{kind: TransformDuplication, sources: []int{4}, derived: []int{4}}
	if _, _, _, err := sys.keysFor("pi_t/dup/4", buildTransformCircuit(dup4, transformWitness{})); err != nil {
		t.Fatal(err)
	}
	if n := setups.Load(); n != 2 {
		t.Fatalf("plonk.Setup ran %d times for two shapes, want 2", n)
	}
}
