package core

import (
	"errors"
	"fmt"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
	"github.com/zkdet/zkdet/internal/poseidon"
)

// This file implements the key-secure two-phase data exchange protocol of
// §IV-F. Unlike ZKCP (zkcp.go), the key k is never published: the seller
// discloses only k_c = k + k_v, where k_v is the buyer's fresh secret, and
// proves with π_k that k_c was formed from the committed k and the hashed
// k_v. A third party observing the public chain and storage learns nothing
// that decrypts D̂.

// Exchange errors.
var (
	ErrPredicateFailed = errors.New("core: dataset violates the predicate")
	ErrKeyMismatch     = errors.New("core: recovered key does not decrypt")
	ErrChallengeHash   = errors.New("core: buyer challenge hash mismatch")
)

// --- π_p: data validation (phase 1) ---

// ValidationStatement is the public statement of π_p:
// φ(D)=1 ∧ D̂=Enc(k,D) ∧ Open(D, c_d, o_d)=1.
type ValidationStatement struct {
	Nonce          fr.Element
	DataCommitment fr.Element
	Ciphertext     []fr.Element
	// PredicateName pins φ (part of the circuit, not an input wire).
	PredicateName string
}

func (st *ValidationStatement) publics() []fr.Element {
	out := make([]fr.Element, 0, len(st.Ciphertext)+2)
	out = append(out, st.Nonce, st.DataCommitment)
	out = append(out, st.Ciphertext...)
	return out
}

func buildValidationCircuit(pred Predicate, st *ValidationStatement, w *EncryptionWitness) *circuit.Builder {
	b := newHashCircuit()
	nonce := b.Public(st.Nonce)
	cd := b.Public(st.DataCommitment)
	cts := make([]circuit.Variable, len(st.Ciphertext))
	for i := range st.Ciphertext {
		cts[i] = b.Public(st.Ciphertext[i])
	}
	key := b.Secret(w.Key)
	od := b.Secret(w.DataBlinder)
	data := make([]circuit.Variable, len(w.Data))
	for i := range w.Data {
		data[i] = b.Secret(w.Data[i])
	}
	enc := poseidon.GadgetEncryptCTR(b, key, nonce, data)
	for i := range enc {
		b.AssertEqual(enc[i], cts[i])
	}
	b.AssertEqual(poseidon.GadgetCommit(b, data, od), cd)
	pred.Gadget(b, data)
	return b
}

func validationKey(pred Predicate, n int) string {
	return fmt.Sprintf("pi_p/%s/%d", pred.Name(), n)
}

// --- π_k: key negotiation (phase 2) ---

// KeyStatement is the public statement of π_k:
// Open(k, c_k, o_k)=1 ∧ h_v=H(k_v) ∧ k_c = k + k_v.
type KeyStatement struct {
	KC            fr.Element // k_c, the blinded key
	KeyCommitment fr.Element // c_k, registered with the arbiter
	HV            fr.Element // h_v = H(k_v), the buyer's challenge hash
}

// KeyWitness is the private side of π_k.
type KeyWitness struct {
	K          fr.Element // the data key
	KV         fr.Element // the buyer's challenge
	KeyBlinder fr.Element // o_k
}

// buildKeyCircuit stays on the classic lowering, deliberately: π_k is the one
// proof that rides in calldata. On the custom-gate shape it would take 148
// rows instead of 1 330, but a custom-gate proof, even with no lookup
// argument, is 1 158 − 774 = 384 bytes longer = +4 608 gas per settlement =
// +0.66 % of an exchange's 694 906 gas, over three times the benchmark's
// 0.2 % gas bound. Moving it is a gas decision, not a default;
// TestHashCircuitsOnCustomShape pins the 322 917-gas settlement.
func buildKeyCircuit(st *KeyStatement, w *KeyWitness) *circuit.Builder {
	b := circuit.NewBuilder()
	kc := b.Public(st.KC)
	ck := b.Public(st.KeyCommitment)
	hv := b.Public(st.HV)
	k := b.Secret(w.K)
	kv := b.Secret(w.KV)
	ok := b.Secret(w.KeyBlinder)
	b.AssertEqual(poseidon.GadgetCommit(b, []circuit.Variable{k}, ok), ck)
	b.AssertEqual(poseidon.GadgetHash(b, []circuit.Variable{kv}), hv)
	b.AssertEqual(b.Add(k, kv), kc)
	return b
}

const keyCircuitShape = "pi_k"

// KeyCircuitVK returns the verifying key of the π_k circuit (used to deploy
// the on-chain verifier the escrow arbiter consults).
func (s *System) KeyCircuitVK() (*plonk.VerifyingKey, error) {
	return s.vkFor(keyCircuitShape, func() *circuit.Builder {
		return buildKeyCircuit(&KeyStatement{}, &KeyWitness{})
	})
}

// HashChallenge computes h_v = H(k_v) with the circuit-friendly hash.
func HashChallenge(kv fr.Element) fr.Element {
	return poseidon.Hash([]fr.Element{kv})
}

// --- Protocol roles ---

// Listing is the public face of a dataset offered for sale: everything the
// buyer and arbiter see before any payment.
type Listing struct {
	Statement ValidationStatement
	// KeyCommitment is c_k: the commitment to k the arbiter is initialized
	// with.
	KeyCommitment fr.Element
	Price         uint64
}

// Seller holds the private state of the data seller S.
type Seller struct {
	sys  *System
	pred Predicate

	data Dataset
	key  fr.Element
	ct   Ciphertext

	cd, od fr.Element
	ck, ok fr.Element
}

// NewSeller initializes S with (D, k, D̂, φ): encrypts the dataset and
// commits to it and to the key.
func NewSeller(sys *System, data Dataset, key fr.Element, pred Predicate) (*Seller, error) {
	if len(data) == 0 {
		return nil, ErrDatasetEmpty
	}
	if !pred.Check(data) {
		return nil, fmt.Errorf("%w: cannot honestly list", ErrPredicateFailed)
	}
	s := &Seller{sys: sys, pred: pred, data: data.Clone(), key: key}
	s.ct = data.Encrypt(key)
	s.cd, s.od = data.Commit()
	s.ck, s.ok = KeyCommit(key)
	return s, nil
}

// Listing returns the public listing.
func (s *Seller) Listing(price uint64) Listing {
	return Listing{
		Statement: ValidationStatement{
			Nonce:          s.ct.Nonce,
			DataCommitment: s.cd,
			Ciphertext:     append([]fr.Element{}, s.ct.Blocks...),
			PredicateName:  s.pred.Name(),
		},
		KeyCommitment: s.ck,
		Price:         price,
	}
}

// Ciphertext returns D̂ for publication to content-addressed storage.
func (s *Seller) Ciphertext() Ciphertext { return s.ct }

// ProveData produces π_p (data validation phase).
func (s *Seller) ProveData() (*plonk.Proof, error) {
	st := s.Listing(0).Statement
	w := &EncryptionWitness{Data: s.data, Key: s.key, DataBlinder: s.od}
	proof, _, err := s.sys.prove(validationKey(s.pred, len(s.data)), buildValidationCircuit(s.pred, &st, w))
	return proof, err
}

// NegotiateKey runs the seller's half of the key negotiation phase: given
// the buyer's challenge k_v (received off-chain) and its on-chain hash h_v,
// it derives k_c = k + k_v and proves π_k. The seller checks h_v = H(k_v)
// first and aborts otherwise (Theorem 5.2's honest-seller behaviour).
func (s *Seller) NegotiateKey(kv, hv fr.Element) (KeyStatement, *plonk.Proof, error) {
	if got := HashChallenge(kv); !got.Equal(&hv) {
		return KeyStatement{}, nil, ErrChallengeHash
	}
	var kc fr.Element
	kc.Add(&s.key, &kv)
	st := KeyStatement{KC: kc, KeyCommitment: s.ck, HV: hv}
	w := &KeyWitness{K: s.key, KV: kv, KeyBlinder: s.ok}
	proof, _, err := s.sys.prove(keyCircuitShape, buildKeyCircuit(&st, w))
	if err != nil {
		return KeyStatement{}, nil, err
	}
	return st, proof, nil
}

// Buyer holds the private state of the data buyer B.
type Buyer struct {
	sys     *System
	listing Listing
	pred    Predicate
	kv      fr.Element
}

// NewBuyer initializes B with the public listing and the predicate it
// expects the data to satisfy.
func NewBuyer(sys *System, listing Listing, pred Predicate) *Buyer {
	return &Buyer{sys: sys, listing: listing, pred: pred}
}

// VerifyData checks π_p against the listing (data validation phase).
func (b *Buyer) VerifyData(proof *plonk.Proof) error {
	st := b.listing.Statement
	n := len(st.Ciphertext)
	vk, err := b.sys.vkFor(validationKey(b.pred, n), func() *circuit.Builder {
		dummy := &ValidationStatement{Ciphertext: make([]fr.Element, n)}
		return buildValidationCircuit(b.pred, dummy, &EncryptionWitness{Data: make(Dataset, n)})
	})
	if err != nil {
		return err
	}
	if err := plonk.Verify(vk, proof, st.publics()); err != nil {
		return fmt.Errorf("core: π_p: %w", err)
	}
	return nil
}

// Challenge draws a fresh secret k_v and returns it with h_v = H(k_v);
// k_v goes to the seller off-chain, h_v to the arbiter with the payment.
func (b *Buyer) Challenge() (kv, hv fr.Element) {
	b.kv = fr.MustRandom()
	return b.kv, HashChallenge(b.kv)
}

// RecoverKey derives k = k_c - k_v once the arbiter publishes k_c.
func (b *Buyer) RecoverKey(kc fr.Element) fr.Element {
	var k fr.Element
	k.Sub(&kc, &b.kv)
	return k
}

// Decrypt recovers and validates the purchased dataset from k_c.
func (b *Buyer) Decrypt(kc fr.Element) (Dataset, error) {
	k := b.RecoverKey(kc)
	ct := Ciphertext{Nonce: b.listing.Statement.Nonce, Blocks: b.listing.Statement.Ciphertext}
	data := ct.Decrypt(k)
	// The commitment in the listing binds the plaintext: recompute it?
	// The buyer cannot (no blinder) — instead the predicate plus π_p
	// soundness guarantee correctness; check φ locally as a sanity net.
	if !b.pred.Check(data) {
		return nil, ErrKeyMismatch
	}
	return data, nil
}
