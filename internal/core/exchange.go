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
	// ErrListingUnproven refuses a listing that carries no π_e: nothing else
	// ties the key that c_k commits to, which the arbiter settles against, to
	// the key that decrypts the listed ciphertext.
	ErrListingUnproven = errors.New("core: listing carries no proof of encryption")
)

// --- π_p: data validation (phase 1) ---

// ValidationStatement is the public statement of π_p:
// φ(D)=1 ∧ Open(D, c_d, o_d)=1. It says nothing of the ciphertext: the
// listing's π_e proves that D̂ encrypts the D of the same c_d under the key
// of c_k, so the buyer checks the two together (Buyer.VerifyData).
type ValidationStatement struct {
	DataCommitment fr.Element
	// PredicateName pins φ (part of the circuit, not an input wire).
	PredicateName string
}

func (st *ValidationStatement) publics() []fr.Element {
	return []fr.Element{st.DataCommitment}
}

func buildValidationCircuit(pred Predicate, st *ValidationStatement, data Dataset, od fr.Element) *circuit.Builder {
	b := newHashCircuit()
	cd := b.Public(st.DataCommitment)
	o := b.Secret(od)
	vals := make([]circuit.Variable, len(data))
	for i := range data {
		vals[i] = b.Secret(data[i])
	}
	b.AssertEqual(gadgetCommitData(b, vals, o), cd)
	pred.Gadget(b, vals)
	return b
}

func validationKey(pred Predicate, n int) string {
	return fmt.Sprintf("pi_p/%s/%d", pred.Name(), n)
}

// validationCheck pairs a π_p of φ over n elements with its key and the
// public input of its statement.
func (s *System) validationCheck(pred Predicate, n int, st *ValidationStatement, proof *plonk.Proof) (proofCheck, error) {
	vk, err := s.vkFor(validationKey(pred, n), func() *circuit.Builder {
		return buildValidationCircuit(pred, &ValidationStatement{}, make(Dataset, n), fr.Element{})
	})
	if err != nil {
		return proofCheck{}, err
	}
	return proofCheck{label: "π_p", vk: vk, proof: proof, public: st.publics()}, nil
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

// buildKeyCircuit compiles π_k on custom gates like every hash circuit: 148
// rows on N = 192, against 1 330 on 1 536 on the classic lowering.
// π_k is the one proof that rides in calldata, and a custom-gate proof is
// 742 bytes, 32 fewer than the 774-byte classic π_k of the version-2
// encoding, so a settlement costs 384 gas less than it did then;
// TestHashCircuitsOnCustomShape pins the 322 533-gas settlement.
func buildKeyCircuit(st *KeyStatement, w *KeyWitness) *circuit.Builder {
	b := newHashCircuit()
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
	// Ciphertext is D̂ with its nonce, as published in storage.
	Ciphertext Ciphertext
	// EncryptionProof is π_e over (nonce, c_d, c_k, D̂): the token's own for
	// a minted asset. It is nil until a seller without a token has run
	// ProveData, and a buyer refuses a listing without it
	// (ErrListingUnproven).
	EncryptionProof *plonk.Proof
	Price           uint64
}

// encryption returns the π_e statement the listing's fields make.
func (l *Listing) encryption() *EncryptionStatement {
	return &EncryptionStatement{
		Nonce:          l.Ciphertext.Nonce,
		DataCommitment: l.Statement.DataCommitment,
		KeyCommitment:  l.KeyCommitment,
		Ciphertext:     l.Ciphertext.Blocks,
	}
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

	// piE is π_e over (ct, cd, ck): the token's for an asset's seller. A
	// tokenless seller (NewSeller) proves its own on the first ProveData.
	piE       *plonk.Proof
	tokenless bool
}

// NewSeller initializes S with (D, k, D̂, φ): encrypts the dataset and
// commits to it and to the key. It is for a seller that holds no token; a
// minted asset is sold by assetSeller. Its π_e is proved by the first
// ProveData, so a seller that only negotiates a key never proves one.
func NewSeller(sys *System, data Dataset, key fr.Element, pred Predicate) (*Seller, error) {
	s, err := newSeller(sys, data, key, pred)
	if err != nil {
		return nil, err
	}
	s.ct = data.Encrypt(key)
	s.cd, s.od = data.Commit()
	s.ck, s.ok = KeyCommit(key)
	s.tokenless = true
	return s, nil
}

// assetSeller is the seller of a minted asset: it lists the token's own
// ciphertext, c_d and c_k with their blinders and π_e, so the buyer checks
// the blob the token points at and the arbiter is opened with the token's
// c_k.
func assetSeller(sys *System, a *Asset, pred Predicate) (*Seller, error) {
	s, err := newSeller(sys, a.Data, a.Key, pred)
	if err != nil {
		return nil, err
	}
	st := a.Statement
	s.ct = Ciphertext{Nonce: st.Nonce, Blocks: st.Ciphertext}
	s.cd, s.od = st.DataCommitment, a.DataBlinder
	s.ck, s.ok = st.KeyCommitment, a.KeyBlinder
	s.piE = a.EncProof
	return s, nil
}

// newSeller checks that S can honestly list D under φ.
func newSeller(sys *System, data Dataset, key fr.Element, pred Predicate) (*Seller, error) {
	if len(data) == 0 {
		return nil, ErrDatasetEmpty
	}
	if !pred.Check(data) {
		return nil, fmt.Errorf("%w: cannot honestly list", ErrPredicateFailed)
	}
	return &Seller{sys: sys, pred: pred, data: data.Clone(), key: key}, nil
}

// Listing returns the public listing.
func (s *Seller) Listing(price uint64) Listing {
	return Listing{
		Statement: ValidationStatement{
			DataCommitment: s.cd,
			PredicateName:  s.pred.Name(),
		},
		KeyCommitment:   s.ck,
		Ciphertext:      Ciphertext{Nonce: s.ct.Nonce, Blocks: append([]fr.Element{}, s.ct.Blocks...)},
		EncryptionProof: s.piE,
		Price:           price,
	}
}

// Ciphertext returns D̂ for publication to content-addressed storage.
func (s *Seller) Ciphertext() Ciphertext { return s.ct }

// ProveData produces π_p (data validation phase). A seller without a token
// proves its π_e first, once, for its listing to carry; an asset's seller
// lists the token's π_e as it is.
func (s *Seller) ProveData() (*plonk.Proof, error) {
	if s.tokenless && s.piE == nil {
		l := s.Listing(0)
		w := &EncryptionWitness{Data: s.data, Key: s.key, DataBlinder: s.od, KeyBlinder: s.ok}
		piE, err := s.sys.proveEncryption(l.encryption(), w)
		if err != nil {
			return nil, err
		}
		s.piE = piE
	}
	st := ValidationStatement{DataCommitment: s.cd, PredicateName: s.pred.Name()}
	return s.sys.prove(validationKey(s.pred, len(s.data)), func() *circuit.Builder {
		return buildValidationCircuit(s.pred, &st, s.data, s.od)
	})
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
	proof, err := s.sys.prove(keyCircuitShape, func() *circuit.Builder { return buildKeyCircuit(&st, w) })
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

// VerifyData checks π_p against the listing (data validation phase),
// together with the listing's π_e in one fold: π_e ties the ciphertext and
// the key c_k commits to to the c_d whose data π_p proves φ of. A listing
// without a π_e is refused with ErrListingUnproven.
func (b *Buyer) VerifyData(proof *plonk.Proof) error {
	l := &b.listing
	if l.EncryptionProof == nil {
		return ErrListingUnproven
	}
	e, err := b.sys.encryptionCheck(l.encryption(), l.EncryptionProof)
	if err != nil {
		return err
	}
	p, err := b.sys.validationCheck(b.pred, len(l.Ciphertext.Blocks), &l.Statement, proof)
	if err != nil {
		return err
	}
	return verifyAll([]proofCheck{e, p})
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
	data := b.listing.Ciphertext.Decrypt(k)
	// VerifyData checked π_e, which encrypts the D of c_d under the key of
	// c_k, and π_k opened that key into k_c, so k decrypts the committed
	// data π_p proved φ of. φ is checked again here only as a local net.
	if !b.pred.Check(data) {
		return nil, ErrKeyMismatch
	}
	return data, nil
}
