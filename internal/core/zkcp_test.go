package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
	"github.com/zkdet/zkdet/internal/poseidon"
)

// The Zero-Knowledge Contingent Payment baseline of §III-C, executed. ZKCP
// is fair but key-leaking: its Open phase publishes the encryption key k
// to the arbiter, so once a trade settles, anyone holding the public
// ciphertext can decrypt it. ZKCPLeak demonstrates the flaw.

// ZKCPStatement is the public statement of the ZKCP proof π:
// φ(D)=1 ∧ D̂=Enc(k,D) ∧ h=H(k).
type ZKCPStatement struct {
	Nonce         fr.Element
	KeyHash       fr.Element // h = H(k): published, and k is revealed at Open
	Ciphertext    []fr.Element
	PredicateName string
}

func (st *ZKCPStatement) publics() []fr.Element {
	out := make([]fr.Element, 0, len(st.Ciphertext)+2)
	out = append(out, st.Nonce, st.KeyHash)
	out = append(out, st.Ciphertext...)
	return out
}

func buildZKCPCircuit(pred Predicate, st *ZKCPStatement, w *EncryptionWitness) *circuit.Builder {
	b := newHashCircuit()
	nonce := b.Public(st.Nonce)
	h := b.Public(st.KeyHash)
	cts := make([]circuit.Variable, len(st.Ciphertext))
	for i := range st.Ciphertext {
		cts[i] = b.Public(st.Ciphertext[i])
	}
	key := b.Secret(w.Key)
	data := make([]circuit.Variable, len(w.Data))
	for i := range w.Data {
		data[i] = b.Secret(w.Data[i])
	}
	enc := poseidon.GadgetEncryptCTR(b, key, nonce, data)
	for i := range enc {
		b.AssertEqual(enc[i], cts[i])
	}
	b.AssertEqual(poseidon.GadgetHash(b, []circuit.Variable{key}), h)
	pred.Gadget(b, data)
	return b
}

func zkcpKeyFor(pred Predicate, n int) string {
	return fmt.Sprintf("zkcp/%s/%d", pred.Name(), n)
}

// ZKCPSeller is the baseline seller.
type ZKCPSeller struct {
	sys  *System
	pred Predicate
	data Dataset
	key  fr.Element
	ct   Ciphertext
}

// NewZKCPSeller encrypts the dataset for a ZKCP sale.
func NewZKCPSeller(sys *System, data Dataset, key fr.Element, pred Predicate) (*ZKCPSeller, error) {
	if len(data) == 0 {
		return nil, ErrDatasetEmpty
	}
	if !pred.Check(data) {
		return nil, ErrPredicateFailed
	}
	return &ZKCPSeller{sys: sys, pred: pred, data: data.Clone(), key: key, ct: data.Encrypt(key)}, nil
}

// Deliver produces the (h, π_p) message of the Deliver step.
func (s *ZKCPSeller) Deliver() (ZKCPStatement, *plonk.Proof, error) {
	st := ZKCPStatement{
		Nonce:         s.ct.Nonce,
		KeyHash:       poseidon.Hash([]fr.Element{s.key}),
		Ciphertext:    append([]fr.Element{}, s.ct.Blocks...),
		PredicateName: s.pred.Name(),
	}
	w := &EncryptionWitness{Data: s.data, Key: s.key}
	proof, err := s.sys.prove(zkcpKeyFor(s.pred, len(s.data)), func() *circuit.Builder { return buildZKCPCircuit(s.pred, &st, w) })
	if err != nil {
		return ZKCPStatement{}, nil, err
	}
	return st, proof, nil
}

// Open discloses the key — THE flaw: k is now public (§IV-F's motivation).
func (s *ZKCPSeller) Open() fr.Element { return s.key }

// ZKCPVerify is the buyer's verification of the Deliver message.
func ZKCPVerify(sys *System, pred Predicate, st ZKCPStatement, proof *plonk.Proof) error {
	n := len(st.Ciphertext)
	vk, err := sys.vkFor(zkcpKeyFor(pred, n), func() *circuit.Builder {
		dummy := &ZKCPStatement{Ciphertext: make([]fr.Element, n)}
		return buildZKCPCircuit(pred, dummy, &EncryptionWitness{Data: make(Dataset, n)})
	})
	if err != nil {
		return err
	}
	if err := plonk.Verify(vk, proof, st.publics()); err != nil {
		return fmt.Errorf("core: zkcp π: %w", err)
	}
	return nil
}

// ZKCPFinalize is the judge's check of the Open step: h == H(k).
func ZKCPFinalize(st ZKCPStatement, k fr.Element) error {
	if got := poseidon.Hash([]fr.Element{k}); !got.Equal(&st.KeyHash) {
		return errors.New("core: zkcp finalize: H(k) != h")
	}
	return nil
}

// ZKCPLeak demonstrates the key-disclosure flaw: any third party who saw
// the public (D̂, k) after Open can decrypt the dataset.
func ZKCPLeak(st ZKCPStatement, publishedKey fr.Element) Dataset {
	ct := Ciphertext{Nonce: st.Nonce, Blocks: st.Ciphertext}
	return ct.Decrypt(publishedKey)
}

func TestZKCPFlowAndLeak(t *testing.T) {
	sys := testSys()
	data := smallData(4)
	key := fr.MustRandom()
	pred := TruePredicate{}

	seller, err := NewZKCPSeller(sys, data, key, pred)
	if err != nil {
		t.Fatal(err)
	}
	st, proof, err := seller.Deliver()
	if err != nil {
		t.Fatal(err)
	}
	if err := ZKCPVerify(sys, pred, st, proof); err != nil {
		t.Fatalf("zkcp proof rejected: %v", err)
	}
	// Open phase: key goes public; judge accepts.
	k := seller.Open()
	if err := ZKCPFinalize(st, k); err != nil {
		t.Fatal(err)
	}
	// Wrong key rejected by the judge.
	if err := ZKCPFinalize(st, fr.NewElement(1)); err == nil {
		t.Fatal("judge accepted wrong key")
	}
	// THE FLAW: any third party now decrypts the public ciphertext.
	leaked := ZKCPLeak(st, k)
	for i := range data {
		if !leaked[i].Equal(&data[i]) {
			t.Fatal("leak demo failed — zkcp flaw not reproduced")
		}
	}
}
