package core

import (
	"fmt"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
	"github.com/zkdet/zkdet/internal/poseidon"
)

// EncryptionStatement is the public statement of a proof of encryption π_e
// (§IV-B step 1): the published ciphertext plus commitments to the
// plaintext dataset (c_d, reused by transformation and exchange proofs)
// and to the key (c_k, the arbiter's c in §IV-F).
type EncryptionStatement struct {
	Nonce          fr.Element
	DataCommitment fr.Element
	KeyCommitment  fr.Element
	Ciphertext     []fr.Element
}

// EncryptionWitness is the private side of π_e.
type EncryptionWitness struct {
	Data        Dataset
	Key         fr.Element
	DataBlinder fr.Element
	KeyBlinder  fr.Element
}

// publics returns the statement as the circuit's public input vector.
func (st *EncryptionStatement) publics() []fr.Element {
	out := make([]fr.Element, 0, len(st.Ciphertext)+3)
	out = append(out, st.Nonce, st.DataCommitment, st.KeyCommitment)
	out = append(out, st.Ciphertext...)
	return out
}

// commitmentField is the NFT's commitment field, binding (c_d ‖ c_k).
func (st *EncryptionStatement) commitmentField() []byte {
	cdB := st.DataCommitment.Bytes()
	ckB := st.KeyCommitment.Bytes()
	return append(cdB[:], ckB[:]...)
}

// buildEncryptionCircuit emits the π_e relation:
//
//	(ĉ_{2j}, ĉ_{2j+1}) = (d_{2j}, d_{2j+1}) + Poseidon(k, nonce, T+j)[0:2]  for all j
//	c_d = PoseidonCommit(Hash(D), o_d)
//	c_k = PoseidonCommit(k, o_k)
//
// It is the one proof that ties the ciphertext, and so the key that
// decrypts it, to c_d and c_k: π_p and every π_t state D only through c_d.
func buildEncryptionCircuit(st *EncryptionStatement, w *EncryptionWitness) *circuit.Builder {
	b := newHashCircuit()
	nonce := b.Public(st.Nonce)
	cd := b.Public(st.DataCommitment)
	ck := b.Public(st.KeyCommitment)
	cts := make([]circuit.Variable, len(st.Ciphertext))
	for i := range st.Ciphertext {
		cts[i] = b.Public(st.Ciphertext[i])
	}

	key := b.Secret(w.Key)
	od := b.Secret(w.DataBlinder)
	ok := b.Secret(w.KeyBlinder)
	data := make([]circuit.Variable, len(w.Data))
	for i := range w.Data {
		data[i] = b.Secret(w.Data[i])
	}

	enc := poseidon.GadgetEncryptCTR(b, key, nonce, data)
	for i := range enc {
		b.AssertEqual(enc[i], cts[i])
	}
	b.AssertEqual(gadgetCommitData(b, data, od), cd)
	ckGot := poseidon.GadgetCommit(b, []circuit.Variable{key}, ok)
	b.AssertEqual(ckGot, ck)
	return b
}

func encryptionKey(n int) string { return fmt.Sprintf("pi_e/%d", n) }

// EncryptAndProve encrypts the dataset, commits to data and key, and
// produces π_e. It returns the full statement (including fresh commitments
// and blinders) alongside the proof — the decoupled π_e of §IV-B that is
// computed once per dataset and reused by later transformations.
func (s *System) EncryptAndProve(data Dataset, key fr.Element) (*EncryptionStatement, *EncryptionWitness, Ciphertext, *plonk.Proof, error) {
	if len(data) == 0 {
		return nil, nil, Ciphertext{}, nil, ErrDatasetEmpty
	}
	ct := data.Encrypt(key)
	cd, od := data.Commit()
	ck, ok := KeyCommit(key)
	st := &EncryptionStatement{
		Nonce:          ct.Nonce,
		DataCommitment: cd,
		KeyCommitment:  ck,
		Ciphertext:     ct.Blocks,
	}
	w := &EncryptionWitness{Data: data, Key: key, DataBlinder: od, KeyBlinder: ok}
	proof, err := s.proveEncryption(st, w)
	if err != nil {
		return nil, nil, Ciphertext{}, nil, err
	}
	return st, w, ct, proof, nil
}

// proveEncryption proves π_e for a statement whose ciphertext and
// commitments are already fixed.
func (s *System) proveEncryption(st *EncryptionStatement, w *EncryptionWitness) (*plonk.Proof, error) {
	return s.prove(encryptionKey(len(w.Data)), func() *circuit.Builder { return buildEncryptionCircuit(st, w) })
}

// encryptionCheck pairs a π_e with the key and public inputs of its statement.
func (s *System) encryptionCheck(st *EncryptionStatement, proof *plonk.Proof) (proofCheck, error) {
	n := len(st.Ciphertext)
	vk, err := s.vkFor(encryptionKey(n), func() *circuit.Builder {
		dummy := &EncryptionStatement{Ciphertext: make([]fr.Element, n)}
		return buildEncryptionCircuit(dummy, &EncryptionWitness{Data: make(Dataset, n)})
	})
	if err != nil {
		return proofCheck{}, err
	}
	return proofCheck{label: "π_e", vk: vk, proof: proof, public: st.publics()}, nil
}

// VerifyEncryption checks π_e against a public statement.
func (s *System) VerifyEncryption(st *EncryptionStatement, proof *plonk.Proof) error {
	c, err := s.encryptionCheck(st, proof)
	if err != nil {
		return err
	}
	return verifyAll([]proofCheck{c})
}
