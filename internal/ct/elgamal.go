package ct

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
)

// AuditCipher is the designated-auditor encryption of one output's
// opening. The amount travels as exponent ElGamal under the auditor key A:
//
//	E1 = ρ·G,  E2 = v·G + ρ·A
//
// so the auditor recovers v·G = E2 − sk·E1 and solves the RangeBits-bounded
// discrete log. The blinder travels as hashed ElGamal sharing the same
// ephemeral ρ: CR = r + H(ρ·A). The sigma proof of a transfer proves E1/E2
// consistent with the commitment (same v, same ρ); CR is NOT proven in
// zero knowledge — the auditor verifies it after the fact by recomputing
// Commit(v, r) and comparing against the on-chain commitment, so a sender
// who garbles CR is detected (and flagged) at audit time.
type AuditCipher struct {
	E1 bn254.G1Affine
	E2 bn254.G1Affine
	CR fr.Element
}

// Audit errors.
var (
	ErrAuditOpen     = errors.New("ct: audit ciphertext does not open the commitment")
	ErrValueOverflow = errors.New("ct: decrypted value exceeds the range bound")
	ErrBadCipher     = errors.New("ct: malformed audit ciphertext")
)

// keystream derives the hashed-ElGamal pad for the blinder from the shared
// point ρ·A = sk·E1.
func keystream(shared *bn254.G1Affine) fr.Element {
	h := sha256.New()
	h.Write([]byte("zkdet/ct/keystream/v1"))
	b := shared.Bytes()
	h.Write(b[:])
	return fr.FromBytes(h.Sum(nil))
}

// EncryptOpening encrypts (v, r) to the auditor public key with the
// ephemeral scalar rho. The caller proves E1/E2 consistency inside the
// transfer's sigma proof, which is why rho is an input rather than drawn
// here.
func (p *Params) EncryptOpening(auditor *bn254.G1Affine, v uint64, r, rho *fr.Element) AuditCipher {
	vEl := fr.NewElement(v)
	vG := bn254.G1ScalarMul(&p.G, &vEl)
	rhoA := bn254.G1ScalarMul(auditor, rho)
	var c AuditCipher
	c.E1 = bn254.G1ScalarMul(&p.G, rho)
	c.E2 = bn254.G1Add(&vG, &rhoA)
	pad := keystream(&rhoA)
	c.CR.Add(r, &pad)
	return c
}

// Bytes returns the 160-byte encoding E1 ‖ E2 ‖ CR.
func (c *AuditCipher) Bytes() [160]byte {
	var out [160]byte
	e1 := c.E1.Bytes()
	e2 := c.E2.Bytes()
	cr := c.CR.Bytes()
	copy(out[0:64], e1[:])
	copy(out[64:128], e2[:])
	copy(out[128:160], cr[:])
	return out
}

// AuditCipherFromBytes decodes a 160-byte encoding, rejecting off-curve
// points and non-canonical scalars.
func AuditCipherFromBytes(b []byte) (AuditCipher, error) {
	var c AuditCipher
	if len(b) != 160 {
		return c, fmt.Errorf("%w: %d bytes", ErrBadCipher, len(b))
	}
	var err error
	if c.E1, err = bn254.G1FromBytes(b[0:64]); err != nil {
		return c, fmt.Errorf("%w: E1: %w", ErrBadCipher, err)
	}
	if c.E2, err = bn254.G1FromBytes(b[64:128]); err != nil {
		return c, fmt.Errorf("%w: E2: %w", ErrBadCipher, err)
	}
	if c.CR, err = fr.FromBytesCanonical(b[128:160]); err != nil {
		return c, fmt.Errorf("%w: CR: %w", ErrBadCipher, err)
	}
	return c, nil
}

// babyBits splits the RangeBits-bounded discrete log for baby-step
// giant-step: 2^babyBits baby steps and 2^(RangeBits-babyBits) giant
// steps.
const babyBits = RangeBits / 2

// AuditorKey is the designated auditor's ElGamal keypair plus a lazily
// built baby-step table for bounded discrete logs.
type AuditorKey struct {
	sk  fr.Element // the auditor's long-term decryption secret
	pub bn254.G1Affine

	babyOnce sync.Once
	baby     map[[64]byte]uint64 // i·G → i, written once inside babyOnce
	negStep  bn254.G1Affine      // -(2^babyBits)·G
}

// AuditorKeyFromSecret builds the keypair from an existing secret — the
// deterministic constructor cluster genesis and tests use.
func AuditorKeyFromSecret(sk fr.Element) *AuditorKey {
	g := bn254.G1Generator()
	return &AuditorKey{sk: sk, pub: bn254.G1ScalarMul(&g, &sk)}
}

// PublicKey returns A = sk·G, the genesis parameter every replica shares.
func (ak *AuditorKey) PublicKey() bn254.G1Affine { return ak.pub }

// buildBabyTable fills the baby-step table i·G for i < 2^babyBits, keyed
// by the full 64-byte point encoding (no x-coordinate sign ambiguity).
func (ak *AuditorKey) buildBabyTable() {
	g := bn254.G1Generator()
	ak.baby = make(map[[64]byte]uint64, 1<<babyBits)
	var cur bn254.G1Affine // infinity = 0·G
	for i := uint64(0); i < 1<<babyBits; i++ {
		ak.baby[cur.Bytes()] = i
		cur = bn254.G1Add(&cur, &g)
	}
	step := fr.NewElement(1 << babyBits)
	stepP := bn254.G1ScalarMul(&g, &step)
	ak.negStep.Neg(&stepP)
}

// boundedDLog solves target = v·G for v < 2^RangeBits by baby-step
// giant-step.
func (ak *AuditorKey) boundedDLog(target *bn254.G1Affine) (uint64, error) {
	ak.babyOnce.Do(ak.buildBabyTable)
	cur := *target
	for j := uint64(0); j < 1<<(RangeBits-babyBits); j++ {
		if i, ok := ak.baby[cur.Bytes()]; ok {
			return j<<babyBits + i, nil
		}
		cur = bn254.G1Add(&cur, &ak.negStep)
	}
	return 0, ErrValueOverflow
}

// Open decrypts an output's opening and checks it against the on-chain
// commitment. The returned opening always satisfies
// params.Commit(V, R) == c; a ciphertext whose CR component was garbled by
// the sender fails the check and surfaces as ErrAuditOpen — the sigma
// proof guarantees the amount v is the committed one, so an ErrAuditOpen
// with a successfully decrypted v indicates a corrupted blinder channel,
// not a forged amount.
func (ak *AuditorKey) Open(params *Params, c Commitment, cipher *AuditCipher) (Opening, error) {
	shared := bn254.G1ScalarMul(&cipher.E1, &ak.sk)
	var negShared bn254.G1Affine
	negShared.Neg(&shared)
	vG := bn254.G1Add(&cipher.E2, &negShared)
	v, err := ak.boundedDLog(&vG)
	if err != nil {
		return Opening{}, err
	}
	pad := keystream(&shared)
	var r fr.Element
	r.Sub(&cipher.CR, &pad)
	if !params.Commit(v, &r).Equal(c) {
		return Opening{}, fmt.Errorf("%w: v=%d", ErrAuditOpen, v)
	}
	return Opening{V: v, R: r}, nil
}
