package ct

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
	"github.com/zkdet/zkdet/internal/poseidon"
	"github.com/zkdet/zkdet/internal/transcript"
)

// Transfer errors.
var (
	ErrProofInvalid = errors.New("ct: transfer proof rejected")
	ErrBadStatement = errors.New("ct: malformed transfer statement")
	ErrUnbalanced   = errors.New("ct: inputs and outputs do not balance")
	ErrOutOfRange   = errors.New("ct: amount exceeds the range bound")
)

// Output is one confidential note being created: its commitment and the
// auditor ciphertext of its opening.
type Output struct {
	C     Commitment
	Audit AuditCipher
}

// NewOutput builds a consistent output from its secrets: the commitment
// to (v, r) and the auditor encryption of the opening under the ephemeral
// scalar rho.
func (p *Params) NewOutput(auditor *bn254.G1Affine, v uint64, r, rho *fr.Element) Output {
	return Output{
		C:     p.Commit(v, r),
		Audit: p.EncryptOpening(auditor, v, r, rho),
	}
}

// OutputSecret is the prover's side of one output.
type OutputSecret struct {
	V   uint64
	R   fr.Element // commitment blinder
	Rho fr.Element // audit-encryption ephemeral
}

// Statement is the public side of a confidential transfer: the spent
// input commitments, the created outputs, whether this is an issuer mint
// (no inputs, no balance relation — supply enters by issuer fiat), and a
// context string binding the proof to its chain position (sender, spent
// note ids, recipients) so it cannot be replayed elsewhere.
type Statement struct {
	Mint    bool
	Inputs  []Commitment
	Outputs []Output
	Context []byte
}

// OutputProof is the per-output part of a transfer proof: the sigma nonce
// commitments, the Poseidon nonce binding P_t, and the responses.
type OutputProof struct {
	TOpen bn254.G1Affine // t_v·G + t_r·H
	TEnc1 bn254.G1Affine // t_ρ·G
	TEnc2 bn254.G1Affine // t_v·G + t_ρ·A
	PT    fr.Element     // PoseidonCommit(t_v; s_t)
	ZV    fr.Element     // t_v + e·v
	ZR    fr.Element     // t_r + e·r
	ZRho  fr.Element     // t_ρ + e·ρ
}

// Proof is a complete confidential-transfer proof: one AND-composed sigma
// protocol over all outputs plus the balance relation, with a single
// Fiat–Shamir challenge, and one π_ct per RangeSlots outputs: Ranges[g]
// covers Outputs[4g..4g+3] under (e, their ZV and PT).
type Proof struct {
	TBal    bn254.G1Affine // t_δ·H (zero for mints)
	ZBal    fr.Element     // t_δ + e·δ, δ = Σr_in − Σr_out
	Outputs []OutputProof
	Ranges  []*plonk.Proof
}

// rangeCount is the number of range proofs a transfer of n outputs carries.
func rangeCount(n int) int { return (n + RangeSlots - 1) / RangeSlots }

// appendLen absorbs a length prefix so adjacent variable-length lists
// cannot be reinterpreted across boundaries.
func appendLen(tr *transcript.Transcript, label string, n int) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(n))
	tr.AppendBytes(label, b[:])
}

// challenge replays the Fiat–Shamir transcript of a transfer proof and
// returns its challenge e. The transcript binds the Pedersen bases, the
// auditor key, the full statement (kind, context, inputs, outputs with
// their audit ciphertexts) and every sigma nonce commitment — including
// each output's Poseidon nonce binding P_t, which is what makes the π_ct
// glue sound (t_v is fixed before e exists).
func challenge(params *Params, auditor *bn254.G1Affine, st *Statement, p *Proof) fr.Element {
	tr := transcript.New("zkdet/ct/transfer/v1")
	tr.AppendPoint("G", &params.G)
	tr.AppendPoint("H", &params.H)
	tr.AppendPoint("A", auditor)
	kind := byte(0)
	if st.Mint {
		kind = 1
	}
	tr.AppendBytes("kind", []byte{kind})
	appendLen(tr, "ctx-len", len(st.Context))
	tr.AppendBytes("ctx", st.Context)
	appendLen(tr, "inputs", len(st.Inputs))
	for i := range st.Inputs {
		tr.AppendPoint("in", &st.Inputs[i].P)
	}
	appendLen(tr, "outputs", len(st.Outputs))
	for i := range st.Outputs {
		o := &st.Outputs[i]
		tr.AppendPoint("out", &o.C.P)
		tr.AppendPoint("e1", &o.Audit.E1)
		tr.AppendPoint("e2", &o.Audit.E2)
		tr.AppendScalar("cr", &o.Audit.CR)
	}
	tr.AppendPoint("t-bal", &p.TBal)
	for i := range p.Outputs {
		op := &p.Outputs[i]
		tr.AppendPoint("t-open", &op.TOpen)
		tr.AppendPoint("t-enc1", &op.TEnc1)
		tr.AppendPoint("t-enc2", &op.TEnc2)
		tr.AppendScalar("p-t", &op.PT)
	}
	return tr.ChallengeScalar("e")
}

// checkShape validates the statement/proof arity invariants shared by
// proving and verifying; the prover, with no proof yet, passes nil.
func checkShape(st *Statement, p *Proof) error {
	if len(st.Outputs) == 0 {
		return fmt.Errorf("%w: no outputs", ErrBadStatement)
	}
	if len(st.Outputs) > MaxParties || len(st.Inputs) > MaxParties {
		return fmt.Errorf("%w: more than %d parties", ErrBadStatement, MaxParties)
	}
	if st.Mint && len(st.Inputs) != 0 {
		return fmt.Errorf("%w: mint with inputs", ErrBadStatement)
	}
	if !st.Mint && len(st.Inputs) == 0 {
		return fmt.Errorf("%w: transfer without inputs", ErrBadStatement)
	}
	if p == nil {
		return nil
	}
	if len(p.Outputs) != len(st.Outputs) {
		return fmt.Errorf("%w: %d outputs, %d output proofs", ErrBadStatement, len(st.Outputs), len(p.Outputs))
	}
	if want := rangeCount(len(st.Outputs)); len(p.Ranges) != want {
		return fmt.Errorf("%w: %d outputs take %d range proofs, have %d", ErrBadStatement, len(st.Outputs), want, len(p.Ranges))
	}
	return nil
}

// Prove builds a transfer proof. ins are the openings of st.Inputs (same
// order); outs the secrets of st.Outputs. The range prover supplies one
// π_ct per RangeSlots outputs. rng defaults to crypto/rand when nil.
func Prove(params *Params, rp *RangeProver, auditor *bn254.G1Affine, st *Statement, ins []Opening, outs []OutputSecret, rng io.Reader) (*Proof, error) {
	if rng == nil {
		rng = rand.Reader
	}
	if err := checkShape(st, nil); err != nil {
		return nil, err
	}
	if len(ins) != len(st.Inputs) || len(outs) != len(st.Outputs) {
		return nil, fmt.Errorf("%w: secrets do not match statement arity", ErrBadStatement)
	}
	// Prover-side sanity: the secrets must reproduce the public statement
	// and balance. Catching misuse here beats minting an unprovable or
	// unauditable note on-chain.
	var sumIn, sumOut uint64
	for i := range ins {
		if ins[i].V >= 1<<RangeBits {
			return nil, fmt.Errorf("%w: input %d", ErrOutOfRange, i)
		}
		sumIn += ins[i].V
		if !params.Commit(ins[i].V, &ins[i].R).Equal(st.Inputs[i]) {
			return nil, fmt.Errorf("%w: input %d opening mismatch", ErrBadStatement, i)
		}
	}
	for i := range outs {
		if outs[i].V >= 1<<RangeBits {
			return nil, fmt.Errorf("%w: output %d", ErrOutOfRange, i)
		}
		sumOut += outs[i].V
		want := params.NewOutput(auditor, outs[i].V, &outs[i].R, &outs[i].Rho)
		if !want.C.Equal(st.Outputs[i].C) || want.Audit != st.Outputs[i].Audit {
			return nil, fmt.Errorf("%w: output %d secrets mismatch", ErrBadStatement, i)
		}
	}
	if !st.Mint && sumIn != sumOut {
		return nil, fmt.Errorf("%w: in=%d out=%d", ErrUnbalanced, sumIn, sumOut)
	}

	proof, e, slots, err := proveSigma(params, auditor, st, ins, outs, rng)
	if err != nil {
		return nil, err
	}
	// The slots hold t_v beside the amount; destroyed before returning —
	// leaking t_v with (e, z_v) public reveals the amount.
	defer clear(slots)
	for lo := 0; lo < len(slots); lo += RangeSlots {
		rangeProof, err := rp.Prove(e, slots[lo:min(lo+RangeSlots, len(slots))])
		if err != nil {
			return nil, err
		}
		proof.Ranges = append(proof.Ranges, rangeProof)
	}
	return proof, nil
}

// proveSigma is the sigma half of Prove: the nonce commitments, the
// challenge and the responses. It returns the proof without its range
// proofs, the challenge, and each output's π_ct slot — secrets the caller
// must destroy (on error there are none). It does not look at the amounts:
// keeping them in range is Prove's check and the circuit's.
func proveSigma(params *Params, auditor *bn254.G1Affine, st *Statement, ins []Opening, outs []OutputSecret, rng io.Reader) (*Proof, fr.Element, []RangeSlot, error) {
	n := len(st.Outputs)
	proof := &Proof{Outputs: make([]OutputProof, n)}
	slots := make([]RangeSlot, n) // t_v and s_t from here, v and z_v once e exists
	trs := make([]fr.Element, n)
	trhos := make([]fr.Element, n)
	defer zeroizeScalars(trs, trhos)
	fail := func(err error) (*Proof, fr.Element, []RangeSlot, error) {
		clear(slots)
		return nil, fr.Element{}, nil, fmt.Errorf("ct: sampling nonce: %w", err)
	}
	for i := 0; i < n; i++ {
		var err error
		if slots[i].TV, err = fr.Random(rng); err != nil {
			return fail(err)
		}
		if trs[i], err = fr.Random(rng); err != nil {
			return fail(err)
		}
		if trhos[i], err = fr.Random(rng); err != nil {
			return fail(err)
		}
		if slots[i].ST, err = fr.Random(rng); err != nil {
			return fail(err)
		}
		op := &proof.Outputs[i]
		tvG := bn254.G1ScalarMul(&params.G, &slots[i].TV)
		trH := bn254.G1ScalarMul(&params.H, &trs[i])
		op.TOpen = bn254.G1Add(&tvG, &trH)
		op.TEnc1 = bn254.G1ScalarMul(&params.G, &trhos[i])
		trhoA := bn254.G1ScalarMul(auditor, &trhos[i])
		op.TEnc2 = bn254.G1Add(&tvG, &trhoA)
		op.PT = poseidon.CommitWith([]fr.Element{slots[i].TV}, slots[i].ST)
	}
	var tdelta fr.Element
	if !st.Mint {
		var err error
		if tdelta, err = fr.Random(rng); err != nil {
			return fail(err)
		}
		proof.TBal = bn254.G1ScalarMul(&params.H, &tdelta)
	}
	defer tdelta.SetZero()

	e := challenge(params, auditor, st, proof)

	for i := 0; i < n; i++ {
		op := &proof.Outputs[i]
		slots[i].V = fr.NewElement(outs[i].V)
		var ev, er, erho fr.Element
		ev.Mul(&e, &slots[i].V)
		op.ZV.Add(&slots[i].TV, &ev)
		er.Mul(&e, &outs[i].R)
		op.ZR.Add(&trs[i], &er)
		erho.Mul(&e, &outs[i].Rho)
		op.ZRho.Add(&trhos[i], &erho)
		slots[i].ZV, slots[i].PT = op.ZV, op.PT
	}
	if !st.Mint {
		var delta fr.Element
		for i := range ins {
			delta.Add(&delta, &ins[i].R)
		}
		for i := range outs {
			delta.Sub(&delta, &outs[i].R)
		}
		var ed fr.Element
		ed.Mul(&e, &delta)
		proof.ZBal.Add(&tdelta, &ed)
		delta.SetZero()
	}
	return proof, e, slots, nil
}

// zeroizeScalars destroys sigma nonces in place.
func zeroizeScalars(lists ...[]fr.Element) {
	for _, l := range lists {
		for i := range l {
			l[i].SetZero()
		}
	}
}

// VerifySigma checks the sigma-protocol part of a transfer proof: every
// output's commitment-opening and audit-consistency equations, and (for
// non-mints) the balance relation. It is stateless and pairing-free —
// cheap enough for the gossip screen — but does NOT check ranges; Verify
// adds the π_ct checks, and the seal path batches the instances
// RangeInstances hands it via plonk.Batch.AddFor.
//
// Checked equations, with e the replayed Fiat–Shamir challenge:
//
//	z_v·G + z_r·H        == T_open + e·C        (opening knowledge)
//	z_ρ·G                == T_enc1 + e·E1       (ephemeral knowledge)
//	z_v·G + z_ρ·A        == T_enc2 + e·E2       (same v, same ρ ⇒ cipher matches commitment)
//	z_δ·H                == T_bal + e·(ΣC_in − ΣC_out)
//
// The balance equation is sound because a non-zero amount difference
// would make ΣC_in − ΣC_out carry a G component, and responding would
// require knowing log_G(H).
func VerifySigma(params *Params, auditor *bn254.G1Affine, st *Statement, p *Proof) error {
	_, err := verifySigma(params, auditor, st, p)
	return err
}

// verifySigma is VerifySigma returning the challenge it replayed, so a
// caller going on to the range proofs does not hash the transcript twice.
func verifySigma(params *Params, auditor *bn254.G1Affine, st *Statement, p *Proof) (fr.Element, error) {
	if err := checkShape(st, p); err != nil {
		return fr.Element{}, err
	}
	e := challenge(params, auditor, st, p)
	for i := range p.Outputs {
		op := &p.Outputs[i]
		o := &st.Outputs[i]
		zvG := bn254.G1ScalarMul(&params.G, &op.ZV)
		zrH := bn254.G1ScalarMul(&params.H, &op.ZR)
		lhs := bn254.G1Add(&zvG, &zrH)
		eC := bn254.G1ScalarMul(&o.C.P, &e)
		rhs := bn254.G1Add(&op.TOpen, &eC)
		if !lhs.Equal(&rhs) {
			return fr.Element{}, fmt.Errorf("%w: output %d opening equation", ErrProofInvalid, i)
		}
		lhs = bn254.G1ScalarMul(&params.G, &op.ZRho)
		eE1 := bn254.G1ScalarMul(&o.Audit.E1, &e)
		rhs = bn254.G1Add(&op.TEnc1, &eE1)
		if !lhs.Equal(&rhs) {
			return fr.Element{}, fmt.Errorf("%w: output %d audit ephemeral equation", ErrProofInvalid, i)
		}
		zrhoA := bn254.G1ScalarMul(auditor, &op.ZRho)
		lhs = bn254.G1Add(&zvG, &zrhoA)
		eE2 := bn254.G1ScalarMul(&o.Audit.E2, &e)
		rhs = bn254.G1Add(&op.TEnc2, &eE2)
		if !lhs.Equal(&rhs) {
			return fr.Element{}, fmt.Errorf("%w: output %d audit consistency equation", ErrProofInvalid, i)
		}
	}
	if !st.Mint {
		d := st.Inputs[0]
		for i := 1; i < len(st.Inputs); i++ {
			d = d.Add(st.Inputs[i])
		}
		for i := range st.Outputs {
			d = d.Sub(st.Outputs[i].C)
		}
		lhs := bn254.G1ScalarMul(&params.H, &p.ZBal)
		eD := bn254.G1ScalarMul(&d.P, &e)
		rhs := bn254.G1Add(&p.TBal, &eD)
		if !lhs.Equal(&rhs) {
			return fr.Element{}, fmt.Errorf("%w: balance equation", ErrProofInvalid)
		}
	}
	return e, nil
}

// RangeInstances checks the sigma part of a transfer proof and returns
// what is left to verify: every range proof with its public inputs under
// the challenge the sigma check replayed. Verify folds them in one batch;
// the token contract sends each to the deployed verifier and the block
// proof check folds them.
func (p *Proof) RangeInstances(params *Params, auditor *bn254.G1Affine, st *Statement) ([]RangeInstance, error) {
	e, err := verifySigma(params, auditor, st, p)
	if err != nil {
		return nil, err
	}
	return p.rangeInstances(e), nil
}

// Verify checks a transfer proof completely: the sigma equations plus
// every π_ct range proof against the shared challenge, folded into one
// pairing check.
func Verify(params *Params, vk *plonk.VerifyingKey, auditor *bn254.G1Affine, st *Statement, p *Proof) error {
	ris, err := p.RangeInstances(params, auditor, st)
	if err != nil {
		return err
	}
	batch := plonk.NewBatch(vk)
	for g, ri := range ris {
		if err := batch.Add(ri.Proof, ri.Public); err != nil {
			return fmt.Errorf("%w: range proof %d: %w", ErrProofInvalid, g, err)
		}
	}
	if err := batch.Check(); err != nil {
		return fmt.Errorf("%w: range proofs: %w", ErrProofInvalid, err)
	}
	return nil
}
