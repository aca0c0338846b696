package ct

import (
	"fmt"
	"sync"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/plonk"
	"github.com/zkdet/zkdet/internal/poseidon"
)

// RangeBits bounds every confidential amount: v < 2^24. π_ct checks it by
// bit decomposition (24 boolean gates and their recomposition), and sums
// of up to MaxParties amounts stay far below the field modulus, so the
// sigma protocol's balance equation cannot wrap.
const RangeBits = 24

// MaxParties caps the inputs and outputs of one transfer; with 24-bit
// amounts and ≤16 outputs the total value stays below 2^28.
const MaxParties = 16

// RangeSlots is the number of outputs one π_ct covers. On custom gates one
// output's three constraints take 124 rows (49 for the range check, 72 for
// the Poseidon commitment, 3 for the response), so four outputs and the
// nine public inputs fill 506 rows of a 512-row domain; a fifth would
// double it. It is a property of the circuit, not a knob: there is one
// shape, one key, one verifier.
const RangeSlots = 4

// RangeSlot is one output's place in π_ct: the public pair the verifier
// takes from the sigma proof and the prover's secrets behind it.
type RangeSlot struct {
	ZV, PT    fr.Element // public: sigma response z_v, nonce binding P_t
	V, TV, ST fr.Element // secret: amount, sigma nonce t_v, Poseidon blinder s_t
}

// dummyPT is PoseidonCommit(0; 0): with v = t_v = s_t = 0 the zero slot
// (z_v, P_t) = (0, dummyPT) satisfies all three constraints under every
// challenge, so it fills the slots a transfer does not use.
var dummyPT = poseidon.CommitWith([]fr.Element{{}}, fr.Element{})

// BuildRangeCircuit constructs π_ct, the circuit gluing the transfer's
// sigma protocol to an in-circuit range check for up to RangeSlots
// outputs at once. Public inputs (in order): the Fiat–Shamir challenge e,
// then per slot the sigma response z_v and a Poseidon commitment P_t to
// the sigma nonce t_v. Secrets per slot: the amount v, the nonce t_v, and
// the Poseidon blinder s_t. Constraints, per slot under the one e:
//
//	v < 2^RangeBits            (bit decomposition)
//	z_v = t_v + e·v            (the sigma response equation)
//	P_t = PoseidonCommit(t_v; s_t)
//
// Soundness of the glue: P_t enters the transcript before e is squeezed,
// so t_v is fixed first; given (e, z_v, P_t) the circuit's v is then
// uniquely determined as (z_v − t_v)/e, the same value the sigma
// extractor obtains from the commitment-opening equations. A prover
// committing an out-of-range amount would need t_v' ≠ t_v with
// z_v − t_v' ∈ [0, 2^RangeBits) AND PoseidonCommit(t_v'; s') = P_t — a
// Poseidon binding break — or must predict e, so cheating succeeds with
// probability ≈ 2^RangeBits/|Fr| per transcript. The slots share nothing
// but e, so the argument holds slot by slot. Slots past len(live) hold the
// dummy pair. The circuit proves on the custom-gate shape: Poseidon takes
// one row per round and no lookup table pads the domain.
func BuildRangeCircuit(e fr.Element, live []RangeSlot) *circuit.Builder {
	b := circuit.NewBuilder()
	b.EnableCustomGates()
	eV := b.Public(e)
	for i := 0; i < RangeSlots; i++ {
		s := RangeSlot{PT: dummyPT}
		if i < len(live) {
			s = live[i]
		}
		zvV := b.Public(s.ZV)
		ptV := b.Public(s.PT)
		vV := b.Secret(s.V)
		tvV := b.Secret(s.TV)
		stV := b.Secret(s.ST)
		b.AssertRange(vV, RangeBits)
		b.AssertEqual(b.Add(tvV, b.Mul(eV, vV)), zvV)
		b.AssertEqual(poseidon.GadgetCommit(b, []circuit.Variable{tvV}, stV), ptV)
	}
	return b
}

// AuditRangeCircuit instantiates π_ct with a small consistent witness for
// the soundness auditor registry. Every slot is live and distinct: a zero
// dummy slot would let coefficient mutants on its zero wires survive.
func AuditRangeCircuit() *circuit.Builder {
	e := fr.NewElement(31337)
	slots := make([]RangeSlot, RangeSlots)
	for i := range slots {
		s := &slots[i]
		s.V = fr.NewElement(uint64(123456 + 1111*i))
		s.TV = fr.NewElement(uint64(7777 + i))
		s.ST = fr.NewElement(uint64(99 + i))
		s.ZV.Mul(&e, &s.V)
		s.ZV.Add(&s.ZV, &s.TV)
		s.PT = poseidon.CommitWith([]fr.Element{s.TV}, s.ST)
	}
	return BuildRangeCircuit(e, slots)
}

// RangeProver holds the one-time Plonk preprocessing for π_ct over a
// deployment's SRS. The circuit shape is witness-independent, so the keys
// are built once and reused for every proof.
type RangeProver struct {
	srs   *kzg.SRS
	setup func(*plonk.ConstraintSystem, *kzg.SRS) (*plonk.ProvingKey, *plonk.VerifyingKey, error) // plonk.Setup; tests count calls

	mu sync.Mutex
	pk *plonk.ProvingKey   // guarded by mu
	vk *plonk.VerifyingKey // guarded by mu
}

// NewRangeProver wraps an SRS. The SRS must cover π_ct's 512-row domain
// (plonk.Setup asks for degree N+8); Setup reports an undersized SRS on
// first use.
func NewRangeProver(srs *kzg.SRS) *RangeProver {
	return &RangeProver{srs: srs, setup: plonk.Setup}
}

// keys compiles the all-dummy instance and runs Setup once.
func (rp *RangeProver) keys() (*plonk.ProvingKey, *plonk.VerifyingKey, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.pk != nil {
		return rp.pk, rp.vk, nil
	}
	cs, _, err := BuildRangeCircuit(fr.Element{}, nil).Compile()
	if err != nil {
		return nil, nil, fmt.Errorf("ct: compiling pi_ct: %w", err)
	}
	pk, vk, err := rp.setup(cs, rp.srs)
	if err != nil {
		return nil, nil, fmt.Errorf("ct: pi_ct setup: %w", err)
	}
	rp.pk, rp.vk = pk, vk
	return pk, vk, nil
}

// VK returns the π_ct verifying key — what the on-chain range verifier
// contract is deployed with.
func (rp *RangeProver) VK() (*plonk.VerifyingKey, error) {
	_, vk, err := rp.keys()
	return vk, err
}

// Prove generates the π_ct covering 1..RangeSlots outputs under e.
func (rp *RangeProver) Prove(e fr.Element, live []RangeSlot) (*plonk.Proof, error) {
	if len(live) == 0 || len(live) > RangeSlots {
		return nil, fmt.Errorf("ct: pi_ct over %d outputs, want 1..%d", len(live), RangeSlots)
	}
	pk, _, err := rp.keys()
	if err != nil {
		return nil, err
	}
	cs, witness, err := BuildRangeCircuit(e, live).Compile()
	if err != nil {
		return nil, fmt.Errorf("ct: compiling pi_ct witness: %w", err)
	}
	if err := cs.IsSatisfied(witness); err != nil {
		return nil, fmt.Errorf("ct: pi_ct witness: %w", err)
	}
	proof, err := plonk.Prove(pk, witness)
	if err != nil {
		return nil, fmt.Errorf("ct: proving pi_ct: %w", err)
	}
	return proof, nil
}

// RangeInstance is one π_ct with the public inputs it must verify under.
type RangeInstance struct {
	Proof  *plonk.Proof
	Public []fr.Element
}

// rangeInstances pairs each range proof with its public-input vector
// (e, z_v0, P_t0, …, z_v3, P_t3): proof g covers outputs 4g..4g+3, every
// pair taken from the sigma proof the challenge was derived from, and the
// slots past the last output filled with the dummy pair — by the
// verifier, so a prover cannot choose what an unused slot holds.
func (p *Proof) rangeInstances(e fr.Element) []RangeInstance {
	out := make([]RangeInstance, len(p.Ranges))
	for g := range out {
		pub := make([]fr.Element, 1, 1+2*RangeSlots)
		pub[0] = e
		for j := g * RangeSlots; j < (g+1)*RangeSlots; j++ {
			if j < len(p.Outputs) {
				pub = append(pub, p.Outputs[j].ZV, p.Outputs[j].PT)
			} else {
				pub = append(pub, fr.Element{}, dummyPT)
			}
		}
		out[g] = RangeInstance{Proof: p.Ranges[g], Public: pub}
	}
	return out
}
