package core

import (
	"errors"
	"fmt"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/mimc"
	"github.com/zkdet/zkdet/internal/plonk"
	"github.com/zkdet/zkdet/internal/poseidon"
)

// This file implements the generic data transformation protocol of §IV-B
// with the predicates of §IV-D. Transformation proofs π_t relate Poseidon
// commitments of the source and derived datasets; they compose with the
// decoupled proofs of encryption π_e through the shared commitments
// (the commit-and-prove composition of the paper's CP-NIZK).

// TransformKindName labels the §III-B formulae.
type TransformKindName string

// Transformation kinds.
const (
	TransformDuplication TransformKindName = "duplication"
	TransformAggregation TransformKindName = "aggregation"
	TransformPartition   TransformKindName = "partition"
	TransformProcessing  TransformKindName = "processing"
)

// TransformProof is a proof of transformation π_t: the statement relates
// source commitment(s) to derived commitment(s); Kind and Shape pin the
// circuit that was used.
type TransformProof struct {
	Kind    TransformKindName
	Shape   []int // size parameters of the circuit (see per-kind docs)
	Sources []fr.Element
	Derived []fr.Element
	Proof   *plonk.Proof
}

// ErrBadShape reports inconsistent transformation size parameters.
var ErrBadShape = errors.New("core: invalid transformation shape")

// --- Duplication (§IV-D1): D == S, fresh commitment ---

func buildDuplicationCircuit(n int, s Dataset, cs, cd, os, od fr.Element) *circuit.Builder {
	b := newHashCircuit()
	csPub := b.Public(cs)
	cdPub := b.Public(cd)
	osv := b.Secret(os)
	odv := b.Secret(od)
	vals := make([]circuit.Variable, n)
	for i := 0; i < n; i++ {
		var v fr.Element
		if i < len(s) {
			v = s[i]
		}
		vals[i] = b.Secret(v)
	}
	b.AssertEqual(poseidon.GadgetCommit(b, vals, osv), csPub)
	b.AssertEqual(poseidon.GadgetCommit(b, vals, odv), cdPub)
	return b
}

// ProveDuplication produces π_t for a duplication: the same plaintext under
// two independent commitments (c_s with blinder o_s, c_d with fresh o_d).
func (s *System) ProveDuplication(data Dataset, cs, os fr.Element) (*TransformProof, fr.Element, error) {
	if len(data) == 0 {
		return nil, fr.Element{}, ErrDatasetEmpty
	}
	cd, od := data.Commit()
	tp, err := s.proveDuplicationWith(data, cs, os, cd, od)
	if err != nil {
		return nil, fr.Element{}, err
	}
	return tp, od, nil
}

// proveDuplicationWith is ProveDuplication against a caller-supplied
// derived commitment (shared with the derived asset's π_e).
func (s *System) proveDuplicationWith(data Dataset, cs, os, cd, od fr.Element) (*TransformProof, error) {
	key := fmt.Sprintf("pi_t/dup/%d", len(data))
	proof, _, err := s.prove(key, buildDuplicationCircuit(len(data), data, cs, cd, os, od))
	if err != nil {
		return nil, err
	}
	return &TransformProof{
		Kind:    TransformDuplication,
		Shape:   []int{len(data)},
		Sources: []fr.Element{cs},
		Derived: []fr.Element{cd},
		Proof:   proof,
	}, nil
}

// --- Aggregation (§IV-D2): D = S_1 ‖ … ‖ S_x in order ---

func buildAggregationCircuit(sizes []int, srcs []Dataset, csList []fr.Element, cd fr.Element, osList []fr.Element, od fr.Element) *circuit.Builder {
	b := newHashCircuit()
	csPubs := make([]circuit.Variable, len(sizes))
	for i := range sizes {
		csPubs[i] = b.Public(csList[i])
	}
	cdPub := b.Public(cd)
	odv := b.Secret(od)
	var all []circuit.Variable
	for k, n := range sizes {
		osv := b.Secret(osList[k])
		vals := make([]circuit.Variable, n)
		for i := 0; i < n; i++ {
			var v fr.Element
			if k < len(srcs) && i < len(srcs[k]) {
				v = srcs[k][i]
			}
			vals[i] = b.Secret(v)
		}
		b.AssertEqual(poseidon.GadgetCommit(b, vals, osv), csPubs[k])
		all = append(all, vals...)
	}
	b.AssertEqual(poseidon.GadgetCommit(b, all, odv), cdPub)
	return b
}

// ProveAggregation produces π_t for merging sources (in order) into their
// concatenation, returning the proof, the derived dataset, its commitment
// blinder o_d. Each source arrives with its existing commitment/blinder.
func (s *System) ProveAggregation(srcs []Dataset, csList, osList []fr.Element) (*TransformProof, Dataset, fr.Element, error) {
	if len(srcs) < 2 {
		return nil, nil, fr.Element{}, fmt.Errorf("%w: aggregation needs ≥2 sources", ErrBadShape)
	}
	if len(csList) != len(srcs) || len(osList) != len(srcs) {
		return nil, nil, fr.Element{}, fmt.Errorf("%w: commitment count mismatch", ErrBadShape)
	}
	sizes := make([]int, len(srcs))
	var derived Dataset
	for i, src := range srcs {
		if len(src) == 0 {
			return nil, nil, fr.Element{}, ErrDatasetEmpty
		}
		sizes[i] = len(src)
		derived = append(derived, src...)
	}
	cd, od := derived.Commit()
	tp, err := s.proveAggregationWith(srcs, csList, osList, cd, od)
	if err != nil {
		return nil, nil, fr.Element{}, err
	}
	return tp, derived, od, nil
}

// proveAggregationWith is ProveAggregation against a caller-supplied
// derived commitment.
func (s *System) proveAggregationWith(srcs []Dataset, csList, osList []fr.Element, cd, od fr.Element) (*TransformProof, error) {
	sizes := make([]int, len(srcs))
	for i := range srcs {
		sizes[i] = len(srcs[i])
	}
	key := fmt.Sprintf("pi_t/agg/%v", sizes)
	proof, _, err := s.prove(key, buildAggregationCircuit(sizes, srcs, csList, cd, osList, od))
	if err != nil {
		return nil, err
	}
	return &TransformProof{
		Kind:    TransformAggregation,
		Shape:   sizes,
		Sources: append([]fr.Element{}, csList...),
		Derived: []fr.Element{cd},
		Proof:   proof,
	}, nil
}

// --- Partition (§IV-D3): S = D_1 ∪ … ∪ D_y, exhaustive and disjoint ---
//
// The circuit realizes the paper's predicate by construction: the derived
// pieces are consecutive, non-empty sub-vectors whose concatenation is
// exactly S — which is both exhaustive (every element appears) and
// mutually exclusive (positions do not overlap).

func buildPartitionCircuit(sizes []int, src Dataset, cs fr.Element, cdList []fr.Element, os fr.Element, odList []fr.Element) *circuit.Builder {
	b := newHashCircuit()
	csPub := b.Public(cs)
	cdPubs := make([]circuit.Variable, len(sizes))
	for i := range sizes {
		cdPubs[i] = b.Public(cdList[i])
	}
	osv := b.Secret(os)
	total := 0
	for _, n := range sizes {
		total += n
	}
	vals := make([]circuit.Variable, total)
	for i := 0; i < total; i++ {
		var v fr.Element
		if i < len(src) {
			v = src[i]
		}
		vals[i] = b.Secret(v)
	}
	b.AssertEqual(poseidon.GadgetCommit(b, vals, osv), csPub)
	off := 0
	for k, n := range sizes {
		odv := b.Secret(odList[k])
		b.AssertEqual(poseidon.GadgetCommit(b, vals[off:off+n], odv), cdPubs[k])
		off += n
	}
	return b
}

// ProvePartition produces π_t for splitting the source into consecutive
// pieces of the given sizes, returning the proof, the pieces and their
// blinders.
func (s *System) ProvePartition(src Dataset, cs, os fr.Element, sizes []int) (*TransformProof, []Dataset, []fr.Element, error) {
	if len(sizes) < 2 {
		return nil, nil, nil, fmt.Errorf("%w: partition needs ≥2 pieces", ErrBadShape)
	}
	total := 0
	for _, n := range sizes {
		if n <= 0 {
			return nil, nil, nil, fmt.Errorf("%w: empty piece", ErrBadShape)
		}
		total += n
	}
	if total != len(src) {
		return nil, nil, nil, fmt.Errorf("%w: pieces cover %d of %d elements", ErrBadShape, total, len(src))
	}
	pieces := make([]Dataset, len(sizes))
	cdList := make([]fr.Element, len(sizes))
	odList := make([]fr.Element, len(sizes))
	off := 0
	for k, n := range sizes {
		pieces[k] = src[off : off+n].Clone()
		cdList[k], odList[k] = pieces[k].Commit()
		off += n
	}
	tp, err := s.provePartitionWith(src, cs, os, sizes, cdList, odList)
	if err != nil {
		return nil, nil, nil, err
	}
	return tp, pieces, odList, nil
}

// provePartitionWith is ProvePartition against caller-supplied derived
// commitments.
func (s *System) provePartitionWith(src Dataset, cs, os fr.Element, sizes []int, cdList, odList []fr.Element) (*TransformProof, error) {
	key := fmt.Sprintf("pi_t/part/%v", sizes)
	proof, _, err := s.prove(key, buildPartitionCircuit(sizes, src, cs, cdList, os, odList))
	if err != nil {
		return nil, err
	}
	return &TransformProof{
		Kind:    TransformPartition,
		Shape:   append([]int{}, sizes...),
		Sources: []fr.Element{cs},
		Derived: append([]fr.Element{}, cdList...),
		Proof:   proof,
	}, nil
}

// --- Processing (§IV-D4): D = f(S) for a pluggable f ---

// Processor is a data-processing transformation f with both a native
// implementation and a circuit gadget; the applications of §IV-E (logistic
// regression, transformer) implement it.
type Processor interface {
	// Name identifies the circuit shape (must change when parameters do).
	Name() string
	// Apply computes D = f(S) natively.
	Apply(src Dataset) (Dataset, error)
	// Gadget emits f as constraints and returns the output wires.
	Gadget(b *circuit.Builder, src []circuit.Variable) []circuit.Variable
}

// LookupProcessor is an optional Processor extension: a processor whose
// WantsLookupCircuit returns true has its π_t circuit compiled with the
// range-table lookup lowering and custom hash gates (DESIGN.md §15),
// cutting the constraint count of range-check-heavy gadgets by multiples.
// Prover and verifier rebuild the circuit from the same Processor, so the
// flag is part of the circuit shape and needs no extra statement data.
type LookupProcessor interface {
	WantsLookupCircuit() bool
}

// buildProcessingCircuit leaves the lowering to the Processor (classic unless
// it implements LookupProcessor), deliberately: a processing circuit is its
// gadget, not its two commitments. Forcing custom gates alone onto
// range-check-dominated processors made them slower — same row count, but
// the 8n coset and 15 commitments of the custom shape: the transformer smoke
// row went 1.2–1.5 s → 2.3–3.0 s, logreg was flat (EXPERIMENTS.md §PR 22).
func buildProcessingCircuit(p Processor, n int, src Dataset, cs, cd, os, od fr.Element) *circuit.Builder {
	b := circuit.NewBuilder()
	if lp, ok := p.(LookupProcessor); ok && lp.WantsLookupCircuit() {
		b.EnableLookups(circuit.DefaultRangeTableBits)
		b.EnableCustomGates()
	}
	csPub := b.Public(cs)
	cdPub := b.Public(cd)
	osv := b.Secret(os)
	odv := b.Secret(od)
	vals := make([]circuit.Variable, n)
	for i := 0; i < n; i++ {
		var v fr.Element
		if i < len(src) {
			v = src[i]
		}
		vals[i] = b.Secret(v)
	}
	b.AssertEqual(poseidon.GadgetCommit(b, vals, osv), csPub)
	out := p.Gadget(b, vals)
	b.AssertEqual(poseidon.GadgetCommit(b, out, odv), cdPub)
	return b
}

// ProveProcessing produces π_t for D = f(S), returning the proof, derived
// dataset and its blinder.
func (s *System) ProveProcessing(p Processor, src Dataset, cs, os fr.Element) (*TransformProof, Dataset, fr.Element, error) {
	if len(src) == 0 {
		return nil, nil, fr.Element{}, ErrDatasetEmpty
	}
	derived, err := p.Apply(src)
	if err != nil {
		return nil, nil, fr.Element{}, fmt.Errorf("core: processing %s: %w", p.Name(), err)
	}
	cd, od := derived.Commit()
	tp, err := s.proveProcessingWith(p, src, cs, os, cd, od)
	if err != nil {
		return nil, nil, fr.Element{}, err
	}
	return tp, derived, od, nil
}

// proveProcessingWith is ProveProcessing against a caller-supplied derived
// commitment.
func (s *System) proveProcessingWith(p Processor, src Dataset, cs, os, cd, od fr.Element) (*TransformProof, error) {
	derived, err := p.Apply(src)
	if err != nil {
		return nil, fmt.Errorf("core: processing %s: %w", p.Name(), err)
	}
	key := fmt.Sprintf("pi_t/proc/%s/%d", p.Name(), len(src))
	proof, _, err := s.prove(key, buildProcessingCircuit(p, len(src), src, cs, cd, os, od))
	if err != nil {
		return nil, err
	}
	return &TransformProof{
		Kind:    TransformProcessing,
		Shape:   []int{len(src), len(derived)},
		Sources: []fr.Element{cs},
		Derived: []fr.Element{cd},
		Proof:   proof,
	}, nil
}

// --- Verification ---

// VerifyTransform checks any π_t against its statement. For processing
// proofs the verifier supplies the Processor to rebuild the circuit.
func (s *System) VerifyTransform(tp *TransformProof, proc Processor) error {
	c, err := s.transformCheck(tp, proc)
	if err != nil {
		return err
	}
	return verifyAll([]proofCheck{c})
}

// transformCheck pairs a π_t with the key its Kind and Shape name and the
// public inputs of its statement.
func (s *System) transformCheck(tp *TransformProof, proc Processor) (proofCheck, error) {
	var (
		vk  *plonk.VerifyingKey
		err error
	)
	switch tp.Kind {
	case TransformDuplication:
		if len(tp.Shape) != 1 || len(tp.Sources) != 1 || len(tp.Derived) != 1 {
			return proofCheck{}, ErrBadShape
		}
		n := tp.Shape[0]
		vk, err = s.vkFor(fmt.Sprintf("pi_t/dup/%d", n), func() *circuit.Builder {
			return buildDuplicationCircuit(n, nil, fr.Element{}, fr.Element{}, fr.Element{}, fr.Element{})
		})
	case TransformAggregation:
		if len(tp.Sources) != len(tp.Shape) || len(tp.Derived) != 1 {
			return proofCheck{}, ErrBadShape
		}
		sizes := tp.Shape
		vk, err = s.vkFor(fmt.Sprintf("pi_t/agg/%v", sizes), func() *circuit.Builder {
			return buildAggregationCircuit(sizes, nil, make([]fr.Element, len(sizes)), fr.Element{}, make([]fr.Element, len(sizes)), fr.Element{})
		})
	case TransformPartition:
		if len(tp.Sources) != 1 || len(tp.Derived) != len(tp.Shape) {
			return proofCheck{}, ErrBadShape
		}
		sizes := tp.Shape
		vk, err = s.vkFor(fmt.Sprintf("pi_t/part/%v", sizes), func() *circuit.Builder {
			return buildPartitionCircuit(sizes, nil, fr.Element{}, make([]fr.Element, len(sizes)), fr.Element{}, make([]fr.Element, len(sizes)))
		})
	case TransformProcessing:
		if proc == nil {
			return proofCheck{}, fmt.Errorf("core: verifying a processing proof needs its Processor")
		}
		if len(tp.Shape) != 2 || len(tp.Sources) != 1 || len(tp.Derived) != 1 {
			return proofCheck{}, ErrBadShape
		}
		n := tp.Shape[0]
		vk, err = s.vkFor(fmt.Sprintf("pi_t/proc/%s/%d", proc.Name(), n), func() *circuit.Builder {
			return buildProcessingCircuit(proc, n, nil, fr.Element{}, fr.Element{}, fr.Element{}, fr.Element{})
		})
	default:
		return proofCheck{}, fmt.Errorf("core: unknown transformation kind %q", tp.Kind)
	}
	if err != nil {
		return proofCheck{}, err
	}
	publics := append(append([]fr.Element{}, tp.Sources...), tp.Derived...)
	return proofCheck{label: fmt.Sprintf("π_t (%s)", tp.Kind), vk: vk, proof: tp.Proof, public: publics}, nil
}

// ProofChain is a sequence of transformation proofs from a source dataset
// to a final derived one (Figure 3): consecutive links must share
// commitments.
type ProofChain []*TransformProof

// ErrBrokenChain reports a proof chain whose links do not connect.
var ErrBrokenChain = errors.New("core: proof chain links do not connect")

// VerifyChain verifies every link and that each link's derived commitment
// feeds the next link's sources. Processing links take their Processor from
// procs keyed by position (nil entries for non-processing links).
func (s *System) VerifyChain(chain ProofChain, procs map[int]Processor) error {
	if len(chain) == 0 {
		return errors.New("core: empty proof chain")
	}
	for i, tp := range chain {
		if err := s.VerifyTransform(tp, procs[i]); err != nil {
			return fmt.Errorf("core: chain link %d: %w", i, err)
		}
		if i == 0 {
			continue
		}
		// Some derived commitment of link i-1 must appear in link i's
		// sources.
		connected := false
		for _, d := range chain[i-1].Derived {
			for _, src := range tp.Sources {
				if d.Equal(&src) {
					connected = true
				}
			}
		}
		if !connected {
			return fmt.Errorf("%w: link %d", ErrBrokenChain, i)
		}
	}
	return nil
}

// MonolithicStatement is the public statement of the §III-B strawman π_f
// for a duplication: both ciphertexts at once.
type MonolithicStatement struct {
	NonceS, NonceD fr.Element
	CtS, CtD       []fr.Element
}

// ProveMonolithicDuplication implements the strawman transformation proof
// the paper improves on: a single circuit proving Ŝ = Enc(k_S, S),
// D̂ = Enc(k_D, D) and D = S together. It exists for the §IV-B ablation
// (decoupled proofs reuse each π_e; the monolithic strategy re-proves
// encryptions on every transformation).
func (s *System) ProveMonolithicDuplication(data Dataset, kS, kD fr.Element) (*plonk.Proof, error) {
	if len(data) == 0 {
		return nil, ErrDatasetEmpty
	}
	ctS := data.Encrypt(kS)
	ctD := data.Encrypt(kD)
	st := &MonolithicStatement{NonceS: ctS.Nonce, NonceD: ctD.Nonce, CtS: ctS.Blocks, CtD: ctD.Blocks}
	key := fmt.Sprintf("pi_f/dup/%d", len(data))
	proof, _, err := s.prove(key, buildMonolithicDuplication(st, data, kS, kD))
	return proof, err
}

func buildMonolithicDuplication(st *MonolithicStatement, data Dataset, kS, kD fr.Element) *circuit.Builder {
	b := newHashCircuit()
	nS := b.Public(st.NonceS)
	nD := b.Public(st.NonceD)
	n := len(st.CtS)
	ctS := make([]circuit.Variable, n)
	ctD := make([]circuit.Variable, n)
	for i := 0; i < n; i++ {
		ctS[i] = b.Public(st.CtS[i])
		ctD[i] = b.Public(st.CtD[i])
	}
	keyS := b.Secret(kS)
	keyD := b.Secret(kD)
	vals := make([]circuit.Variable, n)
	for i := 0; i < n; i++ {
		var v fr.Element
		if i < len(data) {
			v = data[i]
		}
		vals[i] = b.Secret(v)
	}
	encS := gadgetEncryptCTR(b, keyS, nS, vals)
	encD := gadgetEncryptCTR(b, keyD, nD, vals) // same vals: D == S by wiring
	for i := 0; i < n; i++ {
		b.AssertEqual(encS[i], ctS[i])
		b.AssertEqual(encD[i], ctD[i])
	}
	return b
}

// gadgetEncryptCTR keeps transform.go self-contained.
func gadgetEncryptCTR(b *circuit.Builder, k, nonce circuit.Variable, pt []circuit.Variable) []circuit.Variable {
	return mimc.GadgetEncryptCTR(b, k, nonce, pt)
}
