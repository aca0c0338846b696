package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
	"github.com/zkdet/zkdet/internal/poseidon"
)

// This file implements the generic data transformation protocol of §IV-B.
// There is one relation: D_1, …, D_y = split(f(S_1 ‖ … ‖ S_x)), stated over
// Poseidon commitments of the sources and the derived pieces. The predicates
// of §IV-D are its instances — duplication (x = y = 1), aggregation (y = 1),
// partition (x = 1), all with f the identity, and processing (x = y = 1, f a
// Processor) — so one builder, one prover and one decoder serve all four.
// Transformation proofs π_t compose with the decoupled proofs of encryption
// π_e through the shared commitments (the commit-and-prove composition of the
// paper's CP-NIZK). A commitment is to the dataset's digest (commitData), so
// a π_t hashes each source and each derived piece once, and a duplication,
// whose source and copy share their digest, hashes no data at all: it proves
// two openings of one digest, one permutation each, at every size. Only π_e
// proves a dataset's encryption; no π_t re-proves it.

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
	Kind TransformKindName
	// Shape holds the circuit's size parameters: [n] for a duplication, the
	// source sizes of an aggregation, the piece sizes of a partition, and
	// [|S|, |D|] for a processing proof.
	Shape   []int
	Sources []fr.Element
	Derived []fr.Element
	Proof   *plonk.Proof
}

// ErrBadShape reports inconsistent transformation size parameters.
var ErrBadShape = errors.New("core: invalid transformation shape")

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

// transformShape names one π_t circuit: how many elements each source and
// each derived piece holds, and f (nil is the identity). kind is a label — it
// picks the cache key and the TransformProof.Shape encoding, not the gates.
type transformShape struct {
	kind    TransformKindName
	sources []int
	derived []int
	proc    Processor
}

// check refuses a shape that is not an instance of its kind, has an empty
// dataset in it, or holds more than room elements in all.
func (sh transformShape) check(room int) error {
	x, y := len(sh.sources), len(sh.derived)
	var ok bool
	switch sh.kind {
	case TransformDuplication:
		ok = x == 1 && y == 1
	case TransformAggregation:
		ok = x >= 2 && y == 1
	case TransformPartition:
		ok = x == 1 && y >= 2
	case TransformProcessing:
		if sh.proc == nil {
			return fmt.Errorf("%w: a processing proof needs its Processor", ErrBadShape)
		}
		ok = x == 1 && y == 1
	default:
		return fmt.Errorf("%w: unknown transformation kind %q", ErrBadShape, sh.kind)
	}
	if !ok {
		return fmt.Errorf("%w: %s of %d sources into %d pieces", ErrBadShape, sh.kind, x, y)
	}
	for _, sizes := range [][]int{sh.sources, sh.derived} {
		for _, n := range sizes {
			if n <= 0 || n > room {
				return fmt.Errorf("%w: %s with a dataset of %d elements (room for %d)", ErrBadShape, sh.kind, n, room)
			}
			room -= n
		}
	}
	return nil
}

// encode returns the shape's setup-cache key and its TransformProof.Shape.
func (sh transformShape) encode() (key string, sizes []int) {
	switch sh.kind {
	case TransformDuplication:
		return "pi_t/dup", sh.sources // one circuit at every size
	case TransformAggregation:
		return fmt.Sprintf("pi_t/agg/%v", sh.sources), sh.sources
	case TransformPartition:
		return fmt.Sprintf("pi_t/part/%v", sh.derived), sh.derived
	default:
		return fmt.Sprintf("pi_t/proc/%s/%d", sh.proc.Name(), sh.sources[0]), []int{sh.sources[0], sh.derived[0]}
	}
}

// shapeOf decodes the shape a published π_t claims. Everything in tp comes
// from whoever published it, so nothing is sized by it before it is checked:
// a shape with more elements than a circuit the SRS can set up has rows
// (every element is at least one gate) is refused here, not by plonk.Setup
// after the builder has allocated it.
func (s *System) shapeOf(tp *TransformProof, proc Processor) (transformShape, error) {
	sh := transformShape{kind: tp.Kind}
	total := 0
	for _, n := range tp.Shape {
		total += n
	}
	switch tp.Kind {
	case TransformDuplication:
		sh.sources, sh.derived = tp.Shape, tp.Shape
	case TransformAggregation:
		sh.sources, sh.derived = tp.Shape, []int{total}
	case TransformPartition:
		sh.sources, sh.derived = []int{total}, tp.Shape
	case TransformProcessing:
		sh.proc = proc
		if len(tp.Shape) == 2 {
			sh.sources, sh.derived = tp.Shape[:1], tp.Shape[1:]
		}
	}
	if err := sh.check(s.srs.MaxDegree()); err != nil {
		return sh, err
	}
	if len(tp.Sources) != len(sh.sources) || len(tp.Derived) != len(sh.derived) {
		return sh, fmt.Errorf("%w: %s states %d sources and %d derived commitments for a shape of %d and %d",
			ErrBadShape, tp.Kind, len(tp.Sources), len(tp.Derived), len(sh.sources), len(sh.derived))
	}
	return sh, nil
}

// transformWitness is a π_t statement with its opening: the sources, their
// commitments and blinders, and the commitments and blinders of the derived
// pieces. The zero value is the witness a verifier builds a shape's key from.
type transformWitness struct {
	srcs   []Dataset
	cs, os []fr.Element
	cd, od []fr.Element
}

// buildTransformCircuit states D_1, …, D_y = split(f(S_1 ‖ … ‖ S_x)) over the
// public commitments c_s1…c_sx, c_d1…c_dy: each source opens its commitment,
// f runs over the concatenation, each consecutive piece of the result opens
// its own. Partition's "exhaustive and mutually exclusive" (§IV-D3) holds by
// construction: the pieces are non-empty consecutive sub-vectors covering
// every position once.
//
// Every shape compiles on one lowering: Poseidon on custom gates and, for
// range checks, the 2^12 range table (DESIGN.md §15.3). A circuit takes the
// table only if it emits a lookup row, so a structural shape (f the
// identity, hashing plus wiring) and a Processor without range checks prove
// on custom gates alone, and a range-checking Processor — logistic
// regression, the transformer — on the table plus custom gates, at least
// 4 096 rows. The table is what makes a processor fast: custom gates alone
// leave a range-check-dominated gadget at its classic row count on a larger
// coset, while with the table every Table I row proves several times faster
// than on classic gates (EXPERIMENTS.md, Table I).
//
// A duplication states D = S, and a commitment binds its dataset through the
// digest alone, so its witness is the one digest both commitments open: two
// one-permutation openings and no data wires, whatever the size.
func buildTransformCircuit(sh transformShape, w transformWitness) *circuit.Builder {
	b := circuit.NewBuilder()
	b.EnableLookups()
	at := func(list []fr.Element, i int) (v fr.Element) {
		if i < len(list) {
			v = list[i]
		}
		return v
	}
	csPub := make([]circuit.Variable, len(sh.sources))
	for i := range csPub {
		csPub[i] = b.Public(at(w.cs, i))
	}
	cdPub := make([]circuit.Variable, len(sh.derived))
	for k := range cdPub {
		cdPub[k] = b.Public(at(w.cd, k))
	}
	if sh.kind == TransformDuplication {
		var h fr.Element
		if len(w.srcs) > 0 {
			h = poseidon.Hash(w.srcs[0])
		}
		digest := b.Secret(h)
		b.AssertEqual(gadgetCommitDigest(b, digest, b.Secret(at(w.os, 0))), csPub[0])
		b.AssertEqual(gadgetCommitDigest(b, digest, b.Secret(at(w.od, 0))), cdPub[0])
		return b
	}
	var all []circuit.Variable
	for i, n := range sh.sources {
		var src Dataset
		if i < len(w.srcs) {
			src = w.srcs[i]
		}
		os := b.Secret(at(w.os, i))
		vals := make([]circuit.Variable, n)
		for j := range vals {
			vals[j] = b.Secret(at(src, j))
		}
		b.AssertEqual(gadgetCommitData(b, vals, os), csPub[i])
		all = append(all, vals...)
	}
	out := all
	if sh.proc != nil {
		out = sh.proc.Gadget(b, all)
	}
	total := 0
	for _, n := range sh.derived {
		total += n
	}
	if total != len(out) {
		b.Fail("%w: %s derives %d elements, its shape says %d", ErrBadShape, sh.kind, len(out), total)
		return b
	}
	off := 0
	for k, n := range sh.derived {
		od := b.Secret(at(w.od, k))
		b.AssertEqual(gadgetCommitData(b, out[off:off+n], od), cdPub[k])
		off += n
	}
	return b
}

// proveTransform proves one π_t of the given shape.
func (s *System) proveTransform(sh transformShape, w transformWitness) (*TransformProof, error) {
	key, sizes := sh.encode()
	proof, err := s.prove(key, func() *circuit.Builder { return buildTransformCircuit(sh, w) })
	if err != nil {
		return nil, err
	}
	return &TransformProof{
		Kind:    sh.kind,
		Shape:   append([]int{}, sizes...),
		Sources: append([]fr.Element{}, w.cs...),
		Derived: append([]fr.Element{}, w.cd...),
		Proof:   proof,
	}, nil
}

// derive is the native half of a transformation: it validates the request and
// computes D_1, …, D_y = split(f(S_1 ‖ … ‖ S_x)). A nil sizes asks for one
// piece, the whole result.
func derive(kind TransformKindName, srcs []Dataset, sizes []int, proc Processor) (transformShape, []Dataset, error) {
	sh := transformShape{kind: kind, proc: proc}
	var out Dataset // a fresh copy: the pieces share nothing with the sources
	for _, src := range srcs {
		if len(src) == 0 {
			return sh, nil, ErrDatasetEmpty
		}
		sh.sources = append(sh.sources, len(src))
		out = append(out, src...)
	}
	if proc != nil {
		var err error
		if out, err = proc.Apply(out); err != nil {
			return sh, nil, fmt.Errorf("core: processing %s: %w", proc.Name(), err)
		}
	}
	if sizes == nil {
		sizes = []int{len(out)}
	}
	sh.derived = sizes
	if err := sh.check(math.MaxInt); err != nil { // the data is here already: nothing to bound
		return sh, nil, err
	}
	rest := len(out)
	for _, n := range sizes {
		if rest -= n; rest < 0 {
			break
		}
	}
	if rest != 0 {
		return sh, nil, fmt.Errorf("%w: pieces of %v do not cover %d elements exactly", ErrBadShape, sizes, len(out))
	}
	pieces := make([]Dataset, len(sizes))
	off := 0
	for k, n := range sizes {
		pieces[k] = out[off : off+n : off+n]
		off += n
	}
	return sh, pieces, nil
}

// transform proves one transformation of already committed sources against
// freshly committed derived pieces, returning π_t, the pieces and their
// blinders.
func (s *System) transform(kind TransformKindName, srcs []Dataset, cs, os []fr.Element, sizes []int, proc Processor) (*TransformProof, []Dataset, []fr.Element, error) {
	if len(cs) != len(srcs) || len(os) != len(srcs) {
		return nil, nil, nil, fmt.Errorf("%w: commitment count mismatch", ErrBadShape)
	}
	sh, pieces, err := derive(kind, srcs, sizes, proc)
	if err != nil {
		return nil, nil, nil, err
	}
	cd, od := commitAll(pieces)
	tp, err := s.proveTransform(sh, transformWitness{srcs: srcs, cs: cs, os: os, cd: cd, od: od})
	if err != nil {
		return nil, nil, nil, err
	}
	return tp, pieces, od, nil
}

// commitAll commits every dataset under a fresh blinder.
func commitAll(ds []Dataset) (commitments, blinders []fr.Element) {
	commitments, blinders = make([]fr.Element, len(ds)), make([]fr.Element, len(ds))
	for i, d := range ds {
		commitments[i], blinders[i] = d.Commit()
	}
	return commitments, blinders
}

// ProveDuplication produces π_t for a duplication (§IV-D1): the same plaintext
// under two independent commitments (c_s with blinder o_s, c_d with fresh
// o_d), proved as one digest under the two blinders.
func (s *System) ProveDuplication(data Dataset, cs, os fr.Element) (*TransformProof, fr.Element, error) {
	tp, _, od, err := s.transform(TransformDuplication, []Dataset{data}, []fr.Element{cs}, []fr.Element{os}, nil, nil)
	if err != nil {
		return nil, fr.Element{}, err
	}
	return tp, od[0], nil
}

// ProveProcessing produces π_t for D = f(S) (§IV-D4), returning the proof,
// derived dataset and its blinder.
func (s *System) ProveProcessing(p Processor, src Dataset, cs, os fr.Element) (*TransformProof, Dataset, fr.Element, error) {
	tp, pieces, od, err := s.transform(TransformProcessing, []Dataset{src}, []fr.Element{cs}, []fr.Element{os}, nil, p)
	if err != nil {
		return nil, nil, fr.Element{}, err
	}
	return tp, pieces[0], od[0], nil
}

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
	sh, err := s.shapeOf(tp, proc)
	if err != nil {
		return proofCheck{}, err
	}
	key, _ := sh.encode()
	vk, err := s.vkFor(key, func() *circuit.Builder { return buildTransformCircuit(sh, transformWitness{}) })
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

// VerifyChain verifies every link — all of them with one pairing — and that
// each link's derived commitment feeds the next link's sources. Processing
// links take their Processor from procs keyed by position (nil entries for
// non-processing links).
func (s *System) VerifyChain(chain ProofChain, procs map[int]Processor) error {
	if len(chain) == 0 {
		return errors.New("core: empty proof chain")
	}
	checks := make([]proofCheck, len(chain))
	for i, tp := range chain {
		c, err := s.transformCheck(tp, procs[i])
		if err != nil {
			return fmt.Errorf("core: chain link %d: %w", i, err)
		}
		c.label = fmt.Sprintf("chain link %d: %s", i, c.label)
		checks[i] = c
		if i == 0 {
			continue
		}
		// Some derived commitment of link i-1 must appear in link i's
		// sources.
		connected := false
		for _, d := range chain[i-1].Derived {
			connected = connected || containsCommitment(tp.Sources, d)
		}
		if !connected {
			return fmt.Errorf("%w: link %d", ErrBrokenChain, i)
		}
	}
	return verifyAll(checks)
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
	return s.prove(monolithicKey(len(data)), func() *circuit.Builder { return buildMonolithicDuplication(st, data, kS, kD) })
}

// monolithicKey is the setup-cache key of the monolithic duplication of a
// dataset of n elements.
func monolithicKey(n int) string { return fmt.Sprintf("pi_f/dup/%d", n) }

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
	encS := poseidon.GadgetEncryptCTR(b, keyS, nS, vals)
	encD := poseidon.GadgetEncryptCTR(b, keyD, nD, vals) // same vals: D == S by wiring
	for i := 0; i < n; i++ {
		b.AssertEqual(encS[i], ctS[i])
		b.AssertEqual(encD[i], ctD[i])
	}
	return b
}
