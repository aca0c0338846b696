package core

import (
	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
)

// This file exports small, fully-witnessed instantiations of the π-family
// circuits for the soundness auditor (internal/circuit/audit). The
// builders are the same unexported constructors the prover uses — the
// auditor must see the production constraint structure, not a test
// double — instantiated with consistent statements so the eager witness
// satisfies every gate.

// AuditCircuit is a named circuit constructor for the auditor registry.
type AuditCircuit struct {
	Name  string
	Build func() (*circuit.Builder, error)
}

// auditDataset returns a deterministic n-element dataset of small values
// (they double as fixed-point inputs for predicate circuits).
func auditDataset(n int) Dataset {
	d := make(Dataset, n)
	for i := range d {
		d[i] = fr.NewElement(uint64(i + 3))
	}
	return d
}

// AuditCircuits returns the core π-family circuits (encryption,
// duplication, aggregation, partition, validation, key negotiation),
// each instantiated small with a consistent witness.
func AuditCircuits() []AuditCircuit {
	return []AuditCircuit{
		{Name: "core/pi_e", Build: func() (*circuit.Builder, error) {
			data := auditDataset(4)
			key := fr.NewElement(77)
			ct := data.Encrypt(key)
			cd, od := data.Commit()
			ck, ok := KeyCommit(key)
			st := &EncryptionStatement{Nonce: ct.Nonce, DataCommitment: cd, KeyCommitment: ck, Ciphertext: ct.Blocks}
			w := &EncryptionWitness{Data: data, Key: key, DataBlinder: od, KeyBlinder: ok}
			return buildEncryptionCircuit(st, w), nil
		}},
		{Name: "core/pi_t/dup", Build: func() (*circuit.Builder, error) {
			return auditTransform(TransformDuplication, []Dataset{auditDataset(3)}, nil, nil)
		}},
		{Name: "core/pi_t/agg", Build: func() (*circuit.Builder, error) {
			return auditTransform(TransformAggregation, []Dataset{auditDataset(2), auditDataset(3)}, nil, nil)
		}},
		{Name: "core/pi_t/part", Build: func() (*circuit.Builder, error) {
			return auditTransform(TransformPartition, []Dataset{auditDataset(5)}, []int{2, 3}, nil)
		}},
		{Name: "core/pi_p/range", Build: func() (*circuit.Builder, error) {
			data := auditDataset(4)
			cd, od := data.Commit()
			st := &ValidationStatement{DataCommitment: cd}
			return buildValidationCircuit(RangePredicate{Bits: 8}, st, data, od), nil
		}},
		{Name: "core/pi_k", Build: func() (*circuit.Builder, error) {
			k := fr.NewElement(1234)
			kv := fr.NewElement(5678)
			ck, ok := KeyCommit(k)
			var kc fr.Element
			kc.Add(&k, &kv)
			st := &KeyStatement{KC: kc, KeyCommitment: ck, HV: HashChallenge(kv)}
			return buildKeyCircuit(st, &KeyWitness{K: k, KV: kv, KeyBlinder: ok}), nil
		}},
	}
}

// auditTransform builds the production π_t circuit of one transformation,
// witnessed consistently end-to-end.
func auditTransform(kind TransformKindName, srcs []Dataset, sizes []int, p Processor) (*circuit.Builder, error) {
	sh, pieces, err := derive(kind, srcs, sizes, p)
	if err != nil {
		return nil, err
	}
	cs, os := commitAll(srcs)
	cd, od := commitAll(pieces)
	return buildTransformCircuit(sh, transformWitness{srcs: srcs, cs: cs, os: os, cd: cd, od: od}), nil
}

// AuditProcessingCircuit builds the production π_t processing circuit for
// a Processor over src, on the range table plus custom gates.
func AuditProcessingCircuit(p Processor, src Dataset) (*circuit.Builder, error) {
	return auditTransform(TransformProcessing, []Dataset{src}, nil, p)
}
