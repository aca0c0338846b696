package bench

import (
	"time"

	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
)

// --- Confidential exchange: prove / verify / batch-verify cost ---

// CTRow is one point of the confidential-transfer benchmark: a transfer of
// the given shape, its full proof generation and verification time, the
// sigma-only (gossip pre-screen) time, and the amortized cost per range
// proof (one per ct.RangeSlots outputs) of folding BatchN of them into one
// pairing check — the seal-time path.
type CTRow struct {
	Inputs            int
	Outputs           int
	ProofBytes        int
	ProveSeconds      float64
	VerifySeconds     float64
	SigmaSeconds      float64
	BatchN            int
	BatchPerProofSecs float64
	SigmaGas          uint64
}

// ctStatement builds one deterministic transfer of the given shape with
// its secrets: inputs worth 1000·(i+1) units, outputs splitting the total.
func ctStatement(params *ct.Params, auditor *ct.AuditorKey, nIn, nOut int) (*ct.Statement, []ct.Opening, []ct.OutputSecret) {
	pub := auditor.PublicKey()
	total := uint64(0)
	ins := make([]ct.Opening, nIn)
	inComms := make([]ct.Commitment, nIn)
	for i := range ins {
		ins[i] = ct.Opening{V: 1000 * uint64(i+1), R: fr.NewElement(uint64(31 + i))}
		inComms[i] = params.Commit(ins[i].V, &ins[i].R)
		total += ins[i].V
	}
	outs := make([]ct.OutputSecret, nOut)
	outputs := make([]ct.Output, nOut)
	per := total / uint64(nOut)
	for i := range outs {
		v := per
		if i == nOut-1 {
			v = total - per*uint64(nOut-1)
		}
		outs[i] = ct.OutputSecret{
			V: v, R: fr.NewElement(uint64(71 + i)), Rho: fr.NewElement(uint64(113 + i)),
		}
		outputs[i] = params.NewOutput(&pub, v, &outs[i].R, &outs[i].Rho)
	}
	st := &ct.Statement{
		Mint:    nIn == 0,
		Inputs:  inComms,
		Outputs: outputs,
		Context: []byte("bench/ct"),
	}
	return st, ins, outs
}

// CTSweep measures the confidential-transfer pipeline over a set of
// (inputs, outputs) shapes. batchN is the fold width for the seal-time
// batch column: the range proofs of as many copies of the transfer as it
// takes to reach batchN, folded into a single pairing check via plonk.Batch.
func CTSweep(sys *core.System, shapes [][2]int, batchN int) ([]CTRow, error) {
	params := ct.DefaultParams()
	auditor := ct.AuditorKeyFromSecret(fr.NewElement(0xbe_c7))
	pub := auditor.PublicKey()
	rp := ct.NewRangeProver(sys.SRS())
	vk, err := rp.VK()
	if err != nil {
		return nil, err
	}

	rows := make([]CTRow, 0, len(shapes))
	for _, shape := range shapes {
		nIn, nOut := shape[0], shape[1]
		st, ins, outs := ctStatement(params, auditor, nIn, nOut)

		start := time.Now()
		proof, err := ct.Prove(params, rp, &pub, st, ins, outs, nil)
		if err != nil {
			return nil, err
		}
		prove := time.Since(start).Seconds()

		start = time.Now()
		if err := ct.Verify(params, vk, &pub, st, proof); err != nil {
			return nil, err
		}
		verify := time.Since(start).Seconds()

		start = time.Now()
		if err := ct.VerifySigma(params, &pub, st, proof); err != nil {
			return nil, err
		}
		sigma := time.Since(start).Seconds()

		// Seal-time amortization: fold batchN copies of this transfer's
		// range proofs into one pairing check. The sigma part is re-checked
		// per proof (it is pairing-free), so the fold is the win.
		ranges, err := proof.RangeInstances(params, &pub, st)
		if err != nil {
			return nil, err
		}
		batch := plonk.NewBatch(vk)
		added := 0
		for added < batchN {
			for _, ri := range ranges {
				if err := batch.Add(ri.Proof, ri.Public); err != nil {
					return nil, err
				}
				added++
			}
		}
		start = time.Now()
		if err := batch.Check(); err != nil {
			return nil, err
		}
		perProof := time.Since(start).Seconds() / float64(added)

		rows = append(rows, CTRow{
			Inputs: nIn, Outputs: nOut,
			ProofBytes:        len(proof.Bytes()),
			ProveSeconds:      prove,
			VerifySeconds:     verify,
			SigmaSeconds:      sigma,
			BatchN:            added,
			BatchPerProofSecs: perProof,
			SigmaGas:          contracts.CTSigmaGas(nIn, nOut),
		})
	}
	return rows, nil
}
