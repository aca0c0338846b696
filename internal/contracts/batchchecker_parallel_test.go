package contracts

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/plonk"
)

// serialCheckBlock is the block check as one pass in transaction order —
// decode, AddFor, then Check and Bisect — over direct verify calls only:
// the reference CheckBlock's worker-pool preparation must reproduce.
func serialCheckBlock(vk *plonk.VerifyingKey, txs []*chain.Transaction) (chain.ProofMarks, []error) {
	errs := make([]error, len(txs))
	batch := plonk.NewBatch(vk)
	var folded []int // transaction indices, in batch position order
	for i, tx := range txs {
		if tx.Contract != "verifier" || tx.Method != "verify" {
			continue
		}
		proof, public, err := decodeVerifyArgs(tx.Args)
		if err == nil {
			err = batch.AddFor(vk, proof, public)
		}
		if err != nil {
			errs[i] = fmt.Errorf("%w: %w", ErrProofRejected, err)
			continue
		}
		folded = append(folded, i)
	}
	if batch.Check() != nil {
		offenders, err := batch.Bisect()
		if err != nil {
			return chain.ProofMarks{}, errs
		}
		for _, pos := range offenders {
			errs[folded[pos]] = fmt.Errorf("%w: seal-time batch check", ErrProofRejected)
		}
	}
	marks := chain.ProofMarks{Width: map[chain.ProofID]int{}}
	for _, i := range folded {
		if errs[i] == nil {
			marks.Items++
			marks.Txs++
		}
	}
	for _, i := range folded {
		if errs[i] == nil {
			marks.Width[chain.ProofKey("verifier", txs[i].Args)] = marks.Items
		}
	}
	return marks, errs
}

// TestCheckBlockMatchesSerialFold: CheckBlock decodes and prepares a
// block's proofs on the worker pool, yet gives the marks and errors of one
// pass in transaction order — on blocks whose bad proofs (a failing
// pairing, calldata that does not decode) sit first, in the middle, last
// and side by side, beside a transaction that carries no proof. Run under
// -race with four workers to exercise the fan-out on any host.
func TestCheckBlockMatchesSerialFold(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ps := batchProofSystem()
	proofs, publics := mintProofs(t, 12)
	v := NewVerifier(ps.vk)
	bc := NewBlockProofChecker()
	mustAdd(t, bc, "verifier", v)

	for _, tc := range []struct {
		name      string
		broken    []int // a proof whose pairing fails
		malformed []int // calldata that does not decode
	}{
		{name: "all valid"},
		{name: "first, middle and last", broken: []int{0, 6, 11}},
		{name: "side by side", broken: []int{4, 5}, malformed: []int{7}},
		{name: "all broken", broken: []int{0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			txs := make([]*chain.Transaction, len(proofs))
			for i := range proofs {
				args := VerifyArgs(proofs[i], publics[i])
				for _, b := range tc.broken {
					if b == i {
						args = VerifyArgs(breakProof(proofs[i]), publics[i])
					}
				}
				for _, m := range tc.malformed {
					if m == i {
						args = args[:len(args)/2]
					}
				}
				txs[i] = &chain.Transaction{From: chain.AddressFromString(fmt.Sprint("s", i)), Contract: "verifier", Method: "verify", Args: args}
			}
			txs[3] = &chain.Transaction{From: chain.AddressFromString("s3"), Contract: "other", Method: "noop"}

			gotMarks, gotErrs := bc.CheckBlock(txs)
			wantMarks, wantErrs := serialCheckBlock(ps.vk, txs)
			if gotMarks.Items != wantMarks.Items || gotMarks.Txs != wantMarks.Txs || len(gotMarks.Width) != len(wantMarks.Width) {
				t.Fatalf("marks: %d items, %d txs, %d table entries; serial fold %d, %d, %d",
					gotMarks.Items, gotMarks.Txs, len(gotMarks.Width), wantMarks.Items, wantMarks.Txs, len(wantMarks.Width))
			}
			for id, w := range wantMarks.Width {
				if gotMarks.Width[id] != w {
					t.Fatalf("table entry %v: width %d, serial fold %d", id, gotMarks.Width[id], w)
				}
			}
			for i := range txs {
				if fmt.Sprint(gotErrs[i]) != fmt.Sprint(wantErrs[i]) {
					t.Fatalf("tx %d: %v, serial fold %v", i, gotErrs[i], wantErrs[i])
				}
			}
			if want := len(txs) - 1 - len(tc.broken) - len(tc.malformed); gotMarks.Txs != want {
				t.Fatalf("%d transactions validated, want %d", gotMarks.Txs, want)
			}
		})
	}
}
