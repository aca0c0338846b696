package contracts

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/plonk"
)

// serialCheckBlock is the block check with no fold, over direct verify
// calls only: each proof is decoded and verified alone with plonk.Verify, in
// transaction order. It is the reference CheckBlock's one batch must
// reproduce: a proof the pairing refuses is a seal-time rejection, any
// other refusal is reported with its cause, and every proof that verifies
// enters the table at the count of those that do.
func serialCheckBlock(vk *plonk.VerifyingKey, txs []*chain.Transaction) (chain.ProofMarks, []error) {
	errs := make([]error, len(txs))
	var valid []int // transaction indices
	for i, tx := range txs {
		if tx.Contract != "verifier" || tx.Method != "verify" {
			continue
		}
		proof, public, err := decodeVerifyArgs(tx.Args)
		if err == nil {
			err = plonk.Verify(vk, proof, public)
		}
		switch {
		case errors.Is(err, plonk.ErrProofInvalid):
			errs[i] = fmt.Errorf("%w: seal-time batch check", ErrProofRejected)
		case err != nil:
			errs[i] = fmt.Errorf("%w: %w", ErrProofRejected, err)
		default:
			valid = append(valid, i)
		}
	}
	marks := chain.ProofMarks{Width: map[chain.ProofID]int{}, Items: len(valid), Txs: len(valid)}
	for _, i := range valid {
		marks.Width[chain.ProofKey("verifier", txs[i].Args)] = len(valid)
	}
	return marks, errs
}

// TestCheckBlockMatchesSerialFold: CheckBlock folds a block's proofs in one
// batch, prepared on the worker pool, yet gives the marks and errors of
// verifying each proof alone in transaction order — on blocks whose bad proofs (a failing
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
