package core

import (
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
)

// settleGas is what a settled public escrow costs: the verification of a
// classic π_k with three public inputs plus 12 gas per calldata byte of a
// plonk.ProofSize-byte (774) proof. A custom-gate π_k would be 384 bytes
// longer (1 158 − 774), so this figure is the guard that π_k does not change
// shape without a gas decision.
const settleGas = 322_917

// TestHashCircuitsOnCustomShape pins which circuit is on which prover shape
// (DESIGN.md §15.3). The five hash-only circuits prove on custom gates with
// no lookup argument (1 158-byte proofs), each on the smallest domain that
// holds its rows (at n = 4 all on 512, π_e's 443 rows and π_p's 501
// among them), and a verifier that never proved rebuilds the same key from
// a zero witness; π_k (1 330 rows on 1 536) and a Processor that does not
// ask for the lookup lowering stay classic.
func TestHashCircuitsOnCustomShape(t *testing.T) {
	prover := testSys()
	// A second System over the same SRS: its keys come from vkFor alone.
	verifier := NewSystem(prover.SRS())
	const n = 4
	data := smallData(n)

	wantCustom := func(t *testing.T, key string, proof *plonk.Proof, wantN uint64) {
		t.Helper()
		vk, err := verifier.vkFor(key, nil) // cached by the Verify* call before
		if err != nil {
			t.Fatal(err)
		}
		if !vk.Custom || vk.Lookup || vk.TableBits != 0 || vk.N != wantN {
			t.Fatalf("%s: custom=%v lookup=%v tableBits=%d N=%d, want custom gates, no lookups, N = %d",
				key, vk.Custom, vk.Lookup, vk.TableBits, vk.N, wantN)
		}
		if got := len(proof.Bytes()); got != 1158 {
			t.Fatalf("%s: proof is %d bytes, want 1158", key, got)
		}
	}

	st, w, _, piE, err := prover.EncryptAndProve(data, fr.NewElement(7))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("pi_e", func(t *testing.T) {
		if err := verifier.VerifyEncryption(st, piE); err != nil {
			t.Fatal(err)
		}
		wantCustom(t, encryptionKey(n), piE, 512)
	})

	t.Run("pi_p", func(t *testing.T) {
		pred := RangePredicate{Bits: 16}
		seller, err := NewSeller(prover, data, fr.NewElement(7), pred)
		if err != nil {
			t.Fatal(err)
		}
		piP, err := seller.ProveData()
		if err != nil {
			t.Fatal(err)
		}
		if err := NewBuyer(verifier, seller.Listing(1), pred).VerifyData(piP); err != nil {
			t.Fatal(err)
		}
		wantCustom(t, validationKey(pred, n), piP, 512)
	})

	t.Run("pi_t/dup", func(t *testing.T) {
		tp, _, err := prover.ProveDuplication(data, st.DataCommitment, w.DataBlinder)
		if err != nil {
			t.Fatal(err)
		}
		if err := verifier.VerifyTransform(tp, nil); err != nil {
			t.Fatal(err)
		}
		wantCustom(t, "pi_t/dup/4", tp.Proof, 512)
	})

	t.Run("pi_t/agg", func(t *testing.T) {
		halves := []Dataset{data[:2], data[2:]}
		cs := make([]fr.Element, 2)
		os := make([]fr.Element, 2)
		for i, h := range halves {
			cs[i], os[i] = h.Commit()
		}
		tp, _, _, err := prover.transform(TransformAggregation, halves, cs, os, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := verifier.VerifyTransform(tp, nil); err != nil {
			t.Fatal(err)
		}
		wantCustom(t, "pi_t/agg/[2 2]", tp.Proof, 512)
	})

	t.Run("pi_t/part", func(t *testing.T) {
		tp, _, _, err := prover.transform(TransformPartition, []Dataset{data}, []fr.Element{st.DataCommitment}, []fr.Element{w.DataBlinder}, []int{2, 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := verifier.VerifyTransform(tp, nil); err != nil {
			t.Fatal(err)
		}
		wantCustom(t, "pi_t/part/[2 2]", tp.Proof, 512)
	})

	t.Run("processor without LookupProcessor stays classic", func(t *testing.T) {
		tp, _, _, err := prover.ProveProcessing(doubler{}, data, st.DataCommitment, w.DataBlinder)
		if err != nil {
			t.Fatal(err)
		}
		if err := verifier.VerifyTransform(tp, doubler{}); err != nil {
			t.Fatal(err)
		}
		vk, err := verifier.vkFor("pi_t/proc/doubler/4", nil)
		if err != nil {
			t.Fatal(err)
		}
		if vk.Lookup || vk.Custom || len(tp.Proof.Bytes()) != plonk.ProofSize {
			t.Fatalf("lookup=%v custom=%v, %d-byte proof: want the classic shape", vk.Lookup, vk.Custom, len(tp.Proof.Bytes()))
		}
	})

	t.Run("pi_k stays classic and a settlement costs the same gas", func(t *testing.T) {
		vk, err := verifier.KeyCircuitVK()
		if err != nil {
			t.Fatal(err)
		}
		if vk.Lookup || vk.Custom || vk.N != 1536 {
			t.Fatalf("π_k key: lookup=%v custom=%v N=%d, want classic on 1536 rows: its proof rides in calldata, see buildKeyCircuit", vk.Lookup, vk.Custom, vk.N)
		}
		m, _ := newTestMarketplace(t)
		alice, bob := chain.AddressFromString("alice"), chain.AddressFromString("bob")
		m.Chain.Faucet(alice, 1_000_000)
		m.Chain.Faucet(bob, 1_000_000)
		var settled uint64
		m.Submitter = func(tx chain.Transaction) (*chain.Receipt, error) {
			r, err := m.produceOne(tx)
			if err == nil && r.Err == nil && tx.Contract == contracts.EscrowName && tx.Method == "settle" {
				settled = r.GasUsed
				// args: exchange id, k_c, π_k, then the three public inputs.
				args, derr := contracts.DecodeArgs(tx.Args, 6)
				if derr != nil || len(args[2]) != plonk.ProofSize {
					t.Errorf("settle calldata: %v, want six args with a %d-byte π_k third", derr, plonk.ProofSize)
				}
			}
			return r, err
		}
		asset, err := m.MintAsset(alice, "alice", data, fr.MustRandom())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.SellViaEscrow(1, alice, bob, asset, RangePredicate{Bits: 16}, 5000); err != nil {
			t.Fatal(err)
		}
		if settled != settleGas {
			t.Fatalf("settlement cost %d gas, want %d", settled, settleGas)
		}
	})
}
