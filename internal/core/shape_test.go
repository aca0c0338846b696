package core

import (
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
)

// settleGas is what a settled public escrow costs: the verification of π_k
// with three public inputs plus 12 gas per calldata byte of its 742-byte
// custom-gate proof. It was 322 917 when π_k was a 774-byte classic proof
// of the version-2 encoding; the 32 bytes it shed are 384 gas. Any other
// change to π_k's size moves it, so this figure is the guard that π_k does
// not change shape without a gas decision.
const settleGas = 322_533

// customProofSize is the length of a proof on custom gates without a lookup
// argument: 8 G1 points and 7 openings behind the 6-byte header.
const customProofSize = 742

// TestHashCircuitsOnCustomShape pins which circuit is on which prover shape
// (DESIGN.md §15.3). The six hash-only circuits prove on custom gates with
// no lookup argument (742-byte proofs), each on the smallest domain that
// holds its rows (at n = 4 five on 512, π_e's 444 rows and π_p's 502 among
// them, and π_k's 148 rows on 192), and a verifier that never proved
// rebuilds the same key from a zero witness. A processing π_t takes the
// range table beside custom gates only if its Processor emits range checks
// (N ≥ 4 096, 998-byte proofs). There is no third shape.
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
		if vk.Lookup || vk.TableBits != 0 || vk.N != wantN {
			t.Fatalf("%s: lookup=%v tableBits=%d N=%d, want no lookups, N = %d",
				key, vk.Lookup, vk.TableBits, vk.N, wantN)
		}
		if got := len(proof.Bytes()); got != customProofSize {
			t.Fatalf("%s: proof is %d bytes, want %d", key, got, customProofSize)
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

	t.Run("processor shape follows its rows", func(t *testing.T) {
		for _, tc := range []struct {
			proc      Processor
			lookup    bool
			tableBits int
			n         uint64
			size      int
		}{
			{proc: doubler{}, n: 512, size: customProofSize},
			{proc: rangeDoubler{}, lookup: true, tableBits: circuit.DefaultRangeTableBits, n: 4096, size: plonk.MaxProofSize},
		} {
			tp, _, _, err := prover.ProveProcessing(tc.proc, data, st.DataCommitment, w.DataBlinder)
			if err != nil {
				t.Fatal(err)
			}
			if err := verifier.VerifyTransform(tp, tc.proc); err != nil {
				t.Fatal(err)
			}
			vk, err := verifier.vkFor("pi_t/proc/"+tc.proc.Name()+"/4", nil)
			if err != nil {
				t.Fatal(err)
			}
			if vk.Lookup != tc.lookup || vk.TableBits != tc.tableBits || vk.N != tc.n || len(tp.Proof.Bytes()) != tc.size {
				t.Fatalf("%s: lookup=%v tableBits=%d N=%d, %d-byte proof; want lookup=%v tableBits=%d N=%d, %d bytes",
					tc.proc.Name(), vk.Lookup, vk.TableBits, vk.N, len(tp.Proof.Bytes()), tc.lookup, tc.tableBits, tc.n, tc.size)
			}
		}
	})

	t.Run("pi_k on custom gates", func(t *testing.T) {
		vk, err := verifier.KeyCircuitVK()
		if err != nil {
			t.Fatal(err)
		}
		if vk.Lookup || vk.N != 192 {
			t.Fatalf("π_k key: lookup=%v N=%d, want custom gates without lookups on 192 rows: its proof rides in calldata, see buildKeyCircuit", vk.Lookup, vk.N)
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
				if derr != nil || len(args[2]) != customProofSize {
					t.Errorf("settle calldata: %v, want six args with a %d-byte π_k third", derr, customProofSize)
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
