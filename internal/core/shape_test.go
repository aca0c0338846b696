package core

import (
	"slices"
	"sync/atomic"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/plonk"
	"github.com/zkdet/zkdet/internal/poly"
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
// holds its rows (at n = 4 π_e's 445 rows and the aggregation's and
// partition's on 512, π_p's 349 on 384, and the duplication's 147 and π_k's
// 148 on 192), and a verifier that never proved rebuilds the same key from a
// zero witness. A processing π_t takes the
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
		wantCustom(t, validationKey(pred, n), piP, 384)
	})

	t.Run("pi_t/dup", func(t *testing.T) {
		tp, _, err := prover.ProveDuplication(data, st.DataCommitment, w.DataBlinder)
		if err != nil {
			t.Fatal(err)
		}
		if err := verifier.VerifyTransform(tp, nil); err != nil {
			t.Fatal(err)
		}
		wantCustom(t, "pi_t/dup", tp.Proof, 192)
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

// rowsOf compiles a builder and returns its row count and the domain size
// plonk.Setup gives it (one padding row past the last).
func rowsOf(t *testing.T, b *circuit.Builder) (rows int, n uint64) {
	t.Helper()
	cs, _, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	d, err := poly.NewDomain(uint64(cs.NbGates() + 1))
	if err != nil {
		t.Fatal(err)
	}
	return cs.NbGates(), d.N
}

// TestDecoupledProofRows pins what an exchange proves per data row. π_e is
// the one proof of a dataset's encryption, on N = 512, 1 536 and 6 144 at
// n = 4, 16 and 64. π_p states φ(D) and the opening of c_d only: 349 rows on
// N = 384 at n = 4 with a 16-bit range φ, where it re-proved π_e's keystream
// on 502 rows and N = 512 before. A duplication π_t proves two openings of
// one digest: 147 rows on N = 192 at every size, under the one key pi_t/dup,
// which a verifier System sets up once for all four sizes.
func TestDecoupledProofRows(t *testing.T) {
	for _, tc := range []struct {
		n    int
		rows int
		N    uint64
	}{{4, 445, 512}, {16, 1327, 1536}, {64, 4855, 6144}} {
		data := smallData(tc.n)
		key := fr.NewElement(7)
		ct := data.Encrypt(key)
		cd, od := data.Commit()
		ck, ok := KeyCommit(key)
		st := &EncryptionStatement{Nonce: ct.Nonce, DataCommitment: cd, KeyCommitment: ck, Ciphertext: ct.Blocks}
		rows, N := rowsOf(t, buildEncryptionCircuit(st, &EncryptionWitness{Data: data, Key: key, DataBlinder: od, KeyBlinder: ok}))
		if rows != tc.rows || N != tc.N {
			t.Errorf("π_e at n = %d: %d rows on N = %d, want %d on %d", tc.n, rows, N, tc.rows, tc.N)
		}
	}

	data := smallData(4)
	cd, od := data.Commit()
	if rows, N := rowsOf(t, buildValidationCircuit(RangePredicate{Bits: 16}, &ValidationStatement{DataCommitment: cd}, data, od)); rows != 349 || N != 384 {
		t.Errorf("π_p at n = 4: %d rows on N = %d, want 349 on 384", rows, N)
	}

	prover := testSys()
	verifier := NewSystem(prover.SRS())
	var setups atomic.Int32
	verifier.setup = func(cs *plonk.ConstraintSystem, srs *kzg.SRS) (*plonk.ProvingKey, *plonk.VerifyingKey, error) {
		setups.Add(1)
		return plonk.Setup(cs, srs)
	}
	for _, n := range []int{3, 4, 16, 64} {
		data := smallData(n)
		cs, os := data.Commit()
		sh := transformShape{kind: TransformDuplication, sources: []int{n}, derived: []int{n}}
		if rows, N := rowsOf(t, buildTransformCircuit(sh, transformWitness{})); rows != 147 || N != 192 {
			t.Errorf("duplication π_t at n = %d: %d rows on N = %d, want 147 on 192", n, rows, N)
		}
		tp, _, err := prover.ProveDuplication(data, cs, os)
		if err != nil {
			t.Fatal(err)
		}
		if err := verifier.VerifyTransform(tp, nil); err != nil {
			t.Fatalf("duplication π_t at n = %d: %v", n, err)
		}
		if !slices.Equal(tp.Shape, []int{n}) {
			t.Errorf("duplication π_t at n = %d states shape %v", n, tp.Shape)
		}
	}
	if n := setups.Load(); n != 1 {
		t.Fatalf("verifying duplications of four sizes set up %d keys, want the one pi_t/dup", n)
	}
}
