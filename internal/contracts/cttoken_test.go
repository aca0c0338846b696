package contracts

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/plonk"
)

// ctSystem builds the expensive pieces once: an SRS covering π_ct's
// 512-row domain, the π_ct prover, and the auditor key pair.
var ctSystem = sync.OnceValue(func() (out struct {
	params *ct.Params
	prover *ct.RangeProver
	vk     *plonk.VerifyingKey
	ak     *ct.AuditorKey
	pub    bn254.G1Affine
}) {
	tau := fr.NewElement(0xfade) // escrowProofSystem's τ: ctSettleFixture folds π_k and π_ct in one batch
	srs, err := kzg.NewSRSFromSecret(3*512+6, &tau)
	if err != nil {
		panic(err)
	}
	out.params = ct.DefaultParams()
	out.prover = ct.NewRangeProver(srs)
	if out.vk, err = out.prover.VK(); err != nil {
		panic(err)
	}
	out.ak = ct.AuditorKeyFromSecret(fr.NewElement(0xc0ffee))
	out.pub = out.ak.PublicKey()
	return out
})

const testPiCTVerifier = "pict-verifier"

// ctEnv deploys the π_ct verifier, a toy π_k verifier (kc = c + hv, as in
// the escrow tests), and the confidential-token contract.
func ctEnv(t *testing.T) (*chain.Chain, chain.Address, chain.Address, chain.Address) {
	t.Helper()
	cs := ctSystem()
	c := chain.New()
	if _, err := c.Deploy(testPiCTVerifier, NewVerifier(cs.vk), VerifierCodeSize); err != nil {
		t.Fatal(err)
	}
	issuer := chain.AddressFromString("issuer")
	if _, err := c.Deploy(ConfidentialTokenName,
		NewConfidentialToken(issuer, cs.pub, testPiCTVerifier, "pik-verifier", 10),
		ConfidentialTokenCodeSize); err != nil {
		t.Fatal(err)
	}
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")
	for _, a := range []chain.Address{issuer, alice, bob} {
		c.Faucet(a, 100_000_000)
	}
	return c, issuer, alice, bob
}

// ctProve builds a proof for the statement (sender, inIDs, inComms) →
// outputs to recipients and returns the transfer calldata.
func ctProve(t *testing.T, sender chain.Address, mint bool, inIDs []uint64,
	ins []ct.Opening, outs []ct.OutputSecret, recipients []chain.Address) []byte {
	t.Helper()
	cs := ctSystem()
	st := &ct.Statement{Mint: mint, Context: CTContext(sender, inIDs, recipients)}
	inComms := make([]ct.Commitment, len(ins))
	for i := range ins {
		inComms[i] = cs.params.Commit(ins[i].V, &ins[i].R)
	}
	st.Inputs = inComms
	for i := range outs {
		st.Outputs = append(st.Outputs, cs.params.NewOutput(&cs.pub, outs[i].V, &outs[i].R, &outs[i].Rho))
	}
	proof, err := ct.Prove(cs.params, cs.prover, &cs.pub, st, ins, outs, nil)
	if err != nil {
		t.Fatalf("ct prove: %v", err)
	}
	return CTTransferArgs(inIDs, inComms, st.Outputs, recipients, proof)
}

func TestConfidentialMintTransferLifecycle(t *testing.T) {
	c, issuer, alice, bob := ctEnv(t)
	cs := ctSystem()

	// Issuer mints a 100-unit note to alice.
	mintSecret := []ct.OutputSecret{{V: 100, R: fr.NewElement(11), Rho: fr.NewElement(12)}}
	args := ctProve(t, issuer, true, nil, nil, mintSecret, []chain.Address{alice})
	r := mustSucceed(t, call(t, c, issuer, ConfidentialTokenName, "mint", 0, args))
	ids, err := DecU64List(r.Return)
	if err != nil || len(ids) != 1 {
		t.Fatalf("mint returned %v, %v", ids, err)
	}

	// Non-issuer mint is rejected.
	badMint := ctProve(t, alice, true, nil, nil,
		[]ct.OutputSecret{{V: 5, R: fr.NewElement(1), Rho: fr.NewElement(2)}}, []chain.Address{alice})
	if r := call(t, c, alice, ConfidentialTokenName, "mint", 0, badMint); r.Err == nil {
		t.Fatal("non-issuer mint succeeded")
	}

	// The note's public record hides the amount: commitment + cipher only.
	note, err := ReadCTNote(c, ConfidentialTokenName, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if note.Owner != alice {
		t.Fatalf("note owner %x", note.Owner)
	}
	if !note.Comm.Equal(cs.params.Commit(100, &mintSecret[0].R)) {
		t.Fatal("stored commitment mismatch")
	}

	// The auditor — and only the auditor — opens the amount.
	op, err := cs.ak.Open(cs.params, note.Comm, &note.Audit)
	if err != nil || op.V != 100 {
		t.Fatalf("auditor open: v=%d err=%v", op.V, err)
	}

	// Alice splits her note: 75 to bob, 25 back to herself.
	inOpening := []ct.Opening{{V: 100, R: mintSecret[0].R}}
	outSecrets := []ct.OutputSecret{
		{V: 75, R: fr.NewElement(21), Rho: fr.NewElement(22)},
		{V: 25, R: fr.NewElement(23), Rho: fr.NewElement(24)},
	}
	recips := []chain.Address{bob, alice}
	targs := ctProve(t, alice, false, ids, inOpening, outSecrets, recips)
	r = mustSucceed(t, call(t, c, alice, ConfidentialTokenName, "transfer", 0, targs))
	outIDs, err := DecU64List(r.Return)
	if err != nil || len(outIDs) != 2 {
		t.Fatalf("transfer returned %v, %v", outIDs, err)
	}

	// Non-auditors see only commitments; the auditor opens both outputs
	// and the values conserve the input.
	n1, err := ReadCTNote(c, ConfidentialTokenName, outIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	n2, err := ReadCTNote(c, ConfidentialTokenName, outIDs[1])
	if err != nil {
		t.Fatal(err)
	}
	if n1.Owner != bob || n2.Owner != alice {
		t.Fatal("transfer recipients wrong")
	}
	o1, err := cs.ak.Open(cs.params, n1.Comm, &n1.Audit)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := cs.ak.Open(cs.params, n2.Comm, &n2.Audit)
	if err != nil {
		t.Fatal(err)
	}
	if o1.V != 75 || o2.V != 25 {
		t.Fatalf("auditor opened %d + %d, want 75 + 25", o1.V, o2.V)
	}

	// The spent input cannot be spent again.
	replay := ctProve(t, alice, false, ids, inOpening, outSecrets, recips)
	if r := call(t, c, alice, ConfidentialTokenName, "transfer", 0, replay); r.Err == nil {
		t.Fatal("double spend succeeded")
	} else if !errors.Is(r.Err, chain.ErrReverted) {
		t.Fatalf("double spend error %v", r.Err)
	}

	// Bob cannot spend a note he does not own.
	steal := ctProve(t, bob, false, []uint64{outIDs[1]},
		[]ct.Opening{{V: 25, R: outSecrets[1].R}},
		[]ct.OutputSecret{{V: 25, R: fr.NewElement(31), Rho: fr.NewElement(32)}},
		[]chain.Address{bob})
	if r := call(t, c, bob, ConfidentialTokenName, "transfer", 0, steal); r.Err == nil {
		t.Fatal("theft succeeded")
	}
}

func TestConfidentialTransferRejectsForgery(t *testing.T) {
	c, issuer, alice, bob := ctEnv(t)

	mintSecret := []ct.OutputSecret{{V: 50, R: fr.NewElement(41), Rho: fr.NewElement(42)}}
	args := ctProve(t, issuer, true, nil, nil, mintSecret, []chain.Address{alice})
	r := mustSucceed(t, call(t, c, issuer, ConfidentialTokenName, "mint", 0, args))
	ids, _ := DecU64List(r.Return)

	inOpening := []ct.Opening{{V: 50, R: mintSecret[0].R}}
	outSecrets := []ct.OutputSecret{{V: 50, R: fr.NewElement(43), Rho: fr.NewElement(44)}}
	good := ctProve(t, alice, false, ids, inOpening, outSecrets, []chain.Address{bob})

	// Redirecting the payment to a different recipient breaks the
	// Fiat–Shamir context: same proof bytes, different statement.
	d, err := DecodeCTTransfer(good)
	if err != nil {
		t.Fatal(err)
	}
	redirected := CTTransferArgs(d.InIDs, d.InComms, d.Outputs, []chain.Address{alice}, d.Proof)
	if r := call(t, c, alice, ConfidentialTokenName, "transfer", 0, redirected); r.Err == nil {
		t.Fatal("recipient redirect accepted")
	}

	// Corrupting a sigma response is caught by the in-contract check.
	var one fr.Element
	one.SetOne()
	d.Proof.Outputs[0].ZR.Add(&d.Proof.Outputs[0].ZR, &one)
	tampered := CTTransferArgs(d.InIDs, d.InComms, d.Outputs, []chain.Address{bob}, d.Proof)
	if r := call(t, c, alice, ConfidentialTokenName, "transfer", 0, tampered); r.Err == nil {
		t.Fatal("tampered sigma accepted")
	}

	// Lying about the input commitment (claiming a richer note) fails the
	// storage cross-check even though the sigma proof self-verifies.
	cs := ctSystem()
	fatIn := []ct.Opening{{V: 90, R: fr.NewElement(45)}}
	fatOut := []ct.OutputSecret{{V: 90, R: fr.NewElement(46), Rho: fr.NewElement(47)}}
	forged := ctProve(t, alice, false, ids, fatIn, fatOut, []chain.Address{bob})
	if r := call(t, c, alice, ConfidentialTokenName, "transfer", 0, forged); r.Err == nil {
		t.Fatal("input commitment substitution accepted")
	}
	_ = cs

	// The honest transfer still goes through afterwards.
	mustSucceed(t, call(t, c, alice, ConfidentialTokenName, "transfer", 0, good))
}

// deployToyPiK deploys the 3-public toy π_k verifier (kc = c + hv) and
// returns matching (proof, kc, c, hv) verify parts.
func deployToyPiK(t *testing.T, c *chain.Chain) [][]byte {
	t.Helper()
	tau := fr.NewElement(0xdef)
	srs, err := kzg.NewSRSFromSecret(64, &tau)
	if err != nil {
		t.Fatal(err)
	}
	sys := plonk.NewConstraintSystem(3)
	minusOne := fr.NewFromInt64(-1)
	sys.MustAddGate(plonk.Gate{QL: fr.One(), QR: fr.One(), QO: minusOne, A: 1, B: 2, C: 0})
	kcv, cv, hvv := fr.NewElement(30), fr.NewElement(10), fr.NewElement(20)
	pk, vk, err := plonk.Setup(sys, srs)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := plonk.Prove(pk, []fr.Element{kcv, cv, hvv})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("pik-verifier", NewVerifier(vk), VerifierCodeSize); err != nil {
		t.Fatal(err)
	}
	kcB, cB, hvB := kcv.Bytes(), cv.Bytes(), hvv.Bytes()
	return [][]byte{proof.Bytes(), kcB[:], cB[:], hvB[:]}
}

func TestConfidentialEscrowSettle(t *testing.T) {
	c, issuer, alice, seller := ctEnv(t)
	parts := deployToyPiK(t, c)

	// Alice holds a confidential note worth 500.
	mintSecret := []ct.OutputSecret{{V: 500, R: fr.NewElement(51), Rho: fr.NewElement(52)}}
	args := ctProve(t, issuer, true, nil, nil, mintSecret, []chain.Address{alice})
	r := mustSucceed(t, call(t, c, issuer, ConfidentialTokenName, "mint", 0, args))
	ids, _ := DecU64List(r.Return)

	// She locks it as payment for token 7's key-secure exchange.
	mustSucceed(t, call(t, c, alice, ConfidentialTokenName, "lock", 0,
		EncodeArgs(U64(1), U64(ids[0]), seller[:], parts[3], parts[2], U64(7))))

	// Locked notes cannot be spent.
	spend := ctProve(t, alice, false, ids,
		[]ct.Opening{{V: 500, R: mintSecret[0].R}},
		[]ct.OutputSecret{{V: 500, R: fr.NewElement(53), Rho: fr.NewElement(54)}},
		[]chain.Address{alice})
	if r := call(t, c, alice, ConfidentialTokenName, "transfer", 0, spend); r.Err == nil {
		t.Fatal("locked note spent")
	}

	// The seller settles with a valid π_k.
	settled := mustSucceed(t, call(t, c, seller, ConfidentialTokenName, "settle", 0,
		EncodeArgs(U64(1), parts[1], parts[0], parts[1], parts[2], parts[3])))

	// The note now belongs to the seller, spendable again.
	note, err := ReadCTNote(c, ConfidentialTokenName, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if note.Owner != seller || note.Status != 1 {
		t.Fatalf("settled note owner=%x status=%d", note.Owner, note.Status)
	}

	// The settlement is public: the machine's Settled event names the
	// exchange, its k_c and the note that moved.
	ev := settled.Logs[len(settled.Logs)-1]
	if want := EncodeArgs(U64(1), parts[1], U64(ids[0])); ev.Name != "Settled" || !bytes.Equal(ev.Data, want) {
		t.Fatalf("settle logged %s %x, want Settled %x", ev.Name, ev.Data, want)
	}
}

// TestConfidentialLockGasFlat: a confidential lock pays for its own
// exchange only. Forty exchanges opened on one chain, each locking its own
// note, must each cost what the first one did.
func TestConfidentialLockGasFlat(t *testing.T) {
	c, issuer, alice, seller := ctEnv(t)
	parts := deployToyPiK(t, c)
	var ids []uint64 // four mints of ten notes: a transfer names at most 16 parties
	for m := uint64(0); m < 4; m++ {
		secrets := make([]ct.OutputSecret, 10)
		recipients := make([]chain.Address, len(secrets))
		for i := range secrets {
			k := 2 * (10*m + uint64(i))
			secrets[i] = ct.OutputSecret{V: 100 + k, R: fr.NewElement(301 + k), Rho: fr.NewElement(302 + k)}
			recipients[i] = alice
		}
		r := mustSucceed(t, call(t, c, issuer, ConfidentialTokenName, "mint", 0, ctProve(t, issuer, true, nil, nil, secrets, recipients)))
		minted, _ := DecU64List(r.Return)
		ids = append(ids, minted...)
	}
	var first uint64
	for i, note := range ids {
		lock := mustSucceed(t, call(t, c, alice, ConfidentialTokenName, "lock", 0,
			EncodeArgs(U64(uint64(i+1)), U64(note), seller[:], parts[3], parts[2], U64(7))))
		if i == 0 {
			first = lock.GasUsed
		} else if lock.GasUsed != first {
			t.Fatalf("exchange %d: lock cost %d gas, the first %d", i+1, lock.GasUsed, first)
		}
	}
	t.Logf("every lock cost %d gas", first)
}

func TestConfidentialEscrowRefund(t *testing.T) {
	c, issuer, alice, seller := ctEnv(t)
	parts := deployToyPiK(t, c)

	mintSecret := []ct.OutputSecret{{V: 5, R: fr.NewElement(61), Rho: fr.NewElement(62)}}
	args := ctProve(t, issuer, true, nil, nil, mintSecret, []chain.Address{alice})
	r := mustSucceed(t, call(t, c, issuer, ConfidentialTokenName, "mint", 0, args))
	ids, _ := DecU64List(r.Return)

	mustSucceed(t, call(t, c, alice, ConfidentialTokenName, "lock", 0,
		EncodeArgs(U64(2), U64(ids[0]), seller[:], parts[3], parts[2], U64(9))))

	for i := 0; i < 12; i++ {
		c.ProduceBlock(nil)
	}
	mustSucceed(t, call(t, c, alice, ConfidentialTokenName, "refund", 0, EncodeArgs(U64(2))))

	// Note back to alice and unspent.
	note, err := ReadCTNote(c, ConfidentialTokenName, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if note.Owner != alice || note.Status != 1 {
		t.Fatalf("refunded note owner=%x status=%d", note.Owner, note.Status)
	}
}

func TestCTTransferCalldataValidation(t *testing.T) {
	c, issuer, alice, _ := ctEnv(t)
	cases := []struct {
		name string
		args []byte
	}{
		{"empty", nil},
		{"wrong arity", EncodeArgs([]byte{1})},
		{"garbage proof", EncodeArgs(U64List(nil), nil, bytes.Repeat([]byte{0}, 224), make([]byte, 20), []byte("nope"))},
	}
	for _, tc := range cases {
		if r := call(t, c, issuer, ConfidentialTokenName, "mint", 0, tc.args); r.Err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
	// Unknown method and unknown note views.
	if r := call(t, c, alice, ConfidentialTokenName, "nope", 0, nil); r.Err == nil {
		t.Fatal("unknown method accepted")
	}
	if r := call(t, c, alice, ConfidentialTokenName, "noteOf", 0, EncodeArgs(U64(404))); r.Err == nil {
		t.Fatal("unknown note read succeeded")
	}
	if _, err := ReadCTNote(c, ConfidentialTokenName, 404); !errors.Is(err, ErrUnknownNote) {
		t.Fatalf("ReadCTNote(404) = %v", err)
	}
}

// TestBlockProofCheckerConfidential covers the confidential path through
// the block checker: sigma forgeries die at the stateless pre-check, valid
// transfers get every π_ct entered in the block's table (amortised gas) —
// one per ct.RangeSlots outputs, so the five-output mint here carries two —
// and π_ct proofs fold together with proofs from other verifiers on the
// same SRS via AddFor.
func TestBlockProofCheckerConfidential(t *testing.T) {
	cs := ctSystem()
	issuer := chain.AddressFromString("issuer")
	alice := chain.AddressFromString("alice")
	tok := NewConfidentialToken(issuer, cs.pub, testPiCTVerifier, "pik-verifier", 10)
	bc := NewBlockProofChecker()
	mustAdd(t, bc, testPiCTVerifier, NewVerifier(cs.vk))
	mustAdd(t, bc, ConfidentialTokenName, tok)

	recipients := []chain.Address{alice, alice, alice, alice, alice}
	secrets := make([]ct.OutputSecret, len(recipients))
	for i := range secrets {
		secrets[i] = ct.OutputSecret{V: uint64(20 + i), R: fr.NewElement(uint64(71 + 2*i)), Rho: fr.NewElement(uint64(72 + 2*i))}
	}
	mintArgs := ctProve(t, issuer, true, nil, nil, secrets, recipients)
	good := &chain.Transaction{From: issuer, Contract: ConfidentialTokenName, Method: "mint", Args: mintArgs}

	// Forge: flip one sigma response byte.
	d, err := DecodeCTTransfer(mintArgs)
	if err != nil {
		t.Fatal(err)
	}
	var one fr.Element
	one.SetOne()
	d.Proof.Outputs[0].ZV.Add(&d.Proof.Outputs[0].ZV, &one)
	forged := &chain.Transaction{From: issuer, Contract: ConfidentialTokenName, Method: "mint",
		Args: CTTransferArgs(d.InIDs, d.InComms, d.Outputs, recipients, d.Proof)}

	// Garbage calldata is rejected too (not silently skipped).
	garbage := &chain.Transaction{From: issuer, Contract: ConfidentialTokenName, Method: "mint", Args: []byte("junk")}

	// Unrelated transaction passes through untouched.
	plain := &chain.Transaction{From: alice, Contract: "other", Method: "poke"}

	n, errs := bc.GossipCheck([]*chain.Transaction{good, forged, garbage, plain})
	if n != 1 {
		t.Fatalf("gossip verified %d txs, want 1", n)
	}
	if errs[0] != nil || errs[1] == nil || errs[2] == nil || errs[3] != nil {
		t.Fatalf("gossip errs %v", errs)
	}
	if !errors.Is(errs[1], ErrCTProofRejected) {
		t.Fatalf("forged sigma error %v", errs[1])
	}

	// CheckBlock enters both range proofs (outputs 0–3, output 4 beside
	// three dummy slots) in the table, under the range verifier's name, at
	// the width of their shared fold.
	marks, errs := bc.CheckBlock([]*chain.Transaction{good})
	if marks.Txs != 1 || marks.Items != 2 || errs[0] != nil {
		t.Fatalf("block check validated %d txs / %d items, errs %v", marks.Txs, marks.Items, errs)
	}
	gd, _ := DecodeCTTransfer(mintArgs)
	ranges, err := gd.Proof.RangeInstances(cs.params, &cs.pub, gd.Statement(issuer, true))
	if err != nil || len(ranges) != 2 {
		t.Fatalf("%d range instances, err %v", len(ranges), err)
	}
	for g, ri := range ranges {
		key := chain.ProofKey(testPiCTVerifier, VerifyArgs(ri.Proof, ri.Public))
		if w := marks.Width[key]; w != 2 {
			t.Fatalf("range proof %d in the table at width %d, want 2", g, w)
		}
	}
}

// TestCheckerRefusesVerifierWithoutDomain: Add refuses a verifier whose
// key's N is not a supported domain size with plonk.ErrDomainSize, so such
// a key never becomes the batch key whose verifier cache would fail every
// fold (the one way Batch.Check and Bisect can return an error). A valid
// verifier added after it fixes the SRS and folds its proof as usual; the
// refused one's transactions carry no recognised proof.
func TestCheckerRefusesVerifierWithoutDomain(t *testing.T) {
	tau := fr.NewElement(0xfeed)
	srs, err := kzg.NewSRSFromSecret(64, &tau)
	if err != nil {
		t.Fatal(err)
	}
	sys := plonk.NewConstraintSystem(1)
	x, y := sys.NewVariable(), sys.NewVariable()
	sys.MustAddGate(plonk.Gate{QM: fr.One(), QO: fr.NewFromInt64(-1), A: x, B: y, C: 0})
	w := []fr.Element{fr.NewElement(6), fr.NewElement(2), fr.NewElement(3)}
	pk, vk, err := plonk.Setup(sys, srs)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := plonk.Prove(pk, w)
	if err != nil {
		t.Fatal(err)
	}
	bad := &plonk.VerifyingKey{N: 1000, NbPublic: 1, G2: vk.G2}
	bc := NewBlockProofChecker()
	if err := bc.Add("bad", NewVerifier(bad)); !errors.Is(err, plonk.ErrDomainSize) {
		t.Fatalf("Add of a key on 1 000 rows: %v, want %v", err, plonk.ErrDomainSize)
	}
	if err := bc.Add("v", NewVerifier(vk)); err != nil {
		t.Fatal(err)
	}
	args := VerifyArgs(proof, w[:1])
	marks, errs := bc.CheckBlock([]*chain.Transaction{
		{Contract: "v", Method: "verify", Args: args},
		{Contract: "bad", Method: "verify", Args: args},
	})
	if marks.Txs != 1 || marks.Items != 1 {
		t.Fatalf("validated %d txs and %d items, want 1 and 1", marks.Txs, marks.Items)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
}

// TestCheckerFoldsAcrossVerifiersOnSharedSRS registers two verifier
// contracts for two different circuits set up over one SRS and confirms one
// batch validates proofs against both (each at the fold's width), while
// a verifier set up over another SRS is refused at registration.
func TestCheckerFoldsAcrossVerifiersOnSharedSRS(t *testing.T) {
	newSRS := func(secret uint64) *kzg.SRS {
		tau := fr.NewElement(secret)
		srs, err := kzg.NewSRSFromSecret(64, &tau)
		if err != nil {
			t.Fatal(err)
		}
		return srs
	}
	// build proves out = x·y (mul) or out = x + y over srs, out public.
	build := func(srs *kzg.SRS, mul bool, pub uint64) (*plonk.VerifyingKey, *plonk.Proof, []fr.Element) {
		sys := plonk.NewConstraintSystem(1)
		x := sys.NewVariable()
		y := sys.NewVariable()
		minusOne := fr.NewFromInt64(-1)
		g := plonk.Gate{QL: fr.One(), QR: fr.One(), QO: minusOne, A: x, B: y, C: 0}
		w := []fr.Element{fr.NewElement(pub), fr.NewElement(pub - 1), fr.NewElement(1)}
		if mul {
			g = plonk.Gate{QM: fr.One(), QO: minusOne, A: x, B: y, C: 0}
			w[1] = fr.NewElement(pub)
		}
		sys.MustAddGate(g)
		pk, vk, err := plonk.Setup(sys, srs)
		if err != nil {
			t.Fatal(err)
		}
		proof, err := plonk.Prove(pk, w)
		if err != nil {
			t.Fatal(err)
		}
		return vk, proof, w[:1]
	}
	srs := newSRS(0xfeed)
	vkA, proofA, pubA := build(srs, true, 17)
	vkB, proofB, pubB := build(srs, false, 23)
	if vkA.QM == vkB.QM || vkA.QL == vkB.QL {
		t.Fatal("the two circuits share selector commitments")
	}
	vkC, proofC, pubC := build(newSRS(0xf00d), true, 17)

	bc := NewBlockProofChecker()
	for _, r := range []struct {
		name string
		vk   *plonk.VerifyingKey
		want error
	}{{"va", vkA, nil}, {"vb", vkB, nil}, {"vc", vkC, ErrForeignSRS}} {
		if err := bc.Add(r.name, NewVerifier(r.vk)); !errors.Is(err, r.want) {
			t.Fatalf("Add(%s): %v, want %v", r.name, err, r.want)
		}
	}
	txs := []*chain.Transaction{
		{Contract: "va", Method: "verify", Args: VerifyArgs(proofA, pubA)},
		{Contract: "vb", Method: "verify", Args: VerifyArgs(proofB, pubB)},
		{Contract: "vb", Method: "verify", Args: VerifyArgs(breakProof(proofB), pubB)},
		{Contract: "vc", Method: "verify", Args: VerifyArgs(proofC, pubC)},
	}
	marks, errs := bc.CheckBlock(txs)
	if marks.Txs != 2 || marks.Items != 2 {
		t.Fatalf("validated %d txs and %d items, want 2 and 2", marks.Txs, marks.Items)
	}
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("valid cross-verifier proofs rejected: %v", errs)
	}
	for i, name := range []string{"va", "vb"} {
		if w := marks.Width[chain.ProofKey(name, txs[i].Args)]; w != 2 {
			t.Fatalf("%s's proof in the table at width %d, want 2", name, w)
		}
	}
	if errs[2] == nil {
		t.Fatal("broken proof survived the shared fold")
	}
	// The refused verifier is not registered: its call is left to execute.
	if errs[3] != nil || marks.Width[chain.ProofKey("vc", txs[3].Args)] != 0 {
		t.Fatalf("the foreign-SRS verifier's proof was screened: %v", errs[3])
	}
}
