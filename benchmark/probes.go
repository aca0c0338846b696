package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/circuit/audit/registry"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/plonk"
	"github.com/zkdet/zkdet/internal/poly"
	"github.com/zkdet/zkdet/internal/storage"
	"github.com/zkdet/zkdet/internal/wal"
)

// Kernel probes call one public function of one layer directly, at the
// sizes the exchange circuits compile to, and report the calibrated median
// of a few repetitions. They run only on traced invocations, after the
// workload, and tell an optimisation's author which layer moved.
//
// Repetition counts are set by cost: a microsecond kernel gets a large
// batch repeated probeFastReps times, a one-second proof gets
// probeSlowReps (its reading is the mean of two), so that the probes add
// about half a minute to a traced run and the driver's runs fit its budget.
const (
	probeFastReps = 15
	probeMidReps  = 7
	probeSlowReps = 2

	probeBatchN      = 64   // plonk.Batch fold width
	probeGossipTxs   = 256  // settlements in the gossip-screened block
	probeExecTxs     = 256  // DataNFT mints per SubmitBatch probe
	probeExecAccts   = 2048 // funded accounts behind the SubmitBatch probe
	probeFrMuls      = 1 << 20
	probeWALRecord   = 1 << 10
	probeWALAppends  = 25
	probeCTValue     = 5000
	probeCTChange    = 123456
	probeGateEntries = 5
)

// probeSet accumulates per-layer readings.
type probeSet struct {
	r   *runner
	out map[string]metric
	n   int // the π_e circuit's domain size, set by probePlonk
}

func (p *probeSet) set(name string, v float64, unit string) {
	p.out[name] = metric{Value: v, Unit: unit}
}

// timed runs fn, work of the given parallel share, reps times with a
// calibration boundary before each and returns the calibrated median in
// milliseconds.
func (p *probeSet) timed(reps int, share float64, fn func() error) (float64, error) {
	vs := make([]interval, 0, reps)
	for i := 0; i < reps; i++ {
		p.r.boundary()
		iv := p.r.begin(share)
		if err := fn(); err != nil {
			return 0, err
		}
		vs = append(vs, p.r.since(iv))
	}
	p.r.calibrateNow()
	cal := make([]float64, len(vs))
	for i, iv := range vs {
		cal[i] = p.r.calibratedMS(iv)
	}
	return median(cal), nil
}

// compiled is one circuit ready for the plonk layer.
type compiled struct {
	cs      *plonk.ConstraintSystem
	witness []fr.Element
	public  []fr.Element
}

func compile(b *circuit.Builder) (*compiled, error) {
	cs, w, err := b.Compile()
	if err != nil {
		return nil, err
	}
	return &compiled{cs: cs, witness: w, public: b.PublicValues()}, nil
}

// runProbes measures every probe metric. sys is the run's proof system, so
// circuit keys the workload already built are reused.
func runProbes(r *runner, sys *core.System) (map[string]metric, error) {
	p := &probeSet{r: r, out: make(map[string]metric)}
	steps := []struct {
		name string
		fn   func(*probeSet, *core.System) error
	}{
		{"circuit gates", probeGates},
		{"plonk", probePlonk},
		{"field and curve kernels", probeKernels},
		{"core proofs", probeCore},
		{"confidential transfer", probeCT},
		{"contracts", probeContracts},
		{"chain executor", probeExec},
		{"wal", probeWAL},
	}
	for _, s := range steps {
		r.logf("probe: %s", s.name)
		if err := s.fn(p, sys); err != nil {
			return nil, fmt.Errorf("probe %s: %w", s.name, err)
		}
	}
	return p.out, nil
}

// probeGates reads exact gate counts from the circuit audit registry.
func probeGates(p *probeSet, _ *core.System) error {
	want := map[string]string{
		"core/pi_e":       "circuit.pi_e_gates",
		"core/pi_p/range": "circuit.pi_p_gates",
		"core/pi_k":       "circuit.pi_k_gates",
		"core/pi_t/dup":   "circuit.pi_t_gates",
		"ct/pi_ct":        "circuit.pi_ct_gates",
	}
	found := 0
	for _, e := range registry.Entries() {
		name, ok := want[e.Name]
		if !ok {
			continue
		}
		info, err := e.Build()
		if err != nil {
			return err
		}
		p.set(name, float64(len(info.Gates)), "count")
		found++
	}
	if found != probeGateEntries {
		return fmt.Errorf("audit registry has %d of the %d exchange circuits", found, probeGateEntries)
	}
	return nil
}

func auditCircuit(name string) (*compiled, error) {
	for _, ac := range core.AuditCircuits() {
		if ac.Name == name {
			b, err := ac.Build()
			if err != nil {
				return nil, err
			}
			return compile(b)
		}
	}
	return nil, fmt.Errorf("core.AuditCircuits has no %q", name)
}

// probeKernels times fr, poly, bn254 and kzg at the π_e circuit's domain
// size, the classic prover's working size in the exchange.
func probeKernels(p *probeSet, sys *core.System) error {
	n := p.n
	vec := func(seed uint64) []fr.Element {
		out := make([]fr.Element, n)
		x := fr.NewElement(seed)
		for i := range out {
			out[i] = x
			x.Mul(&x, &x)
			x.Add(&x, &out[0])
		}
		return out
	}

	a, b := fr.NewElement(0x1234567), fr.NewElement(0x89abcde)
	v, err := p.timed(probeFastReps, shareSerial, func() error {
		for i := 0; i < probeFrMuls; i++ {
			a.Mul(&a, &b)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("fr.mul_ns", v*1e6/probeFrMuls, "ns")

	inv := vec(3)
	v, err = p.timed(probeFastReps, shareProver, func() error {
		fr.BatchInvert(inv)
		return nil
	})
	if err != nil {
		return err
	}
	p.set("fr.batch_inv_ns", v*1e6/float64(n), "ns")

	dom, err := poly.NewDomain(uint64(n))
	if err != nil {
		return err
	}
	coeffs := vec(5)
	if v, err = p.timed(probeFastReps, shareProver, func() error { return dom.FFT(coeffs) }); err != nil {
		return err
	}
	p.set("poly.fft_ms", v, "ms")
	if v, err = p.timed(probeFastReps, shareProver, func() error { return dom.FFTCoset(coeffs) }); err != nil {
		return err
	}
	p.set("poly.fft_coset_ms", v, "ms")

	scalars := vec(7)
	points := sys.SRS().G1[:n]
	if v, err = p.timed(probeMidReps, shareProver, func() error {
		_, err := bn254.G1MSM(points, scalars)
		return err
	}); err != nil {
		return err
	}
	p.set("bn254.msm_ms", v, "ms")

	g1, g2 := bn254.G1Generator(), bn254.G2Generator()
	if v, err = p.timed(probeFastReps, shareSerial, func() error {
		_, err := bn254.PairingCheck([]bn254.G1Affine{g1, g1}, []bn254.G2Affine{g2, g2})
		return err
	}); err != nil {
		return err
	}
	p.set("bn254.pairing_check2_ms", v, "ms")

	pol := poly.Polynomial(vec(11))
	if v, err = p.timed(probeMidReps, shareProver, func() error {
		_, err := kzg.Commit(sys.SRS(), pol)
		return err
	}); err != nil {
		return err
	}
	p.set("kzg.commit_ms", v, "ms")
	z := fr.NewElement(0xfeed)
	if v, err = p.timed(probeMidReps, shareProver, func() error {
		_, err := kzg.Open(sys.SRS(), pol, &z)
		return err
	}); err != nil {
		return err
	}
	p.set("kzg.open_ms", v, "ms")
	return nil
}

// probePlonk times the proof system itself: the classic path on the π_e
// circuit and the extended (LogUp + custom gate) path on the π_ct circuit.
func probePlonk(p *probeSet, sys *core.System) error {
	piE, err := auditCircuit("core/pi_e")
	if err != nil {
		return err
	}
	var pk *plonk.ProvingKey
	var vk *plonk.VerifyingKey
	v, err := p.timed(probeSlowReps, shareProver, func() error {
		var err error
		pk, vk, err = plonk.Setup(piE.cs, sys.SRS())
		return err
	})
	if err != nil {
		return err
	}
	p.set("plonk.setup_ms", v, "ms")
	p.n = int(vk.N)

	var proof *plonk.Proof
	if v, err = p.timed(probeSlowReps, shareProver, func() error {
		var err error
		proof, err = plonk.Prove(pk, piE.witness)
		return err
	}); err != nil {
		return err
	}
	p.set("plonk.prove_classic_ms", v, "ms")
	p.set("plonk.proof_bytes", float64(len(proof.Bytes())), "B")

	if v, err = p.timed(probeFastReps, shareSerial, func() error { return plonk.Verify(vk, proof, piE.public) }); err != nil {
		return err
	}
	p.set("plonk.verify_ms", v, "ms")

	if v, err = p.timed(probeMidReps, shareProver, func() error {
		batch := plonk.NewBatch(vk)
		for i := 0; i < probeBatchN; i++ {
			if err := batch.Add(proof, piE.public); err != nil {
				return err
			}
		}
		return batch.Check()
	}); err != nil {
		return err
	}
	p.set("plonk.batch_verify_ms_per_proof", v/probeBatchN, "ms")

	piCT, err := compile(ct.AuditRangeCircuit())
	if err != nil {
		return err
	}
	pkCT, vkCT, err := plonk.Setup(piCT.cs, sys.SRS())
	if err != nil {
		return err
	}
	var proofCT *plonk.Proof
	if v, err = p.timed(probeSlowReps, shareProver, func() error {
		var err error
		proofCT, err = plonk.Prove(pkCT, piCT.witness)
		return err
	}); err != nil {
		return err
	}
	p.set("plonk.prove_lookup_ms", v, "ms")
	return plonk.Verify(vkCT, proofCT, piCT.public)
}

// probeCore times each proof of the exchange through core's public API, at
// the workloads' shape: four entries, RangePredicate{16}.
func probeCore(p *probeSet, sys *core.System) error {
	rng := p.r.rng
	data := make(core.Dataset, exchangeEntries)
	for i := range data {
		data[i] = fr.NewElement(rng.Uint64N(1 << exchangeBits))
	}
	key := seededElement(rng)
	pred := core.RangePredicate{Bits: exchangeBits}

	var st *core.EncryptionStatement
	var w *core.EncryptionWitness
	var piE *plonk.Proof
	v, err := p.timed(probeSlowReps, shareProver, func() error {
		var err error
		st, w, _, piE, err = sys.EncryptAndProve(data, key)
		return err
	})
	if err != nil {
		return err
	}
	p.set("core.prove_pi_e_ms", v, "ms")
	if v, err = p.timed(probeFastReps, shareSerial, func() error { return sys.VerifyEncryption(st, piE) }); err != nil {
		return err
	}
	p.set("core.verify_pi_e_ms", v, "ms")

	seller, err := core.NewSeller(sys, data, key, pred)
	if err != nil {
		return err
	}
	var piP *plonk.Proof
	if v, err = p.timed(probeSlowReps, shareProver, func() error {
		var err error
		piP, err = seller.ProveData()
		return err
	}); err != nil {
		return err
	}
	p.set("core.prove_pi_p_ms", v, "ms")
	buyer := core.NewBuyer(sys, seller.Listing(exchangePrice), pred)
	if v, err = p.timed(probeFastReps, shareSerial, func() error { return buyer.VerifyData(piP) }); err != nil {
		return err
	}
	p.set("core.verify_pi_p_ms", v, "ms")

	kv := seededElement(rng)
	hv := core.HashChallenge(kv)
	if v, err = p.timed(probeSlowReps, shareProver, func() error {
		_, _, err := seller.NegotiateKey(kv, hv)
		return err
	}); err != nil {
		return err
	}
	p.set("core.prove_pi_k_ms", v, "ms")

	var piT *core.TransformProof
	if v, err = p.timed(probeSlowReps, shareProver, func() error {
		var err error
		piT, _, err = sys.ProveDuplication(data, st.DataCommitment, w.DataBlinder)
		return err
	}); err != nil {
		return err
	}
	p.set("core.prove_pi_t_ms", v, "ms")
	if v, err = p.timed(probeFastReps, shareSerial, func() error { return sys.VerifyTransform(piT, nil) }); err != nil {
		return err
	}
	p.set("core.verify_pi_t_ms", v, "ms")
	return nil
}

// probeCT times the confidential-transfer proof the way the exchange uses
// it: one input split into a payment and change.
func probeCT(p *probeSet, sys *core.System) error {
	rng := p.r.rng
	params := ct.DefaultParams()
	auditor := ct.AuditorKeyFromSecret(seededElement(rng))
	pub := auditor.PublicKey()
	rp := ct.NewRangeProver(sys.SRS())
	vk, err := rp.VK()
	if err != nil {
		return err
	}
	in := ct.Opening{V: probeCTValue + probeCTChange, R: seededElement(rng)}
	secrets := []ct.OutputSecret{
		{V: probeCTValue, R: seededElement(rng), Rho: seededElement(rng)},
		{V: probeCTChange, R: seededElement(rng), Rho: seededElement(rng)},
	}
	outs := make([]ct.Output, len(secrets))
	for i := range secrets {
		outs[i] = params.NewOutput(&pub, secrets[i].V, &secrets[i].R, &secrets[i].Rho)
	}
	st := &ct.Statement{
		Inputs:  []ct.Commitment{params.Commit(in.V, &in.R)},
		Outputs: outs,
		Context: []byte("benchmark/ct"),
	}
	var proof *ct.Proof
	v, err := p.timed(probeSlowReps, shareProver, func() error {
		var err error
		proof, err = ct.Prove(params, rp, &pub, st, []ct.Opening{in}, secrets, nil)
		return err
	})
	if err != nil {
		return err
	}
	p.set("ct.prove_ms_per_output", v/float64(len(outs)), "ms")
	if err := ct.Verify(params, vk, &pub, st, proof); err != nil {
		return err
	}
	if v, err = p.timed(probeFastReps, shareSerial, func() error { return ct.VerifySigma(params, &pub, st, proof) }); err != nil {
		return err
	}
	p.set("ct.sigma_verify_ms", v, "ms")
	if v, err = p.timed(probeFastReps, shareSerial, func() error {
		op, err := auditor.Open(params, outs[0].C, &outs[0].Audit)
		if err == nil && op.V != probeCTValue {
			err = checkf("auditor opened %d, the output holds %d", op.V, probeCTValue)
		}
		return err
	}); err != nil {
		return err
	}
	p.set("ct.audit_open_ms", v, "ms")
	return nil
}

// probeContracts reads exact per-transaction gas from an in-memory
// deployment (one transaction of each kind, proofs verified unbatched) and
// times the gossip screen over a block of settlements.
func probeContracts(p *probeSet, sys *core.System) error {
	rng := p.r.rng
	seller, buyer, issuer := chain.AddressFromString("probe-seller"), chain.AddressFromString("probe-buyer"), chain.AddressFromString("probe-issuer")
	auditor := ct.AuditorKeyFromSecret(seededElement(rng))
	g := genesis{auditor: auditor, issuer: issuer, funded: []chain.Address{seller, buyer, issuer}, amount: exchangeFunding}
	mkt, err := g.deploy(sys, storage.NewStore())
	if err != nil {
		return err
	}
	gas := make(map[string]uint64)
	mkt.Submitter = func(tx chain.Transaction) (*chain.Receipt, error) {
		r, err := mkt.Chain.Submit(tx)
		if err == nil && r.Err == nil {
			gas[tx.Contract+"."+tx.Method] = r.GasUsed
		}
		return r, err
	}
	fx, err := proveFixture(p.r, sys)
	if err != nil {
		return err
	}
	uri := make([]byte, 32)
	send := func(from chain.Address, contract, method string, value uint64, args []byte) (*chain.Receipt, error) {
		r, err := mkt.Submitter(chain.Transaction{From: from, Contract: contract, Method: method, Value: value,
			Args: args, Nonce: mkt.Chain.NonceOf(from)})
		if err != nil {
			return nil, err
		}
		if r.Err != nil {
			return nil, r.Err
		}
		return r, nil
	}
	rcpt, err := send(seller, contracts.DataNFTName, "mint", 0, contracts.EncodeArgs(uri, fx.commitment))
	if err != nil {
		return err
	}
	root, err := contracts.DecU64(rcpt.Return)
	if err != nil {
		return err
	}
	if rcpt, err = send(seller, contracts.DataNFTName, "duplicate", 0, contracts.EncodeArgs(contracts.U64(root), uri, fx.commitment)); err != nil {
		return err
	}
	child, err := contracts.DecU64(rcpt.Return)
	if err != nil {
		return err
	}
	if _, err = send(buyer, contracts.EscrowName, "open", exchangePrice, contracts.EncodeArgs(contracts.U64(1), seller[:], fx.hv, fx.ck)); err != nil {
		return err
	}
	if _, err = send(seller, contracts.EscrowName, "settle", 0, contracts.EncodeArgs(contracts.U64(1), fx.kc, fx.proof, fx.kc, fx.ck, fx.hv)); err != nil {
		return err
	}
	if _, err = send(seller, contracts.DataNFTName, "transfer", 0, contracts.EncodeArgs(contracts.U64(child), buyer[:])); err != nil {
		return err
	}

	// The confidential pair needs real π_ct and π_k proofs: run the
	// marketplace path once.
	notes, err := mkt.ConfidentialMint([]core.ConfPayment{{Value: probeCTValue + probeCTChange, To: buyer}})
	if err != nil {
		return err
	}
	if notes, err = mkt.ConfidentialTransfer(buyer, notes, []core.ConfPayment{
		{Value: probeCTValue, To: buyer}, {Value: probeCTChange, To: buyer}}); err != nil {
		return err
	}
	data := make(core.Dataset, exchangeEntries)
	for i := range data {
		data[i] = fr.NewElement(rng.Uint64N(1 << exchangeBits))
	}
	asset, err := mkt.MintAsset(seller, "probe-seller", data, seededElement(rng))
	if err != nil {
		return err
	}
	if _, err := mkt.SellConfidential(2, seller, buyer, asset, core.RangePredicate{Bits: exchangeBits}, notes[0]); err != nil {
		return err
	}
	for name, key := range map[string]string{
		"contracts.mint_gas":        contracts.DataNFTName + ".mint",
		"contracts.duplicate_gas":   contracts.DataNFTName + ".duplicate",
		"contracts.open_gas":        contracts.EscrowName + ".open",
		"contracts.settle_gas":      contracts.EscrowName + ".settle",
		"contracts.transfer_gas":    contracts.DataNFTName + ".transfer",
		"contracts.ct_transfer_gas": contracts.ConfidentialTokenName + ".transfer",
		"contracts.ct_settle_gas":   contracts.ConfidentialTokenName + ".settle",
	} {
		v, ok := gas[key]
		if !ok {
			return fmt.Errorf("no receipt seen for %s", key)
		}
		p.set(name, float64(v), "gas")
	}

	checker := mkt.ProofChecker()
	txs := make([]*chain.Transaction, probeGossipTxs)
	for i := range txs {
		txs[i] = &chain.Transaction{From: seller, Contract: contracts.EscrowName, Method: "settle",
			Args: contracts.EncodeArgs(contracts.U64(uint64(100+i)), fx.kc, fx.proof, fx.kc, fx.ck, fx.hv)}
	}
	v, err := p.timed(probeMidReps, shareProver, func() error {
		verified, errs := checker.GossipCheck(txs)
		if verified != len(txs) {
			return checkf("gossip screen verified %d of %d valid settlements: %v", verified, len(txs), errs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("contracts.gossip_check_ms_per_tx", v/probeGossipTxs, "ms")
	return nil
}

// probeExec times chain.SubmitBatch at execution widths 1 and 2: a batch
// of DataNFT mints from distinct senders over a 2048-account state.
func probeExec(p *probeSet, _ *core.System) error {
	for _, width := range []int{1, 2} {
		c := chain.New()
		if _, err := c.Deploy(contracts.DataNFTName, &contracts.DataNFT{}, contracts.DataNFTCodeSize); err != nil {
			return err
		}
		accts := make([]chain.Address, probeExecAccts)
		for i := range accts {
			accts[i] = chain.AddressFromString(fmt.Sprintf("exec-%d", i))
			c.Faucet(accts[i], nodeFunding)
		}
		args := contracts.EncodeArgs(make([]byte, 32), make([]byte, 64))
		round := 0
		share := shareSerial
		if width > 1 {
			share = shareProver
		}
		v, err := p.timed(probeMidReps, share, func() error {
			txs := make([]chain.Transaction, probeExecTxs)
			for i := range txs {
				from := accts[(round*probeExecTxs+i)%len(accts)]
				txs[i] = chain.Transaction{From: from, Contract: contracts.DataNFTName, Method: "mint",
					Args: args, Nonce: c.NonceOf(from)}
			}
			round++
			for i, o := range c.SubmitBatch(txs, width) {
				if o.Err != nil || o.Receipt.Err != nil {
					return fmt.Errorf("batch tx %d: %v %v", i, o.Err, o.Receipt)
				}
			}
			c.SealBlock()
			return nil
		})
		if err != nil {
			return err
		}
		p.set(fmt.Sprintf("chain.submit_batch_tx_per_s_w%d", width), probeExecTxs/(v/1000), "1/s")
	}
	return nil
}

// probeWAL times one group-committed AppendSync of a 1 KiB record.
func probeWAL(p *probeSet, _ *core.System) error {
	dir, err := os.MkdirTemp(p.r.dir, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer l.Close() //nolint:errcheck // probe log, discarded with its directory
	rec := make([]byte, probeWALRecord)
	v, err := p.timed(probeMidReps, shareSerial, func() error {
		for i := 0; i < probeWALAppends; i++ {
			if _, err := l.AppendSync(1, rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("wal.append_sync_ms", v/probeWALAppends, "ms")
	return nil
}

// dirSize sums the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
