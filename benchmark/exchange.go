package main

import (
	"errors"
	"fmt"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/indexer"
)

const (
	exchangeEntries  = 4    // dataset size n
	exchangeBits     = 16   // RangePredicate width; seeded values stay below 2^16
	exchangePrice    = 5000 // public price and confidential payment
	exchangeFunding  = 1e12 // native balance per account
	exchangeNote     = 16e6 // confidential funding note minted in set-up; amounts stay below 2^24
	readsPerBoundary = 2    // AuditLineage calls at each boundary inside an op
)

// exchangeWorkload drives full exchanges through the durable node from one
// sequential client: the public path (mint → duplicate → sell via escrow →
// audit) or its confidential twin (mint → confidential transfer → sell for
// a hidden-amount note → auditor-mode audit).
type exchangeWorkload struct {
	r            *runner
	e            *env
	confidential bool
	auditor      *ct.AuditorKey
	seller       chain.Address
	buyer        chain.Address
	reg          *core.ProofRegistry
	pred         core.RangePredicate
	nextExchange uint64
	change       *core.ConfNote // buyer's spendable note, confidential only
	readTarget   uint64         // the last token sold: what the reads audit
}

func newExchangeWorkload(r *runner, confidential bool) (*exchangeWorkload, error) {
	w := &exchangeWorkload{
		r: r, confidential: confidential,
		seller: chain.AddressFromString(fmt.Sprintf("seller-%d", r.rng.Uint64())),
		buyer:  chain.AddressFromString(fmt.Sprintf("buyer-%d", r.rng.Uint64())),
		reg:    core.NewProofRegistry(),
		pred:   core.RangePredicate{Bits: exchangeBits},
		// Exchange ids are an input like any other: seeded base, then dense.
		nextExchange: 1 + r.rng.Uint64N(1<<32),
	}
	g := genesis{funded: []chain.Address{w.seller, w.buyer}, amount: exchangeFunding}
	if confidential {
		w.auditor = ct.AuditorKeyFromSecret(seededElement(r.rng))
		g.auditor = w.auditor
		g.issuer = chain.AddressFromString(fmt.Sprintf("issuer-%d", r.rng.Uint64()))
		g.funded = append(g.funded, g.issuer)
	}
	e, err := newEnv(r, g)
	if err != nil {
		return nil, err
	}
	w.e = e
	e.boundary = w.boundary
	if confidential {
		notes, err := e.mkt.ConfidentialMint([]core.ConfPayment{{Value: exchangeNote, To: w.buyer}})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("minting the funding note: %w", err)
		}
		w.change = notes[0]
	}
	return w, nil
}

// dataset draws n seeded values below 2^16, so RangePredicate{16} holds.
func (w *exchangeWorkload) dataset() core.Dataset {
	d := make(core.Dataset, exchangeEntries)
	for i := range d {
		d[i] = fr.NewElement(w.r.rng.Uint64N(1 << exchangeBits))
	}
	return d
}

// measure runs one full exchange and its reads: one measured window. A typed
// error from the system is a failed operation; a wrong output is a check
// failure and fatal.
func (w *exchangeWorkload) measure() error {
	r, e := w.r, w.e
	data, key := w.dataset(), seededElement(r.rng)
	exID := w.nextExchange
	w.nextExchange++

	r.boundary()
	window := r.begin(r.plan.opShare)
	e.tr.startTrace()
	root := e.tr.begin(spanOp)
	iv := r.begin(r.plan.opShare)
	target, err := w.exchange(exID, data, key)
	iv = r.since(iv)
	e.tr.end(root)
	switch {
	case errors.Is(err, errCheck):
		return err
	case err != nil:
		r.logf("op failed: %v", err)
	default:
		w.readTarget = target
	}
	r.recordOp(iv, err == nil)
	r.windows = append(r.windows, r.since(window))
	return nil
}

// boundary runs wherever the marketplace hands control back between two
// proofs (before every blob put and every submit): the host is sampled if a
// sample is due, and the workload's reads are taken there, with the op's
// clock stopped. Reads spread through the run this way see the host's
// sub-second speed changes many times over; the same number of reads bunched
// after each op would see them three times, and their median would scatter
// three times as much.
func (w *exchangeWorkload) boundary() {
	r := w.r
	r.boundary()
	if w.readTarget == 0 {
		return
	}
	sp := r.tr.begin(spanRead)
	start := r.now()
	for i := 0; i < readsPerBoundary; i++ {
		iv := r.begin(shareSerial)
		_, err := w.audit(w.readTarget)
		r.recordRead(r.since(iv), err == nil)
		if err != nil {
			r.logf("read failed: %v", err)
		}
	}
	r.tr.end(sp)
	r.paused += r.now() - start
}

// audit is the workload's read: the buyer's due-diligence walk over the
// token's lineage, in auditor mode on the confidential path.
func (w *exchangeWorkload) audit(tokenID uint64) (*core.AuditReport, error) {
	if w.confidential {
		return w.e.mkt.AuditLineage(w.reg, tokenID, core.WithAuditorKey(w.auditor))
	}
	return w.e.mkt.AuditLineage(w.reg, tokenID)
}

// exchange is the unit operation. It returns the token whose lineage the
// reads audit.
func (w *exchangeWorkload) exchange(exID uint64, data core.Dataset, key fr.Element) (uint64, error) {
	if w.confidential {
		return w.exchangeConfidential(exID, data, key)
	}
	return w.exchangePublic(exID, data, key)
}

func (w *exchangeWorkload) exchangePublic(exID uint64, data core.Dataset, key fr.Element) (uint64, error) {
	e, mkt := w.e, w.e.mkt

	sp := e.tr.begin("core.mint")
	asset, err := mkt.MintAsset(w.seller, "seller", data, key)
	e.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("mint: %w", err)
	}
	w.reg.PublishAsset(asset)

	sp = e.tr.begin("core.duplicate")
	res, err := mkt.Duplicate(w.seller, "seller", asset)
	e.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("duplicate: %w", err)
	}
	w.reg.PublishTransform(res, nil)
	child := res.Assets[0]

	sp = e.tr.begin("core.sell")
	got, err := mkt.SellViaEscrow(exID, w.seller, w.buyer, child, w.pred, exchangePrice)
	e.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("sell: %w", err)
	}

	sp = e.tr.begin("core.audit")
	report, err := mkt.AuditLineage(w.reg, child.TokenID)
	e.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("audit: %w", err)
	}

	if err := w.checkDelivery(child.TokenID, data, got); err != nil {
		return 0, err
	}
	rec, err := e.ix.Exchange(exID)
	if err != nil {
		return 0, checkf("exchange %d not indexed: %v", exID, err)
	}
	if rec.Status != indexer.ExchangeSettled || rec.Value != exchangePrice || rec.Seller != w.seller {
		return 0, checkf("exchange %d record %+v, want settled at %d for the seller", exID, rec, exchangePrice)
	}
	if len(report.Tokens) != 2 || report.EncryptionProofs != 2 || report.TransformProofs != 1 {
		return 0, checkf("audit of #%d verified %d tokens, %d π_e, %d π_t; the lineage is root+duplicate",
			child.TokenID, len(report.Tokens), report.EncryptionProofs, report.TransformProofs)
	}
	if len(report.ConfidentialPayments) != 0 {
		return 0, checkf("public audit of #%d opened confidential payments", child.TokenID)
	}
	return child.TokenID, nil
}

func (w *exchangeWorkload) exchangeConfidential(exID uint64, data core.Dataset, key fr.Element) (uint64, error) {
	e, mkt := w.e, w.e.mkt

	sp := e.tr.begin("core.mint")
	asset, err := mkt.MintAsset(w.seller, "seller", data, key)
	e.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("mint: %w", err)
	}
	w.reg.PublishAsset(asset)

	// Split the buyer's note into the payment and the change the next op
	// spends: a 1→2 transfer, two π_ct.
	sp = e.tr.begin("ct.transfer")
	notes, err := mkt.ConfidentialTransfer(w.buyer, []*core.ConfNote{w.change}, []core.ConfPayment{
		{Value: exchangePrice, To: w.buyer},
		{Value: w.change.Opening.V - exchangePrice, To: w.buyer},
	})
	e.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("confidential transfer: %w", err)
	}
	pay := notes[0]
	w.change = notes[1]

	sp = e.tr.begin("core.sell")
	got, err := mkt.SellConfidential(exID, w.seller, w.buyer, asset, w.pred, pay)
	e.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("confidential sell: %w", err)
	}

	sp = e.tr.begin("core.audit")
	report, err := mkt.AuditLineage(w.reg, asset.TokenID, core.WithAuditorKey(w.auditor))
	e.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("auditor-mode audit: %w", err)
	}

	if err := w.checkDelivery(asset.TokenID, data, got); err != nil {
		return 0, err
	}
	if len(report.Tokens) != 1 || report.EncryptionProofs != 1 || report.TransformProofs != 0 {
		return 0, checkf("audit of #%d verified %d tokens, %d π_e, %d π_t; the lineage is one mint",
			asset.TokenID, len(report.Tokens), report.EncryptionProofs, report.TransformProofs)
	}
	if len(report.ConfidentialPayments) != 1 {
		return 0, checkf("auditor opened %d payments on #%d, want exactly 1", len(report.ConfidentialPayments), asset.TokenID)
	}
	if p := report.ConfidentialPayments[0]; p.Value != exchangePrice || p.ExchangeID != exID || p.NoteID != pay.ID {
		return 0, checkf("auditor opened %+v, want %d on exchange %d note %d", p, exchangePrice, exID, pay.ID)
	}
	note, err := contracts.ReadCTNote(mkt.Chain, contracts.ConfidentialTokenName, pay.ID)
	if err != nil {
		return 0, checkf("payment note %d unreadable: %v", pay.ID, err)
	}
	if note.Owner != w.seller {
		return 0, checkf("payment note %d belongs to %s, not the seller", pay.ID, note.Owner)
	}
	plain, err := mkt.AuditLineage(w.reg, asset.TokenID)
	if err != nil {
		return 0, checkf("plain audit of #%d: %v", asset.TokenID, err)
	}
	if len(plain.ConfidentialPayments) != 0 {
		return 0, checkf("plain audit of #%d exposed %d amounts", asset.TokenID, len(plain.ConfidentialPayments))
	}
	return asset.TokenID, nil
}

// checkDelivery verifies the buyer decrypted exactly the seller's plaintext
// and now owns the token.
func (w *exchangeWorkload) checkDelivery(tokenID uint64, want, got core.Dataset) error {
	if len(got) != len(want) {
		return checkf("buyer decrypted %d entries, seller sold %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(&want[i]) {
			return checkf("buyer's entry %d differs from the seller's plaintext", i)
		}
	}
	tok, err := contracts.ReadToken(w.e.mkt.Chain, tokenID)
	if err != nil {
		return checkf("token #%d unreadable: %v", tokenID, err)
	}
	if tok.Owner != w.buyer {
		return checkf("token #%d owned by %s, not the buyer", tokenID, tok.Owner)
	}
	return nil
}

func (w *exchangeWorkload) environment() *env  { return w.e }
func (w *exchangeWorkload) close()             { w.e.close() }
func (w *exchangeWorkload) finalChecks() error { return w.e.checkBalances() }
