package contracts_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/indexer"
)

// machineUnderTest is one contract carrying the exchange machine, driven
// through its own opening call (escrow open, confidential lock) and the
// settle/refund calldata both share.
type machineUnderTest struct {
	name  string
	space string // the contract's storage namespace: <space>/<id>/<field>
	open  func(id uint64, seller []byte) error
}

// TestExchangeStateMachine runs every refusal of the exchange machine
// against both contracts that carry it: each case must revert with the same
// typed error and the same text after the contract's own prefix. The buyer
// then refunds an exchange left open past its deadline on both, and the
// settled k_c is read back through the one reader, from both. The indexer
// is attached throughout: after every block, each contract's exchange
// records must agree with its storage (exchangeRecordsAgree), and the two
// contracts open the same ids, which must stay two records.
func TestExchangeStateMachine(t *testing.T) {
	c, issuer, buyer, seller := contracts.CTEnv(t)
	parts := contracts.DeployToyPiK(t, c)
	if _, err := c.Deploy(contracts.EscrowName, contracts.NewEscrow("pik-verifier", 10), contracts.EscrowCodeSize); err != nil {
		t.Fatal(err)
	}
	proof, kc, cc, hv := parts[0], parts[1], parts[2], parts[3]

	// The confidential buyer locks one fresh note per exchange it opens.
	secrets := make([]ct.OutputSecret, 8)
	recipients := make([]chain.Address, len(secrets))
	for i := range secrets {
		secrets[i] = ct.OutputSecret{V: uint64(10 + i), R: fr.NewElement(uint64(81 + 2*i)), Rho: fr.NewElement(uint64(82 + 2*i))}
		recipients[i] = buyer
	}
	r := contracts.MustSucceed(t, contracts.Call(t, c, issuer, contracts.ConfidentialTokenName, "mint", 0, contracts.CTProve(t, issuer, true, nil, nil, secrets, recipients)))
	notes, err := contracts.DecU64List(r.Return)
	if err != nil {
		t.Fatal(err)
	}

	machines := []machineUnderTest{
		{contracts.EscrowName, "ex", func(id uint64, s []byte) error {
			return contracts.Call(t, c, buyer, contracts.EscrowName, "open", 100, contracts.EncodeArgs(contracts.U64(id), s, hv, cc)).Err
		}},
		{contracts.ConfidentialTokenName, "ctex", func(id uint64, s []byte) error {
			err := contracts.Call(t, c, buyer, contracts.ConfidentialTokenName, "lock", 0, contracts.EncodeArgs(contracts.U64(id), contracts.U64(notes[0]), s, hv, cc, contracts.U64(7))).Err
			if err == nil {
				notes = notes[1:]
			}
			return err
		}},
	}
	settle := func(x machineUnderTest, from chain.Address, id uint64, hv []byte) error {
		return contracts.Call(t, c, from, x.name, "settle", 0, contracts.EncodeArgs(contracts.U64(id), kc, proof, kc, cc, hv)).Err
	}
	refund := func(x machineUnderTest, from chain.Address, id uint64) error {
		return contracts.Call(t, c, from, x.name, "refund", 0, contracts.EncodeArgs(contracts.U64(id))).Err
	}
	expire := func() {
		for i := 0; i < 11; i++ {
			c.ProduceBlock(nil)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	wrongHvEl := fr.NewElement(21)
	wrongHv := wrongHvEl.Bytes()

	cases := []struct {
		name string
		run  func(x machineUnderTest, id uint64) error
		want error
	}{
		{"unknown id", func(x machineUnderTest, id uint64) error {
			return settle(x, seller, id, hv)
		}, contracts.ErrUnknownExchange},
		{"duplicate open", func(x machineUnderTest, id uint64) error {
			must(x.open(id, seller[:]))
			return x.open(id, seller[:])
		}, contracts.ErrExchangeExists},
		{"bad seller address", func(x machineUnderTest, id uint64) error {
			return x.open(id, []byte{1, 2})
		}, contracts.ErrBadArgs},
		{"wrong seller", func(x machineUnderTest, id uint64) error {
			must(x.open(id, seller[:]))
			return settle(x, buyer, id, hv)
		}, contracts.ErrNotSeller},
		{"mismatched publics", func(x machineUnderTest, id uint64) error {
			must(x.open(id, seller[:]))
			return settle(x, seller, id, wrongHv[:])
		}, contracts.ErrBadArgs},
		{"settle after the deadline", func(x machineUnderTest, id uint64) error {
			must(x.open(id, seller[:]))
			expire()
			return settle(x, seller, id, hv)
		}, contracts.ErrDeadlinePassed},
		{"double settle", func(x machineUnderTest, id uint64) error {
			must(x.open(id, seller[:]))
			must(settle(x, seller, id, hv))
			return settle(x, seller, id, hv)
		}, contracts.ErrExchangeSettled},
		{"refund before the deadline", func(x machineUnderTest, id uint64) error {
			must(x.open(id, seller[:]))
			return refund(x, buyer, id)
		}, contracts.ErrDeadlineNotReached},
		{"wrong buyer", func(x machineUnderTest, id uint64) error {
			must(x.open(id, seller[:]))
			expire()
			return refund(x, seller, id)
		}, contracts.ErrNotBuyer},
		{"refund after settle", func(x machineUnderTest, id uint64) error {
			must(x.open(id, seller[:]))
			must(settle(x, seller, id, hv))
			return refund(x, buyer, id)
		}, contracts.ErrExchangeSettled},
	}
	ids := make([]uint64, len(cases))
	for i := range cases {
		ids[i] = uint64(100 + i)
	}
	ix := indexer.New()
	ix.Attach(c)
	c.OnSeal(func(b chain.Block, _ []*chain.Receipt) error {
		for _, x := range machines {
			if err := exchangeRecordsAgree(c, ix, x, ids); err != nil {
				t.Errorf("block %d: %v", b.Number, err)
			}
		}
		return nil
	})

	idOf := make(map[string]uint64, len(cases))
	for i, tc := range cases {
		idOf[tc.name] = ids[i]
		var texts []string
		for _, x := range machines {
			err := tc.run(x, ids[i])
			if !errors.Is(err, chain.ErrReverted) || !errors.Is(err, tc.want) {
				t.Fatalf("%s on %s: %v, want a revert with %v", tc.name, x.name, err, tc.want)
			}
			texts = append(texts, err.Error()[strings.Index(err.Error(), "contracts: "):])
		}
		if texts[0] != texts[1] {
			t.Fatalf("%s: the contracts revert differently: %q vs %q", tc.name, texts[0], texts[1])
		}
	}

	// The buyer takes back what "wrong buyer" left locked past its deadline.
	for _, x := range machines {
		must(refund(x, buyer, idOf["wrong buyer"]))
		if recs := ix.Exchanges(x.name); len(recs) != 8 {
			t.Fatalf("%s: %d exchange records, want one per opened id (8)", x.name, len(recs))
		}
	}

	// The one settled-k_c reader, on both contracts: an unknown exchange, one
	// still open, one settled.
	for _, x := range machines {
		if _, err := contracts.ReadSettledKc(c, x.name, 404); !errors.Is(err, contracts.ErrUnknownExchange) {
			t.Fatalf("%s: k_c of an unknown exchange: %v", x.name, err)
		}
		if _, err := contracts.ReadSettledKc(c, x.name, idOf["wrong seller"]); !errors.Is(err, contracts.ErrExchangeNotSettled) {
			t.Fatalf("%s: k_c of an open exchange: %v", x.name, err)
		}
		if got, err := contracts.ReadSettledKc(c, x.name, idOf["double settle"]); err != nil || !bytes.Equal(got, kc) {
			t.Fatalf("%s: settled k_c %x, %v; want %x", x.name, got, err, kc)
		}
	}
}

// exchangeRecordsAgree checks the indexer's exchange records of one
// contract against that contract's storage over the given ids: an id holds
// a record exactly when its status slot is written, and the record's
// status, seller, h_v, c, k_c and payment (the escrow's value, the
// confidential token's note) are the slots'.
func exchangeRecordsAgree(c *chain.Chain, ix *indexer.Indexer, x machineUnderTest, ids []uint64) error {
	recs := make(map[uint64]indexer.ExchangeRecord)
	for _, rec := range ix.Exchanges(x.name) {
		if rec.Contract != x.name {
			return fmt.Errorf("%s lists a record of %s", x.name, rec.Contract)
		}
		recs[rec.ID] = rec
	}
	statuses := map[byte]string{1: indexer.ExchangeOpen, 2: indexer.ExchangeSettled, 3: indexer.ExchangeRefunded}
	for _, id := range ids {
		slot := func(field string) []byte { return c.ReadStorage(x.name, fmt.Sprintf("%s/%d/%s", x.space, id, field)) }
		rec, indexed := recs[id]
		delete(recs, id)
		status := slot("status")
		if len(status) == 0 {
			if indexed {
				return fmt.Errorf("%s: exchange %d has a record but no slots", x.name, id)
			}
			continue
		}
		if !indexed {
			return fmt.Errorf("%s: exchange %d is in storage but not indexed", x.name, id)
		}
		payment, paymentSlot := rec.Value, "amount"
		if x.name == contracts.ConfidentialTokenName {
			payment, paymentSlot = rec.Note, "note"
		}
		if rec.Status != statuses[status[0]] || !bytes.Equal(rec.Seller[:], slot("seller")) ||
			!bytes.Equal(rec.HV, slot("hv")) || !bytes.Equal(rec.C, slot("c")) || !bytes.Equal(rec.KC, slot("kc")) ||
			!bytes.Equal(contracts.U64(payment), slot(paymentSlot)) {
			return fmt.Errorf("%s: exchange %d record %+v disagrees with its storage (status %d)", x.name, id, rec, status[0])
		}
	}
	if len(recs) != 0 {
		return fmt.Errorf("%s: records %v are of no exchange in storage", x.name, recs)
	}
	return nil
}
