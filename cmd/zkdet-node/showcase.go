package main

import (
	"fmt"

	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
)

// runConfidentialShowcase drives one confidential-token sequence through the
// JSON-RPC gateway after the load run: enable the subsystem with a demo
// auditor key, mint a hidden-amount note, split it with a π_ct transfer,
// show that the public view carries only the commitment, and finally open
// the amount with the auditor key. It is a single pass, a demo, not part of
// the load loop.
func runConfidentialShowcase(url string) error {
	c := newRPCClient(url)
	for _, who := range []string{"ct-issuer", "ct-alice", "ct-bob"} {
		if err := c.call(rpcFaucet, faucetParams{Address: who, Amount: 10_000_000}, nil); err != nil {
			return err
		}
	}

	auditor := ct.AuditorKeyFromSecret(fr.NewElement(0xdeca_f))
	pub := auditor.PublicKey()
	pubB := pub.Bytes()
	if err := c.call(rpcCTEnable, ctEnableParams{Issuer: "ct-issuer", AuditorPub: hexBytes(pubB[:])}, nil); err != nil {
		return err
	}

	type notesResult struct {
		Notes []ctNoteOut `json:"notes"`
	}
	var minted notesResult
	if err := c.call(rpcCTMint, ctMintParams{Pays: []ctPayIn{{Value: 5000, To: "ct-alice"}}}, &minted); err != nil {
		return err
	}
	if len(minted.Notes) != 1 {
		return fmt.Errorf("mint returned %d notes", len(minted.Notes))
	}
	note := minted.Notes[0]
	fmt.Printf("  minted note %d to ct-alice; on-chain commitment %s… (amount hidden)\n",
		note.ID, note.Commitment[:16])

	var moved notesResult
	if err := c.call(rpcCTTransfer, ctTransferParams{
		Sender: "ct-alice",
		Inputs: []ctInputIn{{ID: note.ID, Value: note.Value, Blinder: note.Blinder}},
		Pays:   []ctPayIn{{Value: 3200, To: "ct-bob"}, {Value: 1800, To: "ct-alice"}},
	}, &moved); err != nil {
		return err
	}
	if len(moved.Notes) != 2 {
		return fmt.Errorf("transfer returned %d notes", len(moved.Notes))
	}
	fmt.Printf("  π_ct transfer split it into notes %d and %d (balance + range proved in zero knowledge)\n",
		moved.Notes[0].ID, moved.Notes[1].ID)

	var view ctNoteOut
	if err := c.call(rpcCTNote, idParams{ID: moved.Notes[0].ID}, &view); err != nil {
		return err
	}
	if view.Value != 0 || view.Blinder != "" {
		return fmt.Errorf("public note view leaks the opening: %+v", view)
	}

	sk := fr.NewElement(0xdeca_f)
	skB := sk.Bytes()
	var opened notesResult
	if err := c.call(rpcCTAudit, ctAuditParams{AuditorSecret: hexBytes(skB[:]), NoteID: moved.Notes[0].ID}, &opened); err != nil {
		return err
	}
	if len(opened.Notes) != 1 || opened.Notes[0].Value != 3200 {
		return fmt.Errorf("auditor opening mismatch: %+v", opened)
	}
	fmt.Printf("  public view shows only the commitment; auditor key opens note %d to %d\n",
		moved.Notes[0].ID, opened.Notes[0].Value)
	return nil
}
