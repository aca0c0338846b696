package chain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// ptest is the property-test contract: a grab bag of access patterns that
// exercises every engine path.
//
//	set <slot>    declared read+write of one shared slot
//	bump          declared read+write of the sender's own counter slot
//	alloc         declared read+write of the "next" id counter, plus an
//	              UNDECLARED write of the allocated "item/<id>" slot
//	sneak         empty declaration but a real read+write of "shadow" —
//	              the pure dynamic-conflict case
//	call          empty declaration, cross-contract bump on another ptest
//	fail          declared write that then reverts
//	drop <slot>   declared delete of one shared slot
//	pay           value transfer out of escrow; serial-only (no declaration)
type ptest struct {
	beneficiary Address
	callee      string
}

func pslot(n uint64) string { return fmt.Sprintf("slot/%d", n) }

func (p *ptest) bump(ctx *CallContext, key string) ([]byte, error) {
	raw, err := ctx.Store.Get(key)
	if err != nil {
		return nil, err
	}
	var n uint64
	if len(raw) == 8 {
		n = binary.BigEndian.Uint64(raw)
	}
	n++
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, n)
	if err := ctx.Store.Set(key, buf); err != nil {
		return nil, err
	}
	if err := ctx.EmitIndexed("Bumped", []byte(key), buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func (p *ptest) Call(ctx *CallContext, method string, args []byte) ([]byte, error) {
	switch method {
	case "set":
		if len(args) < 8 {
			return nil, errors.New("short args")
		}
		return p.bump(ctx, pslot(binary.BigEndian.Uint64(args)))
	case "bump":
		return p.bump(ctx, "cnt/"+ctx.Sender.String())
	case "alloc":
		raw, err := ctx.Store.Get("next")
		if err != nil {
			return nil, err
		}
		var id uint64
		if len(raw) == 8 {
			id = binary.BigEndian.Uint64(raw)
		}
		buf := make([]byte, 8)
		binary.BigEndian.PutUint64(buf, id+1)
		if err := ctx.Store.Set("next", buf); err != nil {
			return nil, err
		}
		if err := ctx.Store.Set(fmt.Sprintf("item/%d", id), ctx.Sender[:]); err != nil {
			return nil, err
		}
		return buf, nil
	case "sneak":
		return p.bump(ctx, "shadow")
	case "call":
		return ctx.CallContract(p.callee, "bump", nil)
	case "fail":
		if err := ctx.Store.Set("junk", []byte("rolled back")); err != nil {
			return nil, err
		}
		return nil, errors.New("deliberate failure")
	case "pay":
		return nil, ctx.Transfer(p.beneficiary, ctx.Value)
	case "drop":
		if len(args) < 8 {
			return nil, errors.New("short args")
		}
		return nil, ctx.Store.Delete(pslot(binary.BigEndian.Uint64(args)))
	default:
		return nil, errors.New("unknown method")
	}
}

func (p *ptest) DeclareRW(sender Address, method string, args []byte, value uint64) (RWDecl, bool) {
	switch method {
	case "set", "drop":
		if len(args) < 8 {
			return RWDecl{}, true // call will revert without touching storage
		}
		k := pslot(binary.BigEndian.Uint64(args))
		return RWDecl{Reads: []string{k}, Writes: []string{k}}, true
	case "bump":
		k := "cnt/" + sender.String()
		return RWDecl{Reads: []string{k}, Writes: []string{k}}, true
	case "alloc":
		// The item/<id> write is deliberately left undeclared.
		return RWDecl{Reads: []string{"next"}, Writes: []string{"next"}}, true
	case "sneak", "call":
		return RWDecl{}, true
	case "fail":
		return RWDecl{Writes: []string{"junk"}}, true
	case "pay":
		return RWDecl{}, false // dynamic Transfer target: serial-only
	default:
		return RWDecl{}, true
	}
}

// batchFixture builds a chain with two ptest contracts and funded senders.
func batchFixture(t *testing.T, nSenders int) (*Chain, []Address) {
	t.Helper()
	c := New()
	beneficiary := AddressFromString("beneficiary")
	if _, err := c.Deploy("pb", &ptest{beneficiary: beneficiary}, 500); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("pa", &ptest{beneficiary: beneficiary, callee: "pb"}, 500); err != nil {
		t.Fatal(err)
	}
	senders := make([]Address, nSenders)
	for i := range senders {
		senders[i] = AddressFromString(fmt.Sprintf("sender-%d", i))
		c.Faucet(senders[i], 1_000_000)
	}
	return c, senders
}

// randomBatch generates a batch mixing every transaction shape, with
// per-sender nonces tracked so most are valid and a sprinkle malformed.
func randomBatch(rng *rand.Rand, senders []Address, size int) []Transaction {
	nonces := make(map[Address]uint64)
	txs := make([]Transaction, 0, size)
	for len(txs) < size {
		from := senders[rng.Intn(len(senders))]
		tx := Transaction{From: from, Nonce: nonces[from]}
		bump := true
		switch rng.Intn(12) {
		case 0: // plain transfer, warm recipient
			tx.To = senders[rng.Intn(len(senders))]
			tx.Value = uint64(rng.Intn(500))
		case 1: // plain transfer, cold recipient
			tx.To = AddressFromString(fmt.Sprintf("cold-%d", rng.Intn(5)))
			tx.Value = uint64(rng.Intn(500))
		case 2: // shared-slot write: conflicts when slots collide
			tx.Contract = "pa"
			tx.Method = "set"
			buf := make([]byte, 8)
			binary.BigEndian.PutUint64(buf, uint64(rng.Intn(4)))
			tx.Args = buf
		case 3: // per-sender counter: conflict-free across senders
			tx.Contract = "pa"
			tx.Method = "bump"
		case 4: // id allocation with undeclared item write
			tx.Contract = "pa"
			tx.Method = "alloc"
		case 5: // undeclared shared write
			tx.Contract = "pa"
			tx.Method = "sneak"
		case 6: // cross-contract call
			tx.Contract = "pa"
			tx.Method = "call"
		case 7: // revert path
			tx.Contract = "pa"
			tx.Method = "fail"
		case 8: // serial-only, value-bearing
			tx.Contract = "pa"
			tx.Method = "pay"
			tx.Value = uint64(rng.Intn(200))
		case 9: // malformed: bad nonce
			tx.To = senders[rng.Intn(len(senders))]
			tx.Nonce += uint64(1 + rng.Intn(3))
			bump = false
		case 10: // malformed: unknown contract
			tx.Contract = "nope"
			tx.Method = "x"
			bump = false
		case 11: // out of gas mid-call
			tx.Contract = "pa"
			tx.Method = "bump"
			tx.GasLimit = GasTxBase + GasSLoad/2
		}
		if bump {
			nonces[from]++
		}
		txs = append(txs, tx)
	}
	return txs
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// diffOutcome fails the test when the parallel outcome of tx i differs
// from the serial reference in any observable way.
func diffOutcome(t *testing.T, i int, serial, par TxOutcome) {
	t.Helper()
	if errText(serial.Err) != errText(par.Err) {
		t.Fatalf("tx %d: error %q, serial %q", i, errText(par.Err), errText(serial.Err))
	}
	sr, pr := serial.Receipt, par.Receipt
	if (sr == nil) != (pr == nil) {
		t.Fatalf("tx %d: receipt presence %v, serial %v", i, pr != nil, sr != nil)
	}
	if sr == nil {
		return
	}
	if pr.TxHash != sr.TxHash || pr.GasUsed != sr.GasUsed {
		t.Fatalf("tx %d: hash/gas (%x,%d), serial (%x,%d)", i, pr.TxHash[:4], pr.GasUsed, sr.TxHash[:4], sr.GasUsed)
	}
	if string(pr.Return) != string(sr.Return) {
		t.Fatalf("tx %d: return %x, serial %x", i, pr.Return, sr.Return)
	}
	if errText(pr.Err) != errText(sr.Err) {
		t.Fatalf("tx %d: receipt err %q, serial %q", i, errText(pr.Err), errText(sr.Err))
	}
	if len(pr.Logs) != len(sr.Logs) {
		t.Fatalf("tx %d: %d logs, serial %d", i, len(pr.Logs), len(sr.Logs))
	}
	for j := range pr.Logs {
		pl, sl := pr.Logs[j], sr.Logs[j]
		if pl.Contract != sl.Contract || pl.Name != sl.Name ||
			string(pl.Topic) != string(sl.Topic) || string(pl.Data) != string(sl.Data) {
			t.Fatalf("tx %d log %d: %+v, serial %+v", i, j, pl, sl)
		}
	}
}

// diffChains fails the test when the two chains diverge in sealed block
// hash (covers tx order and state root), account state, or event index.
func diffChains(t *testing.T, serial, par *Chain, addrs []Address) {
	t.Helper()
	sb, pb := serial.SealBlock(), par.SealBlock()
	if sb.Hash() != pb.Hash() {
		t.Fatalf("sealed block hash %s, serial %s (state root %s vs %s)",
			pb.Hash(), sb.Hash(), pb.StateRoot, sb.StateRoot)
	}
	for _, a := range addrs {
		if pg, sg := par.BalanceOf(a), serial.BalanceOf(a); pg != sg {
			t.Fatalf("balance of %s: %d, serial %d", a, pg, sg)
		}
		if pn, sn := par.NonceOf(a), serial.NonceOf(a); pn != sn {
			t.Fatalf("nonce of %s: %d, serial %d", a, pn, sn)
		}
	}
	for _, ev := range []struct{ contract, name string }{{"pa", "Bumped"}, {"pb", "Bumped"}} {
		se := serial.EventsByName(ev.contract, ev.name)
		pe := par.EventsByName(ev.contract, ev.name)
		if len(se) != len(pe) {
			t.Fatalf("%s.%s: %d events, serial %d", ev.contract, ev.name, len(pe), len(se))
		}
		for j := range se {
			if string(se[j].Topic) != string(pe[j].Topic) || string(se[j].Data) != string(pe[j].Data) {
				t.Fatalf("%s.%s event %d diverged", ev.contract, ev.name, j)
			}
		}
	}
}

// auditAddrs is every address a random batch can touch.
func auditAddrs(senders []Address) []Address {
	addrs := append([]Address(nil), senders...)
	for i := 0; i < 5; i++ {
		addrs = append(addrs, AddressFromString(fmt.Sprintf("cold-%d", i)))
	}
	addrs = append(addrs, AddressFromString("beneficiary"),
		ContractAddress("pa"), ContractAddress("pb"), Address{})
	return addrs
}

// TestSubmitBatchMatchesSerialRandomized is the bit-identity property
// test: randomized workloads over every transaction shape, executed
// serially on one chain and in parallel on another, must produce identical
// outcomes, blocks, and state.
func TestSubmitBatchMatchesSerialRandomized(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, workers := range []int{2, 4, 8} {
			rng := rand.New(rand.NewSource(seed*100 + int64(workers)))
			serialChain, senders := batchFixture(t, 2+rng.Intn(6))
			parChain, _ := batchFixture(t, len(senders))

			for round := 0; round < 3; round++ {
				txs := randomBatch(rng, senders, 5+rng.Intn(40))
				serialOut := serialChain.SubmitBatch(txs, 1)
				parOut := parChain.SubmitBatch(txs, workers)
				for i := range txs {
					diffOutcome(t, i, serialOut[i], parOut[i])
				}
				diffChains(t, serialChain, parChain, auditAddrs(senders))
			}
		}
	}
}

// TestSubmitBatchConflictLightCommitsSpeculatively pins that the engine
// actually speculates: disjoint senders bumping their own counters must
// commit without any serial fallback.
func TestSubmitBatchConflictLightCommitsSpeculatively(t *testing.T) {
	c, senders := batchFixture(t, 8)
	txs := make([]Transaction, len(senders))
	for i, s := range senders {
		txs[i] = Transaction{From: s, Contract: "pa", Method: "bump", Nonce: 0}
	}
	out := c.SubmitBatch(txs, 4)
	for i, o := range out {
		if o.Err != nil || o.Receipt.Err != nil {
			t.Fatalf("tx %d failed: %v %v", i, o.Err, o.Receipt.Err)
		}
	}
	speculated, committed, conflicts, serial := c.ExecStats()
	if speculated != uint64(len(txs)) || committed != uint64(len(txs)) {
		t.Fatalf("speculated %d committed %d, want %d each", speculated, committed, len(txs))
	}
	if conflicts != 0 || serial != 0 {
		t.Fatalf("conflicts %d serial %d on a conflict-free batch", conflicts, serial)
	}
}

// TestSubmitBatchDynamicConflictFallsBack pins the other side: undeclared
// writes to a shared slot must be caught at validation and re-executed,
// still matching serial execution.
func TestSubmitBatchDynamicConflictFallsBack(t *testing.T) {
	serialChain, senders := batchFixture(t, 6)
	parChain, _ := batchFixture(t, 6)
	txs := make([]Transaction, len(senders))
	for i, s := range senders {
		txs[i] = Transaction{From: s, Contract: "pa", Method: "sneak", Nonce: 0}
	}
	serialOut := serialChain.SubmitBatch(txs, 1)
	parOut := parChain.SubmitBatch(txs, 4)
	for i := range txs {
		diffOutcome(t, i, serialOut[i], parOut[i])
	}
	diffChains(t, serialChain, parChain, auditAddrs(senders))

	_, _, conflicts, serial := parChain.ExecStats()
	if conflicts == 0 || serial == 0 {
		t.Fatalf("conflicts %d serial %d: undeclared shared writes were not detected", conflicts, serial)
	}
	// The final counter must reflect every bump exactly once.
	raw := parChain.ReadStorage("pa", "shadow")
	if n := binary.BigEndian.Uint64(raw); n != uint64(len(txs)) {
		t.Fatalf("shadow counter %d, want %d", n, len(txs))
	}
}

// TestSubmitBatchSerialOnlyOrdering pins that serial-only transactions
// (no rw declaration) execute at commit time in block order, interleaved
// correctly with speculated neighbors — including escrowed value moves.
func TestSubmitBatchSerialOnlyOrdering(t *testing.T) {
	serialChain, senders := batchFixture(t, 4)
	parChain, _ := batchFixture(t, 4)
	var txs []Transaction
	for i, s := range senders {
		txs = append(txs,
			Transaction{From: s, Contract: "pa", Method: "pay", Value: uint64(100 + i), Nonce: 0},
			Transaction{From: s, Contract: "pa", Method: "bump", Nonce: 1},
		)
	}
	serialOut := serialChain.SubmitBatch(txs, 1)
	parOut := parChain.SubmitBatch(txs, 4)
	for i := range txs {
		diffOutcome(t, i, serialOut[i], parOut[i])
	}
	diffChains(t, serialChain, parChain, auditAddrs(senders))
}

// TestImportBlockParallelReplay seals blocks serially on a producer and
// replays them with a parallel importer; heights, hashes and state must
// agree, and a corrupted block must still roll back cleanly.
func TestImportBlockParallelReplay(t *testing.T) {
	producer, senders := batchFixture(t, 5)
	importer, _ := batchFixture(t, 5)
	importer.SetExecWorkers(8)

	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 3; round++ {
		txs := randomBatch(rng, senders, 30)
		for i := range txs {
			// Skip malformed transactions: a sealed block only contains
			// processed ones.
			if _, err := producer.Submit(txs[i]); err != nil {
				continue
			}
		}
		b := producer.SealBlock()
		body, ok := producer.BlockBody(b.Number)
		if !ok {
			t.Fatalf("round %d: missing body", round)
		}
		if _, err := importer.ImportBlock(b, body); err != nil {
			t.Fatalf("round %d: import: %v", round, err)
		}
		if importer.HeadHash() != producer.HeadHash() {
			t.Fatalf("round %d: head hash diverged", round)
		}
	}

	// A block whose state root lies must be rejected and rolled back even
	// when replayed in parallel.
	txs := []Transaction{{From: senders[0], Contract: "pa", Method: "bump", Nonce: producer.NonceOf(senders[0])}}
	if _, err := producer.Submit(txs[0]); err != nil {
		t.Fatal(err)
	}
	b := producer.SealBlock()
	body, _ := producer.BlockBody(b.Number)
	bad := b
	bad.StateRoot[0] ^= 1
	preNonce := importer.NonceOf(senders[0])
	if _, err := importer.ImportBlock(bad, body); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("corrupted block: err %v, want ErrStateMismatch", err)
	}
	if got := importer.NonceOf(senders[0]); got != preNonce {
		t.Fatalf("rollback failed: nonce %d, want %d", got, preNonce)
	}
	if _, err := importer.ImportBlock(b, body); err != nil {
		t.Fatalf("honest block after rollback: %v", err)
	}
	if importer.HeadHash() != producer.HeadHash() {
		t.Fatal("head hash diverged after recovery")
	}
}
