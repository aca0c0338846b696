package chain

import (
	"encoding/binary"
	"errors"
	"testing"
)

// counter is a toy contract: "inc" adds 1 to a stored counter, "get" reads
// it, "fail" always reverts after writing (to test rollback), "pay" sends
// escrowed funds to a hard-coded beneficiary.
type counter struct {
	beneficiary Address
}

func (c *counter) Call(ctx *CallContext, method string, args []byte) ([]byte, error) {
	switch method {
	case "inc":
		raw, err := ctx.Store.Get("count")
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
		if err := ctx.Store.Set("count", buf); err != nil {
			return nil, err
		}
		if err := ctx.Emit("Incremented", buf); err != nil {
			return nil, err
		}
		return buf, nil
	case "get":
		return ctx.Store.Get("count")
	case "fail":
		if err := ctx.Store.Set("junk", []byte("should be rolled back")); err != nil {
			return nil, err
		}
		return nil, errors.New("deliberate failure")
	case "pay":
		return nil, ctx.Transfer(c.beneficiary, ctx.Value)
	default:
		return nil, errors.New("unknown method")
	}
}

func newTestChain(t *testing.T) (*Chain, Address) {
	t.Helper()
	c := New()
	alice := AddressFromString("alice")
	c.Faucet(alice, 1_000_000)
	return c, alice
}

func deployCounter(t *testing.T, c *Chain, beneficiary Address) {
	t.Helper()
	if _, err := c.Deploy("counter", &counter{beneficiary: beneficiary}, 1000); err != nil {
		t.Fatal(err)
	}
}

// produce seals tx as a block of its own and returns its receipt, or the
// error that kept it out of the block.
func produce(c *Chain, tx Transaction) (*Receipt, error) {
	o := c.ProduceBlock([]Transaction{tx}).Outcomes[0]
	return o.Receipt, o.Err
}

// mustProduce seals txs as one block and fails the test unless every one
// of them made it in.
func mustProduce(t *testing.T, c *Chain, txs ...Transaction) Block {
	t.Helper()
	p := c.ProduceBlock(txs)
	for i, o := range p.Outcomes {
		if o.Err != nil {
			t.Fatalf("tx %d: %v", i, o.Err)
		}
	}
	return p.Block
}

func TestDeployAndCall(t *testing.T) {
	c, alice := newTestChain(t)
	deployCounter(t, c, alice)

	gas, err := c.Deploy("counter2", &counter{}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(GasTxBase + GasCreateBase + 2000*GasCodeDepositByte); gas != want {
		t.Fatalf("deploy gas %d, want %d", gas, want)
	}
	if _, err := c.Deploy("counter", &counter{}, 10); !errors.Is(err, ErrDuplicateName) {
		t.Fatal("duplicate deploy accepted")
	}

	r, err := produce(c, Transaction{From: alice, Contract: "counter", Method: "inc", Nonce: 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Err != nil {
		t.Fatalf("call reverted: %v", r.Err)
	}
	if n := binary.BigEndian.Uint64(r.Return); n != 1 {
		t.Fatalf("count = %d, want 1", n)
	}
	if len(r.Logs) != 1 || r.Logs[0].Name != "Incremented" {
		t.Fatalf("logs = %+v", r.Logs)
	}
	if r.GasUsed <= GasTxBase {
		t.Fatal("no gas charged beyond intrinsic")
	}
}

func TestNonceEnforcement(t *testing.T) {
	c, alice := newTestChain(t)
	deployCounter(t, c, alice)
	if _, err := produce(c, Transaction{From: alice, Contract: "counter", Method: "inc", Nonce: 5}); !errors.Is(err, ErrBadNonce) {
		t.Fatal("wrong nonce accepted")
	}
	if _, err := produce(c, Transaction{From: alice, Contract: "counter", Method: "inc", Nonce: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := produce(c, Transaction{From: alice, Contract: "counter", Method: "inc", Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	if got := c.NonceOf(alice); got != 2 {
		t.Fatalf("nonce = %d, want 2", got)
	}
}

func TestRevertRollsBackState(t *testing.T) {
	c, alice := newTestChain(t)
	deployCounter(t, c, alice)
	r, err := produce(c, Transaction{From: alice, Contract: "counter", Method: "fail", Nonce: 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Err == nil {
		t.Fatal("failing call did not revert")
	}
	// The junk write must have been rolled back.
	r2, err := produce(c, Transaction{From: alice, Contract: "counter", Method: "get", Nonce: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Return) != 0 {
		t.Fatal("state from reverted call persisted")
	}
}

func TestValueTransferAndRevertRefund(t *testing.T) {
	c, alice := newTestChain(t)
	bob := AddressFromString("bob")
	deployCounter(t, c, bob)

	// Successful payment routes value to the beneficiary.
	if _, err := produce(c, Transaction{From: alice, Contract: "counter", Method: "pay", Value: 500, Nonce: 0}); err != nil {
		t.Fatal(err)
	}
	if got := c.BalanceOf(bob); got != 500 {
		t.Fatalf("bob balance %d, want 500", got)
	}
	if got := c.BalanceOf(alice); got != 999_500 {
		t.Fatalf("alice balance %d", got)
	}

	// Value sent to a reverting call is refunded.
	r, err := produce(c, Transaction{From: alice, Contract: "counter", Method: "fail", Value: 100, Nonce: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Err == nil {
		t.Fatal("expected revert")
	}
	if got := c.BalanceOf(alice); got != 999_500 {
		t.Fatalf("alice balance after revert %d, want 999500", got)
	}

	// Overdraft rejected outright.
	if _, err := produce(c, Transaction{From: alice, Contract: "counter", Method: "pay", Value: 10_000_000, Nonce: 2}); !errors.Is(err, ErrInsufficientFund) {
		t.Fatal("overdraft accepted")
	}
}

// TestUnknownContract: a call to a contract that does not exist is a
// Go-level error, so it leaves no trace — in particular the sender's nonce
// does not move (it used to, with no transaction in any block to account
// for it, and the sealed stream then failed to replay).
func TestUnknownContract(t *testing.T) {
	c, alice := newTestChain(t)
	bob := AddressFromString("bob")
	batch := []Transaction{
		{From: alice, Contract: "nope", Method: "x", Value: 7, Nonce: 0},
		{From: bob, Contract: "nope", Method: "x", Nonce: 0},
		{From: bob, Contract: "nope", Method: "y", Nonce: 0},
		{From: alice, Contract: "nope", Method: "y", Nonce: 0},
	}
	for i, o := range c.ProduceBlock(batch).Outcomes {
		if !errors.Is(o.Err, ErrUnknownContract) {
			t.Fatalf("tx %d: unknown contract accepted: %v", i, o.Err)
		}
	}
	if got := c.NonceOf(alice); got != 0 {
		t.Fatalf("nonce advanced to %d with no transaction processed", got)
	}
	if got := c.BalanceOf(alice); got != 1_000_000 {
		t.Fatalf("balance moved to %d", got)
	}
	if h := c.Height(); h != 0 {
		t.Fatalf("a batch with nothing to execute sealed height %d", h)
	}
	// The same nonce is still good for a real transaction in the next
	// block, which replays on a twin.
	p := c.ProduceBlock([]Transaction{batch[0], {From: alice, To: bob, Value: 1, Nonce: 0}})
	if !errors.Is(p.Outcomes[0].Err, ErrUnknownContract) || p.Outcomes[1].Err != nil {
		t.Fatalf("outcomes %+v", p.Outcomes)
	}
	b := p.Block
	body, _ := c.BlockBody(b.Number)
	twin, _ := newTestChain(t)
	if _, err := twin.ImportBlock(b, body); err != nil {
		t.Fatalf("block sealed after an unknown-contract submit does not replay: %v", err)
	}
}

func TestOutOfGas(t *testing.T) {
	c, alice := newTestChain(t)
	deployCounter(t, c, alice)
	r, err := produce(c, Transaction{From: alice, Contract: "counter", Method: "inc", Nonce: 0, GasLimit: 22000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Err == nil || !errors.Is(r.Err, ErrOutOfGas) {
		t.Fatalf("expected out of gas, got %v", r.Err)
	}
}

func TestBlockSealingAndIntegrity(t *testing.T) {
	c, alice := newTestChain(t)
	deployCounter(t, c, alice)
	r1, err := produce(c, Transaction{From: alice, Contract: "counter", Method: "inc", Nonce: 0})
	if err != nil {
		t.Fatal(err)
	}
	b1 := c.Head()
	if b1.Number != 1 || len(b1.TxHashes) != 1 || b1.TxHashes[0] != r1.TxHash {
		t.Fatalf("block 1 malformed: %+v", b1)
	}
	if _, err := produce(c, Transaction{From: alice, Contract: "counter", Method: "inc", Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	b2 := c.Head()
	if b2.Parent == (Hash{}) {
		t.Fatal("block 2 has empty parent")
	}
	if err := c.VerifyIntegrity(); err != nil {
		t.Fatalf("honest chain fails integrity: %v", err)
	}
	if got := c.Height(); got != 2 {
		t.Fatalf("height = %d", got)
	}
	// Tamper with a sealed block.
	c.blocks[1].TxHashes = nil
	if err := c.VerifyIntegrity(); err == nil {
		t.Fatal("tampered chain passes integrity")
	}
}

func TestReceiptLookup(t *testing.T) {
	c, alice := newTestChain(t)
	deployCounter(t, c, alice)
	r, err := produce(c, Transaction{From: alice, Contract: "counter", Method: "inc", Nonce: 0})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Receipt(r.TxHash)
	if !ok || got.GasUsed != r.GasUsed {
		t.Fatal("receipt lookup failed")
	}
	if _, ok := c.Receipt(Hash{1}); ok {
		t.Fatal("phantom receipt")
	}
}

func TestStorageGasCosts(t *testing.T) {
	gas := NewGasMeter(1_000_000)
	s := NewStorage().metered(gas, &journal{})
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	afterSet := gas.Used()
	if afterSet != GasSStoreSet {
		t.Fatalf("first set cost %d, want %d", afterSet, GasSStoreSet)
	}
	if err := s.Set("k", []byte("w")); err != nil {
		t.Fatal(err)
	}
	if got := gas.Used() - afterSet; got != GasSStoreReset {
		t.Fatalf("reset cost %d, want %d", got, GasSStoreReset)
	}
	before := gas.Used()
	if _, err := s.Get("k"); err != nil {
		t.Fatal(err)
	}
	if got := gas.Used() - before; got != GasSLoad {
		t.Fatalf("load cost %d, want %d", got, GasSLoad)
	}
	// Multi-word values charge per word.
	before = gas.Used()
	big := make([]byte, 100) // 4 words
	if err := s.Set("big", big); err != nil {
		t.Fatal(err)
	}
	if got := gas.Used() - before; got != 4*GasSStoreSet {
		t.Fatalf("multi-word set cost %d, want %d", got, 4*GasSStoreSet)
	}
}

func TestGasMeterExhaustion(t *testing.T) {
	g := NewGasMeter(100)
	if err := g.Charge(60); err != nil {
		t.Fatal(err)
	}
	if err := g.Charge(50); !errors.Is(err, ErrOutOfGas) {
		t.Fatal("over-limit charge accepted")
	}
	if g.Remaining() != 0 {
		t.Fatalf("remaining = %d after exhaustion", g.Remaining())
	}
}

func TestStorageIsolationBetweenContracts(t *testing.T) {
	c, alice := newTestChain(t)
	deployCounter(t, c, alice)
	if _, err := c.Deploy("other", &counter{}, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := produce(c, Transaction{From: alice, Contract: "counter", Method: "inc", Nonce: 0}); err != nil {
		t.Fatal(err)
	}
	r, err := produce(c, Transaction{From: alice, Contract: "other", Method: "get", Nonce: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Return) != 0 {
		t.Fatal("storage leaked across contracts")
	}
}

func TestEventsByName(t *testing.T) {
	c, alice := newTestChain(t)
	deployCounter(t, c, alice)
	for i := 0; i < 3; i++ {
		if _, err := produce(c, Transaction{From: alice, Contract: "counter", Method: "inc", Nonce: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	evs := c.eventsByName("counter", "Incremented")
	if len(evs) != 3 {
		t.Fatalf("found %d events, want 3", len(evs))
	}
	// Order: the data payload encodes the counter value 1, 2, 3.
	for i, ev := range evs {
		if got := binary.BigEndian.Uint64(ev.Data); got != uint64(i+1) {
			t.Fatalf("event %d has value %d", i, got)
		}
	}
	if evs := c.eventsByName("counter", "Nope"); len(evs) != 0 {
		t.Fatal("phantom events")
	}
	if evs := c.eventsByName("nope", "Incremented"); len(evs) != 0 {
		t.Fatal("phantom contract events")
	}
}
