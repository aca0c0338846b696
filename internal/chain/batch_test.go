package chain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// ptest is the property-test contract: a grab bag of access patterns.
//
//	set <slot>    read+write of one shared slot
//	bump          read+write of the sender's own counter slot
//	alloc         read+write of the "next" id counter, plus a write of the
//	              allocated "item/<id>" slot
//	sneak         read+write of the shared "shadow" slot
//	call          cross-contract bump on another ptest
//	fail          a write that then reverts
//	drop <slot>   delete of one shared slot
//	pay           value transfer out of escrow
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
// per-sender nonces tracked in the caller's map across batches so most are
// valid and a sprinkle malformed.
func randomBatch(rng *rand.Rand, senders []Address, nonces map[Address]uint64, size int) []Transaction {
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
		case 2: // shared-slot write
			tx.Contract = "pa"
			tx.Method = "set"
			buf := make([]byte, 8)
			binary.BigEndian.PutUint64(buf, uint64(rng.Intn(4)))
			tx.Args = buf
		case 3: // per-sender counter
			tx.Contract = "pa"
			tx.Method = "bump"
		case 4: // id allocation
			tx.Contract = "pa"
			tx.Method = "alloc"
		case 5: // shared counter
			tx.Contract = "pa"
			tx.Method = "sneak"
		case 6: // cross-contract call
			tx.Contract = "pa"
			tx.Method = "call"
		case 7: // revert path
			tx.Contract = "pa"
			tx.Method = "fail"
		case 8: // value-bearing, pays out of escrow
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
