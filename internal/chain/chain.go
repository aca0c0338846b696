// Package chain implements the blockchain substrate ZKDET runs on: an
// account model with native balances, gas-metered contract execution, event
// logs, and a single-sealer block producer with hash-linked blocks.
//
// The paper deploys on Ethereum's Rinkeby testnet; this package stands in
// for it with the same standard assumptions (§IV-A): tamper-resistance
// (hash-linked blocks, VerifyIntegrity), consistency (a single serialized
// state machine), and public visibility of all transactions. Contracts are
// native Go objects charged under the EVM gas schedule in gas.go, which is
// what lets the repo reproduce Table II.
package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Address identifies an account (20 bytes, Ethereum-style).
type Address [20]byte

// String returns the 0x-prefixed hex form of the address.
func (a Address) String() string { return "0x" + hex.EncodeToString(a[:]) }

// AddressFromHex parses a 0x-prefixed (or bare) hex address.
func AddressFromHex(s string) (Address, error) {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	var a Address
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(a) {
		return Address{}, fmt.Errorf("chain: bad address %q", s)
	}
	copy(a[:], raw)
	return a, nil
}

// Hash is a 32-byte digest.
type Hash [32]byte

// String returns the 0x-prefixed hex form of the hash.
func (h Hash) String() string { return "0x" + hex.EncodeToString(h[:]) }

// HashFromHex parses a 0x-prefixed (or bare) hex hash.
func HashFromHex(s string) (Hash, error) {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	var h Hash
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(h) {
		return Hash{}, fmt.Errorf("chain: bad hash %q", s)
	}
	copy(h[:], raw)
	return h, nil
}

// AddressFromString derives a deterministic address from a label; handy for
// tests and examples.
func AddressFromString(s string) Address {
	h := sha256.Sum256([]byte("zkdet/address/" + s))
	var a Address
	copy(a[:], h[:20])
	return a
}

// Event is a contract log entry. Topic is an optional indexed key (the
// EVM's topic1, e.g. a token or exchange id) that off-chain indexers use to
// build inverted indexes; Data stays opaque.
type Event struct {
	Contract string
	Name     string
	Topic    []byte
	Data     []byte
}

// Transaction is a contract call or value transfer recorded on chain.
type Transaction struct {
	From     Address
	To       Address // recipient of a plain value transfer; unused for contract calls
	Contract string  // registered contract name; empty for pure transfers
	Method   string
	Args     []byte
	Value    uint64
	Nonce    uint64
	GasLimit uint64
}

// Hash returns the transaction's content digest.
func (tx *Transaction) Hash() Hash { return tx.hash() }

func (tx *Transaction) hash() Hash {
	h := sha256.New()
	h.Write(tx.From[:])
	h.Write(tx.To[:])
	h.Write([]byte(tx.Contract))
	h.Write([]byte{0})
	h.Write([]byte(tx.Method))
	h.Write([]byte{0})
	h.Write(tx.Args)
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[0:], tx.Value)
	binary.BigEndian.PutUint64(buf[8:], tx.Nonce)
	binary.BigEndian.PutUint64(buf[16:], tx.GasLimit)
	h.Write(buf[:])
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// Receipt reports the outcome of an executed transaction. Failed calls are
// included in blocks (state changes rolled back), mirroring Ethereum.
type Receipt struct {
	TxHash  Hash
	GasUsed uint64
	Return  []byte
	Logs    []Event
	Err     error
}

// Block is a sealed batch of transactions.
type Block struct {
	Number    uint64
	Parent    Hash
	Time      time.Time
	TxHashes  []Hash
	StateRoot Hash
	// Fold is how many of the body's proof items the block's proof check
	// validated before execution (see BlockVerifier) and charged the
	// amortised schedule; it is hashed, so what a proof-carrying call pays
	// is a function of the sealed block. It always equals a fresh check of
	// the body: zero means the body carries no proof the chain's verifier
	// knows, or the chain has none.
	Fold uint32
}

func (b *Block) hash() Hash {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], b.Number)
	h.Write(buf[:])
	h.Write(b.Parent[:])
	for _, t := range b.TxHashes {
		h.Write(t[:])
	}
	h.Write(b.StateRoot[:])
	binary.BigEndian.PutUint32(buf[:4], b.Fold)
	h.Write(buf[:4])
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// Errors returned by the chain.
var (
	ErrUnknownContract  = errors.New("chain: unknown contract")
	ErrInsufficientFund = errors.New("chain: insufficient balance")
	ErrBadNonce         = errors.New("chain: bad nonce")
	ErrDuplicateName    = errors.New("chain: contract name already deployed")
	ErrReverted         = errors.New("chain: execution reverted")
	ErrNoRecipient      = errors.New("chain: value transfer to zero address")
)

// Contract is the interface native-Go contracts implement.
type Contract interface {
	// Call executes a method. State mutations must go through ctx.Store so
	// they are gas-metered and rolled back on error.
	Call(ctx *CallContext, method string, args []byte) ([]byte, error)
}

// transferValue moves native value between accounts; caller holds c.mu.
func (c *Chain) transferValue(from, to Address, amount uint64) error {
	if bal := c.acct(from).balance; bal < amount {
		return fmt.Errorf("%w: %d < %d", ErrInsufficientFund, bal, amount)
	}
	c.mutAcct(from).balance -= amount
	c.mutAcct(to).balance += amount
	return nil
}

// CallContext is passed to contract methods.
type CallContext struct {
	Sender Address
	Value  uint64
	Gas    *GasMeter
	Store  *Storage
	tx     *liveTx // the executing transaction; the chain's mu is held for its whole run
	name   string
	logs   []Event
}

// EmitIndexed records an event with an indexed topic (the EVM's topic1,
// e.g. a token id), charging log gas; the event name is topic0 and is
// always charged, an explicit topic charges one more.
func (ctx *CallContext) EmitIndexed(name string, topic, data []byte) error {
	cost := GasLogBase + GasLogTopic + uint64(len(data))*GasLogDataByte
	if len(topic) > 0 {
		cost += GasLogTopic
	}
	if err := ctx.Gas.Charge(cost); err != nil {
		return err
	}
	ctx.logs = append(ctx.logs, Event{Contract: ctx.name, Name: name, Topic: topic, Data: data})
	return nil
}

// Transfer moves native value from the contract's escrow balance to an
// account (the arbiter uses this to settle payments).
func (ctx *CallContext) Transfer(to Address, amount uint64) error {
	if err := ctx.Gas.Charge(GasValueTransfer); err != nil {
		return err
	}
	return ctx.tx.transferValue(contractAddress(ctx.name), to, amount)
}

// BlockNumber returns the current block height.
func (ctx *CallContext) BlockNumber() uint64 { return uint64(len(ctx.tx.blocks)) }

// ProofFold reports whether the proof check of the block being applied
// validated this exact verify calldata for the executing contract, and the
// width of the fold that did — the same answer on every node that applies
// the block. A verifier that gets ok skips its own pairing.
func (ctx *CallContext) ProofFold(calldata []byte) (width int, ok bool) {
	width, ok = ctx.tx.marks[ProofKey(ctx.name, calldata)]
	return width, ok
}

// CallContract performs a gas-metered cross-contract call. The callee sees
// this contract's escrow address as the sender; its storage shares the
// caller's gas meter, and its events are folded into the outer receipt.
// A failing sub-call propagates its error, and the chain rolls back every
// contract's state when the outer call reverts.
func (ctx *CallContext) CallContract(name, method string, args []byte) ([]byte, error) {
	callee, ok := ctx.tx.contracts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownContract, name)
	}
	sub := &CallContext{
		Sender: contractAddress(ctx.name),
		Gas:    ctx.Gas,
		Store:  ctx.tx.meteredStore(name, ctx.Gas),
		tx:     ctx.tx,
		name:   name,
	}
	ret, err := callee.Call(sub, method, args)
	ctx.logs = append(ctx.logs, sub.logs...)
	return ret, err
}

func contractAddress(name string) Address { return AddressFromString("contract/" + name) }

// ContractAddress returns the escrow address of a deployed contract.
func ContractAddress(name string) Address { return contractAddress(name) }

// account holds balance and nonce.
type account struct {
	balance uint64
	nonce   uint64
}

// Chain is the simulated blockchain. All methods are safe for concurrent
// use; execution is serialized, which is the consistency assumption of the
// paper's threat model.
type Chain struct {
	mu        sync.Mutex
	blocks    []Block              // guarded by mu
	receipts  map[Hash]*Receipt    // guarded by mu
	contracts map[string]Contract  // guarded by mu
	storages  map[string]*Storage  // guarded by mu
	accounts  map[Address]*account // guarded by mu
	codeSizes map[string]int       // guarded by mu
	now       func() time.Time     // immutable after construction

	// txs retains the normalized body of every processed transaction so
	// sealed blocks can be served to peers (BlockBody) and replayed by
	// importing nodes.
	txs map[Hash]Transaction // guarded by mu

	// sealMu serializes ProduceBlock/ImportBlock/RestoreState and the
	// synchronous seal-hook dispatch. Hook dispatch deliberately happens
	// under sealMu (not just the block append): it is what gives hooks the
	// strict height-order guarantee even when producers and importers race.
	// Hooks run with mu RELEASED, so a slow hook delays the next seal/import
	// but can never deadlock them, and hooks may freely call back into chain
	// reads. The one re-entrancy hooks must avoid is producing and importing
	// blocks themselves (sealMu is not reentrant).
	sealHooks []func(Block, []*Receipt) // guarded by sealMu
	sealMu    sync.Mutex

	// jrnl is the open undo scope, nil when none is: applyBlock opens one
	// per block, which a failing transaction reverts to its own mark in and
	// a block it must take back reverts whole. Every account mutation and
	// every storage write that lands in live state under an open scope
	// records its pre-image here.
	jrnl *journal // guarded by mu

	// verifier checks a block's proofs before it executes, and marks is the
	// table (ProofKey → fold width) that check produced for the block being
	// applied: read through CallContext.ProofFold, never written during
	// execution, nil outside applyBlock.
	verifier BlockVerifier   // guarded by mu
	marks    map[ProofID]int // guarded by mu
}

// New returns an empty chain with a genesis block, stamped by the wall
// clock. This is the ONE sanctioned wall-clock entry point on the replay
// path (the detreplay analyzer allows wiring `time.Now` as a value but
// flags calling it): every block timestamp flows through the injected
// clock, timestamps never enter block or transaction hashes, and
// importing nodes take Time from the sealed header — so two replays of
// the same blocks reach identical roots regardless of their clocks.
func New() *Chain {
	return NewWithClock(time.Now)
}

// NewWithClock returns an empty chain whose block timestamps come from
// the given clock. Deterministic tests and replay harnesses inject a
// fixed or stepped clock here; production uses New.
func NewWithClock(clock func() time.Time) *Chain {
	c := &Chain{
		receipts:  make(map[Hash]*Receipt),
		contracts: make(map[string]Contract),
		storages:  make(map[string]*Storage),
		accounts:  make(map[Address]*account),
		codeSizes: make(map[string]int),
		txs:       make(map[Hash]Transaction),
		now:       clock,
	}
	genesis := Block{Number: 0, Time: c.now()}
	c.blocks = []Block{genesis}
	return c
}

// OnSeal registers a hook invoked synchronously after every block
// ProduceBlock seals or ImportBlock applies (and for every block
// RestoreState installs) with the block and its receipts.
//
// Ordering contract: hooks are dispatched while sealMu is still held, so a
// hook observes blocks strictly in height order with no interleaving — by
// the time it sees block N, every hook has finished with block N-1, and no
// other goroutine can seal or import block N+1 until it returns. The state
// lock (mu) is released during dispatch, so hooks may call back into chain
// reads; a slow hook therefore back-pressures sealing and importing (they
// wait on sealMu) but cannot deadlock them. Hooks must not call
// ProduceBlock or ImportBlock. Off-chain consumers (block buses, indexers)
// attach here.
func (c *Chain) OnSeal(fn func(Block, []*Receipt)) {
	c.sealMu.Lock()
	defer c.sealMu.Unlock()
	c.sealHooks = append(c.sealHooks, fn)
}

// Faucet credits an account (test/genesis funding).
func (c *Chain) Faucet(a Address, amount uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.acct(a).balance += amount
}

// BalanceOf returns an account's native balance.
func (c *Chain) BalanceOf(a Address) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acct(a).balance
}

// NonceOf returns the next expected nonce for an account.
func (c *Chain) NonceOf(a Address) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acct(a).nonce
}

// acct returns (creating if needed) the account record; caller holds c.mu.
// A creation under an open undo scope is journaled, so rolling the scope
// back also drops the records it first touched.
func (c *Chain) acct(a Address) *account {
	if acc, ok := c.accounts[a]; ok {
		return acc
	}
	if c.jrnl != nil {
		c.jrnl.recordAcct(a, nil)
	}
	acc := &account{}
	c.accounts[a] = acc
	return acc
}

// mutAcct is acct for a caller about to change the record: its pre-image
// goes to the open undo scope first. caller holds c.mu.
func (c *Chain) mutAcct(a Address) *account {
	acc, ok := c.accounts[a]
	if !ok {
		return c.acct(a)
	}
	if c.jrnl != nil {
		c.jrnl.recordAcct(a, acc)
	}
	return acc
}

// Deploy registers a contract under a unique name, charging deployment gas
// proportional to the (approximated Solidity byte-) code size.
func (c *Chain) Deploy(name string, contract Contract, codeSize int) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.contracts[name]; ok {
		return 0, fmt.Errorf("%w: %s", ErrDuplicateName, name)
	}
	gas := uint64(GasTxBase) + GasCreateBase + uint64(codeSize)*GasCodeDepositByte
	c.contracts[name] = contract
	c.storages[name] = NewStorage()
	c.codeSizes[name] = codeSize
	return gas, nil
}

// txResult is what execTx produced: the receipt of a processed transaction
// or the Go-level error of a malformed one, and the normalized body.
type txResult struct {
	tx      Transaction
	hash    Hash
	receipt *Receipt
	goErr   error
}

// execTx is THE transaction body — nonce check, intrinsic gas, value move,
// contract call, revert or keep — run by applyBlock, hence by production,
// import and WAL replay alike; caller holds the chain's mu. A Go-level error
// (bad nonce, intrinsic gas above the limit, unfunded value, no recipient,
// unknown contract) leaves state untouched, so a transaction is either in a
// block or never happened; a reverted call keeps the nonce bump and nothing
// else.
func execTx(st *liveTx, tx Transaction) txResult {
	fail := func(err error) txResult {
		st.undo()
		return txResult{tx: tx, goErr: err}
	}
	if want := st.acct(tx.From).nonce; tx.Nonce != want {
		return fail(fmt.Errorf("%w: got %d, want %d", ErrBadNonce, tx.Nonce, want))
	}
	if tx.GasLimit == 0 {
		tx.GasLimit = DefaultGasLimit
	}
	res := txResult{tx: tx, hash: tx.hash()}
	res.receipt = &Receipt{TxHash: res.hash}
	gas := NewGasMeter(tx.GasLimit)
	// Intrinsic gas.
	if err := gas.Charge(GasTxBase + uint64(len(tx.Args))*GasCalldataByte); err != nil {
		return fail(err)
	}

	if tx.Contract == "" {
		// Plain value transfer — tx.Method/Args ignored.
		if tx.Value > 0 && tx.To == (Address{}) {
			return fail(ErrNoRecipient)
		}
		if err := st.transferValue(tx.From, tx.To, tx.Value); err != nil {
			return fail(err)
		}
		st.mutAcct(tx.From).nonce = tx.Nonce + 1
		res.receipt.GasUsed = gas.Used()
		return res
	}

	contract, ok := st.contracts[tx.Contract]
	if !ok {
		return fail(fmt.Errorf("%w: %s", ErrUnknownContract, tx.Contract))
	}
	// Move value into the contract escrow before the call.
	if tx.Value > 0 {
		if err := st.transferValue(tx.From, contractAddress(tx.Contract), tx.Value); err != nil {
			return fail(err)
		}
	}
	ctx := &CallContext{
		Sender: tx.From,
		Value:  tx.Value,
		Gas:    gas,
		Store:  st.meteredStore(tx.Contract, gas),
		tx:     st,
		name:   tx.Contract,
	}
	ret, err := contract.Call(ctx, tx.Method, tx.Args)
	res.receipt.GasUsed = gas.Used()
	if err != nil {
		st.undo() // state rolled back, value refunded; the nonce still advances
		res.receipt.Err = fmt.Errorf("%w: %s.%s: %w", ErrReverted, tx.Contract, tx.Method, err)
	} else {
		res.receipt.Return, res.receipt.Logs = ret, ctx.logs
	}
	st.mutAcct(tx.From).nonce = tx.Nonce + 1
	return res
}

// liveTx is one executing transaction: the chain (caller holds c.mu) plus
// the mark in its open undo scope the transaction reverts to. Its writes
// land in live state at once, their pre-images in the journal.
type liveTx struct {
	*Chain
	start journalMark
}

// undo discards everything the transaction has done so far; caller holds
// c.mu.
func (l *liveTx) undo() { l.jrnl.revertTo(l.start) }

// meteredStore is a contract's storage as the transaction sees it; a revert
// undoes exactly what the transaction touched, in every contract. caller holds
// c.mu.
func (l *liveTx) meteredStore(name string, gas *GasMeter) *Storage {
	return l.storages[name].metered(gas, l.jrnl)
}

// commitTx records a processed transaction's body and receipt; caller holds
// c.mu. The body is stored post-normalization (gas default applied) so
// replaying it on another node reproduces the same hash.
func (c *Chain) commitTx(tx Transaction, h Hash, r *Receipt) {
	c.txs[h] = tx
	c.receipts[h] = r
}

// ReadStorage reads a contract storage slot without gas (an archive-node
// style view used by off-chain tooling and tests).
func (c *Chain) ReadStorage(contract, key string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.storages[contract]
	if !ok {
		return nil
	}
	v, _ := st.Get(key)
	return v
}

// Receipt returns the receipt of a processed transaction.
func (c *Chain) Receipt(h Hash) (*Receipt, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.receipts[h]
	return r, ok
}

// stateRootLocked commits to all contract storages.
func (c *Chain) stateRootLocked() Hash { return stateRootOf(c.storages) }

// stateRootOf hashes the per-contract commitments in contract-name order;
// the caller holds the mu of the chain that owns (or is about to own) the
// storages.
func stateRootOf(storages map[string]*Storage) Hash {
	h := sha256.New()
	names := make([]string, 0, len(storages))
	for n := range storages {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n))
		d := storages[n].digest()
		h.Write(d[:])
	}
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// Height returns the number of sealed blocks (excluding genesis).
func (c *Chain) Height() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blocks[len(c.blocks)-1].Number
}

// BlockByNumber returns a sealed block.
func (c *Chain) BlockByNumber(n uint64) (Block, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n >= uint64(len(c.blocks)) {
		return Block{}, false
	}
	return c.blocks[n], true
}

// VerifyIntegrity walks the hash links, returning an error if any block has
// been tampered with — the tamper-resistance assumption made checkable.
func (c *Chain) VerifyIntegrity() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 1; i < len(c.blocks); i++ {
		want := c.blocks[i-1].hash()
		if c.blocks[i].Parent != want {
			return fmt.Errorf("chain: block %d parent hash mismatch", i)
		}
	}
	return nil
}
