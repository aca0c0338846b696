package chain

import (
	"fmt"
	"sort"

	"github.com/zkdet/zkdet/internal/chain/exec"
)

// This file is the state-view half of the parallel batch executor (see
// batch.go for the engine): a txView is an execEnv that runs one
// transaction against committed chain state through a speculative overlay,
// capturing the exact read and write sets as it goes. Resources are the
// opaque strings the exec package schedules and validates on.

// Resource names. Storage slots, balances and nonces live in disjoint
// namespaces; the separators cannot occur in contract names (and key
// collisions across namespaces are prevented by the prefix byte).
func resStore(contract, key string) string { return "s\x00" + contract + "\x00" + key }
func resBal(a Address) string              { return "b\x00" + string(a[:]) }
func resNonce(a Address) string            { return "n\x00" + string(a[:]) }

// rwRecorder captures the reads of one speculative execution. Only the
// first observation of each resource is kept: within a single transaction
// the overlay is stable, so every later read of the same resource observes
// the same writers (or the transaction's own write, which needs no
// validation).
type rwRecorder struct {
	reads map[string][]int
}

func newRecorder() *rwRecorder { return &rwRecorder{reads: make(map[string][]int)} }

// read notes that the execution observed a resource whose value reflects
// the given batch-local writers (copied: group writer lists keep growing).
func (r *rwRecorder) read(res string, writers []int) {
	if _, ok := r.reads[res]; ok {
		return
	}
	r.reads[res] = append([]int(nil), writers...)
}

// accesses returns the captured read set, sorted by resource for
// deterministic validation and tests.
func (r *rwRecorder) accesses() []exec.Access {
	keys := make([]string, 0, len(r.reads))
	for k := range r.reads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]exec.Access, len(keys))
	for i, k := range keys {
		out[i] = exec.Access{Res: k, Writers: r.reads[k]}
	}
	return out
}

// groupStore accumulates the storage writes of a group's earlier members
// so later members observe them, like serial execution would. writers[k]
// is the ordered list of batch indices that wrote slot k.
type groupStore struct {
	data    map[string][]byte
	dels    map[string]bool
	writers map[string][]int
}

// groupAcct is the account counterpart. Balance writes come in two kinds:
// absolute values (a transfer that read the balance first) and commutative
// deltas (pure credits); balAbs implies balDelta == 0.
type groupAcct struct {
	nonceSet     bool
	nonce        uint64
	nonceWriters []int
	balAbs       bool
	bal          uint64
	balDelta     uint64
	balWriters   []int
}

// groupState is the merged speculative state of one scheduled group. It is
// only ever touched by the single worker executing that group.
type groupState struct {
	stores map[string]*groupStore
	accts  map[Address]*groupAcct
}

func newGroupState() *groupState {
	return &groupState{stores: make(map[string]*groupStore), accts: make(map[Address]*groupAcct)}
}

func (g *groupState) store(name string) *groupStore {
	if s, ok := g.stores[name]; ok {
		return s
	}
	s := &groupStore{
		data:    make(map[string][]byte),
		dels:    make(map[string]bool),
		writers: make(map[string][]int),
	}
	g.stores[name] = s
	return s
}

func (g *groupState) acct(a Address) *groupAcct {
	if t, ok := g.accts[a]; ok {
		return t
	}
	t := &groupAcct{}
	g.accts[a] = t
	return t
}

// merge folds a finished member's surviving effects into the group overlay
// so the next member observes them; idx is the member's batch index.
func (g *groupState) merge(idx int, eff *txEffects) {
	v := eff.view
	for a, t := range v.accts.m {
		if !t.nonceSet && !t.balAbs && t.balDelta == 0 {
			continue
		}
		ga := g.acct(a)
		if t.nonceSet {
			ga.nonceSet = true
			ga.nonce = t.nonce
			ga.nonceWriters = append(ga.nonceWriters, idx)
		}
		if t.balAbs {
			// t.bal was computed on top of this very group state, so it is
			// the correct new group-absolute value.
			ga.balAbs = true
			ga.bal = t.bal
			ga.balDelta = 0
			ga.balWriters = append(ga.balWriters, idx)
		} else if t.balDelta > 0 {
			if ga.balAbs {
				ga.bal += t.balDelta
			} else {
				ga.balDelta += t.balDelta
			}
			ga.balWriters = append(ga.balWriters, idx)
		}
	}
	for name, ov := range v.ovs {
		if len(ov.txd) == 0 && len(ov.txdel) == 0 {
			continue
		}
		gs := g.store(name)
		for k, val := range ov.txd {
			gs.data[k] = val
			delete(gs.dels, k)
			gs.writers[k] = append(gs.writers[k], idx)
		}
		for k := range ov.txdel {
			gs.dels[k] = true
			delete(gs.data, k)
			gs.writers[k] = append(gs.writers[k], idx)
		}
	}
}

// storeOverlay is the speculative view of one contract's storage. Reads
// fall through transaction-local writes, then the group overlay, then the
// committed base; writes stay transaction-local until the engine commits
// them. Every fall-through read is recorded together with the batch-local
// writers whose effects it observed.
type storeOverlay struct {
	name  string
	base  map[string][]byte // committed root data; never written during a batch
	grp   *groupStore       // earlier group members' writes; nil at commit time
	txd   map[string][]byte
	txdel map[string]bool
	rec   *rwRecorder
}

func (o *storeOverlay) get(key string) ([]byte, bool) {
	if o.txdel[key] {
		return nil, false
	}
	if v, ok := o.txd[key]; ok {
		return v, true
	}
	if o.grp != nil {
		if ws, touched := o.grp.writers[key]; touched {
			o.rec.read(resStore(o.name, key), ws)
			if o.grp.dels[key] {
				return nil, false
			}
			return o.grp.data[key], true
		}
	}
	o.rec.read(resStore(o.name, key), nil)
	v, ok := o.base[key]
	return v, ok
}

// exists is the existence probe Storage.Set uses for its gas charge; it
// records the same read a value fetch would (the charge is an observation
// a racing slot creator invalidates).
func (o *storeOverlay) exists(key string) bool {
	_, ok := o.get(key)
	return ok
}

func (o *storeOverlay) set(key string, value []byte) {
	cp := make([]byte, len(value))
	copy(cp, value)
	o.txd[key] = cp
	delete(o.txdel, key)
}

func (o *storeOverlay) del(key string) {
	o.txdel[key] = true
	delete(o.txd, key)
}

// txAcct is one account's transaction-local overlay entry. A balance is
// either an absolute value (balAbs, after the balance was read) or a pure
// credit delta; balAbs implies balDelta == 0.
type txAcct struct {
	nonceSet bool
	nonce    uint64
	balAbs   bool
	bal      uint64
	balDelta uint64
}

// txAccounts overlays account state the same way storeOverlay overlays
// storage. The speculative phase must not mutate chain maps, so base reads
// go through lookups that do not create account records (a missing record
// is observationally a zero balance and nonce, exactly what acct() would
// return after creating one).
type txAccounts struct {
	c   *Chain
	grp *groupState // nil at commit time
	m   map[Address]*txAcct
	rec *rwRecorder
}

func (x *txAccounts) acct(a Address) *txAcct {
	if t, ok := x.m[a]; ok {
		return t
	}
	t := &txAcct{}
	x.m[a] = t
	return t
}

// base reads the committed account record, the zero one when there is
// none; caller holds c.mu (the engine holds it for the whole batch).
func (x *txAccounts) base(a Address) account {
	if acc, ok := x.c.accounts[a]; ok {
		return *acc
	}
	return account{}
}

func (x *txAccounts) nonce(a Address) uint64 {
	t := x.acct(a)
	if t.nonceSet {
		return t.nonce
	}
	if x.grp != nil {
		if g, ok := x.grp.accts[a]; ok && g.nonceSet {
			x.rec.read(resNonce(a), g.nonceWriters)
			return g.nonce
		}
	}
	x.rec.read(resNonce(a), nil)
	return x.base(a).nonce
}

func (x *txAccounts) setNonce(a Address, n uint64) {
	t := x.acct(a)
	t.nonceSet = true
	t.nonce = n
}

// balance returns the spendable balance as observed through the overlays,
// materializing any pending local delta into an absolute value — once a
// balance has been read, later writes to it are order-sensitive, exactly
// as in serial execution.
func (x *txAccounts) balance(a Address) uint64 {
	t := x.acct(a)
	if t.balAbs {
		return t.bal
	}
	t.bal = x.observeBalance(a) + t.balDelta
	t.balAbs = true
	t.balDelta = 0
	return t.bal
}

func (x *txAccounts) observeBalance(a Address) uint64 {
	if x.grp != nil {
		if g, ok := x.grp.accts[a]; ok && len(g.balWriters) > 0 {
			x.rec.read(resBal(a), g.balWriters)
			if g.balAbs {
				return g.bal
			}
			return x.base(a).balance + g.balDelta
		}
	}
	x.rec.read(resBal(a), nil)
	return x.base(a).balance
}

// credit adds value without observing the balance — the commutative case.
func (x *txAccounts) credit(a Address, amount uint64) {
	t := x.acct(a)
	if t.balAbs {
		t.bal += amount
	} else {
		t.balDelta += amount
	}
}

// transferValue mirrors Chain.transferValue (same error text: receipts
// embed it) against the overlay.
func (x *txAccounts) transferValue(from, to Address, amount uint64) error {
	b := x.balance(from)
	if b < amount {
		return fmt.Errorf("%w: %d < %d", ErrInsufficientFund, b, amount)
	}
	x.acct(from).bal = b - amount
	x.credit(to, amount)
	return nil
}

// txView is the execEnv one batched transaction executes against: account
// and storage overlays over committed chain state (plus the group overlay
// during speculation), with full read/write capture.
type txView struct {
	c        *Chain
	blockNum uint64
	accts    *txAccounts
	stores   map[string]*Storage
	ovs      map[string]*storeOverlay
	grp      *groupState // nil at commit time
	rec      *rwRecorder
}

// newTxView returns a view over the chain's committed state; caller holds
// c.mu (the engine holds it for the whole batch). grp is nil for
// commit-time execution.
func (c *Chain) newTxView(grp *groupState, blockNum uint64) *txView {
	rec := newRecorder()
	return &txView{
		c:        c,
		blockNum: blockNum,
		accts:    &txAccounts{c: c, grp: grp, m: make(map[Address]*txAcct), rec: rec},
		stores:   make(map[string]*Storage),
		ovs:      make(map[string]*storeOverlay),
		grp:      grp,
		rec:      rec,
	}
}

// blockNumber implements execEnv; the whole batch runs at one height.
func (v *txView) blockNumber() uint64 { return v.blockNum }

func (v *txView) transferValue(from, to Address, amount uint64) error {
	return v.accts.transferValue(from, to, amount)
}

// getContract implements execEnv; the contracts map is never mutated
// during a batch, so concurrent speculative reads are safe.
func (v *txView) getContract(name string) (Contract, bool) {
	ct, ok := v.c.contracts[name]
	return ct, ok
}

// meteredStore implements execEnv, returning a metered view of (and
// caching) the overlay of a contract's storage.
func (v *txView) meteredStore(name string, gas *GasMeter) *Storage {
	if s, ok := v.stores[name]; ok {
		return s.metered(gas, nil)
	}
	var base map[string][]byte
	if root, ok := v.c.storages[name]; ok {
		base = root.data
	}
	ov := &storeOverlay{
		name:  name,
		base:  base,
		txd:   make(map[string][]byte),
		txdel: make(map[string]bool),
		rec:   v.rec,
	}
	if v.grp != nil {
		ov.grp = v.grp.stores[name] // nil when no group member wrote it yet
	}
	s := &Storage{ov: ov}
	v.stores[name] = s
	v.ovs[name] = ov
	return s.metered(gas, nil)
}

// nonce, setNonce and undo make the view the overlay backend of execTx
// (txState): nothing it does reaches live state, so undoing is dropping the
// buffered writes — what is left in the view when the transaction ends is
// what the engine may commit. The captured reads stay: they are what
// validation checks.
func (v *txView) nonce(a Address) uint64       { return v.accts.nonce(a) }
func (v *txView) setNonce(a Address, n uint64) { v.accts.setNonce(a, n) }

func (v *txView) undo() {
	clear(v.accts.m)
	for _, ov := range v.ovs {
		clear(ov.txd)
		clear(ov.txdel)
	}
}

// proofFold implements execEnv: the block's proof table is fixed before
// the batch starts and only read during it.
func (v *txView) proofFold(verifier string, calldata []byte) (int, bool) {
	return v.c.proofFold(verifier, calldata)
}

// txEffects is the buffered outcome of one view execution: execTx's result,
// the view holding the surviving writes, and the captured read and write
// sets the commit phase validates and records.
type txEffects struct {
	txResult
	view   *txView
	reads  []exec.Access
	writes []string
}

// run executes one transaction against the view, then freezes the captured
// read set and derives the written-resource list, matching exactly what
// applyEffectsLocked will mutate.
func (v *txView) run(tx Transaction) *txEffects {
	eff := &txEffects{txResult: execTx(v, tx), view: v, reads: v.rec.accesses()}
	for a, t := range v.accts.m {
		if t.nonceSet {
			eff.writes = append(eff.writes, resNonce(a))
		}
		if t.balAbs || t.balDelta > 0 {
			eff.writes = append(eff.writes, resBal(a))
		}
	}
	for name, ov := range v.ovs {
		for k := range ov.txd {
			eff.writes = append(eff.writes, resStore(name, k))
		}
		for k := range ov.txdel {
			eff.writes = append(eff.writes, resStore(name, k))
		}
	}
	sort.Strings(eff.writes)
	return eff
}

// applyEffectsLocked commits a finished execution's surviving effects to
// live chain state, in batch order; caller holds c.mu. Under applyBlock's
// open undo scope every account and slot it overwrites is journaled first
// (the slots of one transaction are distinct, so the map order the entries
// land in cannot change what a revert restores); with no scope open it
// pays nothing.
func (c *Chain) applyEffectsLocked(eff *txEffects) {
	v := eff.view
	for a, t := range v.accts.m {
		if !t.nonceSet && !t.balAbs && t.balDelta == 0 {
			continue
		}
		acc := c.mutAcct(a)
		if t.nonceSet {
			acc.nonce = t.nonce
		}
		if t.balAbs {
			acc.balance = t.bal
		} else {
			acc.balance += t.balDelta
		}
	}
	for name, ov := range v.ovs {
		root := c.storages[name]
		for k, val := range ov.txd {
			c.touchSlotLocked(root, k)
			root.data[k] = val
		}
		for k := range ov.txdel {
			c.touchSlotLocked(root, k)
			delete(root.data, k)
		}
	}
	if eff.goErr == nil {
		c.commitTx(eff.tx, eff.hash, eff.receipt)
	}
}

// touchSlotLocked prepares a direct write to a root store's slot: the
// pre-image goes to the open undo scope, if any, and the slot is marked
// dirty for the next digest.
func (c *Chain) touchSlotLocked(root *Storage, key string) {
	if c.jrnl != nil {
		c.jrnl.record(root, key)
	}
	root.markDirty(key)
}
