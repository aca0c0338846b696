package chain

// Storage is a contract's persistent key-value store. Reads and writes go
// through a gas-metered view; values are opaque byte strings and an absent
// or empty value is the "zero" slot of the EVM cost model.
//
// A Storage is one of two shapes:
//
//   - the root store (held in Chain.storages): owns the data map and its
//     commitment, or
//   - a metered view (metered): shares the root's data, charges a gas
//     meter, journals writes, and marks the slots it writes dirty on the
//     root.
type Storage struct {
	data map[string][]byte
	gas  *GasMeter // nil on the root store; set on metered views
	jrnl *journal  // write journal for transaction rollback (metered views)

	// rootRef points from a metered view back to the root store so writes
	// through the view can mark their slot dirty; nil on the root.
	rootRef *Storage

	// The commitment to data, on the root store only (see statetrie.go).
	// Every path that mutates data — Set, Delete, journal revert — marks the
	// slot dirty, and digest() folds exactly the dirty slots into the trie: a
	// seal costs O(slots written · log state), not O(state). mu is the
	// owning Chain's.
	trie  stateTrie           // guarded by mu
	dirty map[string]struct{} // guarded by mu
}

// journal records the pre-images of mutated storage slots and accounts so
// an open undo scope — one transaction, or the whole block under
// ImportBlock — can be rolled back by undoing exactly what it touched.
type journal struct {
	slots    []slotEntry
	accts    []acctEntry
	accounts map[Address]*account // the chain's account table; nil on a storage-only journal
}

type slotEntry struct {
	store   *Storage
	key     string
	old     []byte
	existed bool
}

type acctEntry struct {
	addr    Address
	old     account
	existed bool
}

// journalMark is a position in a journal that revertTo can return to.
type journalMark struct{ slots, accts int }

func (j *journal) mark() journalMark { return journalMark{len(j.slots), len(j.accts)} }

// record notes a slot's pre-image. The old value is kept by reference:
// every writer replaces a slot's slice, none mutates one in place.
func (j *journal) record(s *Storage, key string) {
	old, existed := s.data[key]
	j.slots = append(j.slots, slotEntry{store: s, key: key, old: old, existed: existed})
}

// recordAcct notes an account's pre-image; acc is nil when the account is
// about to be created.
func (j *journal) recordAcct(a Address, acc *account) {
	e := acctEntry{addr: a, existed: acc != nil}
	if acc != nil {
		e.old = *acc
	}
	j.accts = append(j.accts, e)
}

// revertTo undoes every write recorded since the mark, newest first. An
// account record is restored in place, so pointers to it stay valid; one
// the scope created is deleted again.
func (j *journal) revertTo(m journalMark) {
	for i := len(j.slots) - 1; i >= m.slots; i-- {
		e := j.slots[i]
		if e.existed {
			e.store.data[e.key] = e.old
		} else {
			delete(e.store.data, e.key)
		}
		e.store.root().markDirty(e.key)
	}
	clear(j.slots[m.slots:]) // drop the pre-image references
	j.slots = j.slots[:m.slots]
	for i := len(j.accts) - 1; i >= m.accts; i-- {
		e := j.accts[i]
		if e.existed {
			*j.accounts[e.addr] = e.old
		} else {
			delete(j.accounts, e.addr)
		}
	}
	j.accts = j.accts[:m.accts]
}

// NewStorage returns an empty store.
func NewStorage() *Storage {
	return newStorageFrom(make(map[string][]byte))
}

// newStorageFrom returns a root store owning data, its commitment built
// from scratch. This is the only full walk: whole-map installs
// (RestoreState) use it, and the tests pin the incremental path to it.
func newStorageFrom(data map[string][]byte) *Storage {
	s := &Storage{data: data, dirty: make(map[string]struct{})}
	for k, v := range data {
		s.trie.put(k, v)
	}
	return s
}

// metered returns a view that charges the given meter and journals writes.
// The view shares the underlying data.
func (s *Storage) metered(gas *GasMeter, j *journal) *Storage {
	return &Storage{data: s.data, gas: gas, jrnl: j, rootRef: s.root()}
}

// root resolves the commitment owner of this view.
func (s *Storage) root() *Storage {
	if s.rootRef != nil {
		return s.rootRef
	}
	return s
}

// markDirty notes, on the root store, that a slot of data changed since the
// last digest(); caller holds the owning chain's mu.
func (s *Storage) markDirty(key string) {
	s.dirty[key] = struct{}{}
}

// Get reads a slot, charging SLOAD gas on metered views.
func (s *Storage) Get(key string) ([]byte, error) {
	if s.gas != nil {
		if err := s.gas.Charge(GasSLoad); err != nil {
			return nil, err
		}
	}
	v, ok := s.data[key]
	if !ok {
		return nil, nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// Set writes a slot, charging SSTORE gas: 20k for zero→non-zero, 5k
// otherwise. Multi-word values charge per 32-byte word, like Solidity
// dynamic storage.
func (s *Storage) Set(key string, value []byte) error {
	if s.gas != nil {
		words := uint64((len(value) + 31) / 32)
		if words == 0 {
			words = 1
		}
		_, existed := s.data[key]
		var cost uint64
		if !existed {
			cost = GasSStoreSet * words
		} else {
			cost = GasSStoreReset * words
		}
		if err := s.gas.Charge(cost); err != nil {
			return err
		}
	}
	if s.jrnl != nil {
		s.jrnl.record(s, key)
	}
	out := make([]byte, len(value))
	copy(out, value)
	s.data[key] = out
	s.root().markDirty(key)
	return nil
}

// Delete clears a slot.
func (s *Storage) Delete(key string) error {
	if s.gas != nil {
		if err := s.gas.Charge(GasSStoreClear); err != nil {
			return err
		}
	}
	if s.jrnl != nil {
		s.jrnl.record(s, key)
	}
	delete(s.data, key)
	s.root().markDirty(key)
	return nil
}

// Has reports whether a slot is non-empty (charges a read).
func (s *Storage) Has(key string) (bool, error) {
	v, err := s.Get(key)
	return len(v) > 0, err
}

// digest returns the commitment to the store's contents, first folding the
// slots written since the last call into the trie; caller holds the owning
// chain's mu. The dirty set is drained in map order: the trie's shape and
// root are a function of the resulting slot set alone (canonical shape, see
// statetrie.go), so the fold order cannot reach the root.
func (s *Storage) digest() [32]byte {
	r := s.root()
	for k := range r.dirty {
		if v, ok := r.data[k]; ok {
			r.trie.put(k, v)
		} else {
			r.trie.del(k)
		}
	}
	clear(r.dirty)
	return r.trie.rootHash()
}
