// Package snapshot implements the durable state engine: periodic state
// snapshots checkpointed with the block's state root, composed with the
// write-ahead log (internal/wal) behind a DurableStore so a SIGKILL'd node
// restarts by restoring the latest verified snapshot and replaying the WAL
// tail through the chain's own import path.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/storage"
)

// Codec errors.
var (
	ErrBadSnapshot = errors.New("snapshot: malformed or corrupt snapshot file")
)

// snapVersion 3: block headers carry chain.Block.Fold, which is hashed. A
// version-2 file's headers hash (and its WAL block records frame)
// differently, a version-1 file carries state roots of the old sorted walk;
// neither can be re-derived, so both are refused at the manifest.
const (
	snapMagic   = "ZKSNAP01"
	snapVersion = 3
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Manifest is the snapshot's self-description, written at the head of the
// file and exposed to recovery before any state is decoded: the checkpoint
// height, the state root the restore must re-derive, the pruning role it
// was written under, and section counts.
type Manifest struct {
	Version   uint32
	Role      Role
	Height    uint64
	StateRoot chain.Hash
	// WALSeq is the WAL position captured atomically with the export: every
	// record below it is fully covered by this snapshot. Replay uses it to
	// skip non-idempotent records (faucet credits) the snapshot already
	// absorbed.
	WALSeq   uint64
	Blocks   int
	Bodies   int
	Accounts int
	Storages int
	Blobs    int
}

// Snapshot is the in-memory form of one checkpoint file: the chain state
// export plus the blob store contents.
type Snapshot struct {
	Manifest Manifest
	State    *chain.StateExport
	Blobs    []storage.BlobExport
}

// enc is a little-endian append-only buffer.
type enc struct{ b []byte }

func (e *enc) u8(v byte)       { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)    { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)    { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) hash(h [32]byte) { e.b = append(e.b, h[:]...) }
func (e *enc) addr(a [20]byte) { e.b = append(e.b, a[:]...) }
func (e *enc) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}
func (e *enc) str(s string) { e.bytes([]byte(s)) }

// dec is the matching reader; every accessor fails sticky on short input.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.err = fmt.Errorf("%w: truncated at offset %d", ErrBadSnapshot, d.off)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}
func (d *dec) u8() byte {
	v := d.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}
func (d *dec) u32() uint32 {
	v := d.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}
func (d *dec) u64() uint64 {
	v := d.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}
func (d *dec) hash() (h chain.Hash) {
	copy(h[:], d.take(32))
	return h
}
func (d *dec) addr() (a chain.Address) {
	copy(a[:], d.take(20))
	return a
}
func (d *dec) bytes() []byte {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	v := d.take(n)
	if v == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, v)
	return out
}
func (d *dec) str() string { return string(d.bytes()) }

// count reads a section length and bounds it by the remaining bytes (each
// entry needs at least min bytes), so a corrupt count cannot drive a huge
// allocation. The bound is checked before the count becomes an int, which
// on a 32-bit build would turn a count above 2^31 negative.
func (d *dec) count(min int) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if min > 0 && uint64(n) > uint64((len(d.b)-d.off)/min+1) {
		d.err = fmt.Errorf("%w: implausible count %d at offset %d", ErrBadSnapshot, n, d.off)
		return 0
	}
	return int(n)
}

func encodeTx(e *enc, tx *chain.Transaction) {
	e.addr(tx.From)
	e.addr(tx.To)
	e.str(tx.Contract)
	e.str(tx.Method)
	e.bytes(tx.Args)
	e.u64(tx.Value)
	e.u64(tx.Nonce)
	e.u64(tx.GasLimit)
}

func decodeTx(d *dec) chain.Transaction {
	return chain.Transaction{
		From:     d.addr(),
		To:       d.addr(),
		Contract: d.str(),
		Method:   d.str(),
		Args:     d.bytes(),
		Value:    d.u64(),
		Nonce:    d.u64(),
		GasLimit: d.u64(),
	}
}

// encodeReceipt flattens Receipt.Err to its string form. Receipts restored
// from a snapshot therefore lose the wrapped error chain — acceptable
// because the RPC gateway already serves errors as strings, and the WAL
// tail (recent history) regenerates its receipts natively by replaying
// transactions through the chain.
func encodeReceipt(e *enc, r *chain.Receipt) {
	e.hash(r.TxHash)
	e.u64(r.GasUsed)
	e.bytes(r.Return)
	e.u32(uint32(len(r.Logs)))
	for _, ev := range r.Logs {
		e.str(ev.Contract)
		e.str(ev.Name)
		e.bytes(ev.Topic)
		e.bytes(ev.Data)
	}
	if r.Err != nil {
		e.str(r.Err.Error())
	} else {
		e.str("")
	}
}

func decodeReceipt(d *dec) *chain.Receipt {
	r := &chain.Receipt{
		TxHash:  d.hash(),
		GasUsed: d.u64(),
		Return:  d.bytes(),
	}
	if n := d.count(8); n > 0 {
		r.Logs = make([]chain.Event, n)
		for i := range r.Logs {
			r.Logs[i] = chain.Event{
				Contract: d.str(),
				Name:     d.str(),
				Topic:    d.bytes(),
				Data:     d.bytes(),
			}
		}
	}
	if msg := d.str(); msg != "" {
		r.Err = errors.New(msg)
	}
	return r
}

func encodeBlock(e *enc, b *chain.Block) {
	e.u64(b.Number)
	e.hash(b.Parent)
	e.u64(uint64(b.Time.UnixNano()))
	e.u32(uint32(len(b.TxHashes)))
	for _, h := range b.TxHashes {
		e.hash(h)
	}
	e.hash(b.StateRoot)
	e.u32(b.Fold)
}

// blockSize, txSize and receiptSize are the lengths encodeBlock, encodeTx
// and encodeReceipt write, which Encode and encodeBlockRecord size their
// buffers from.
func blockSize(b *chain.Block) int { return 8 + 32 + 8 + 4 + 32*len(b.TxHashes) + 32 + 4 }

func txSize(tx *chain.Transaction) int {
	return 20 + 20 + 4 + len(tx.Contract) + 4 + len(tx.Method) + 4 + len(tx.Args) + 3*8
}

func receiptSize(r *chain.Receipt) int {
	n := 32 + 8 + 4 + len(r.Return) + 4 + 4 // the log count, the error's length word
	for _, ev := range r.Logs {
		n += 4*4 + len(ev.Contract) + len(ev.Name) + len(ev.Topic) + len(ev.Data)
	}
	if r.Err != nil {
		n += len(r.Err.Error())
	}
	return n
}

func decodeBlock(d *dec) chain.Block {
	b := chain.Block{Number: d.u64(), Parent: d.hash()}
	b.Time = time.Unix(0, int64(d.u64()))
	if n := d.count(32); n > 0 {
		b.TxHashes = make([]chain.Hash, n)
		for i := range b.TxHashes {
			b.TxHashes[i] = d.hash()
		}
	}
	b.StateRoot = d.hash()
	b.Fold = d.u32()
	return b
}

// Encode serializes a snapshot: magic, manifest, sections, then a CRC over
// everything before it. Map-backed sections are emitted in sorted order so
// encoding is deterministic. The buffer is allocated once at the file's
// exact size (encodedSize): grown by append, a checkpoint would allocate
// the doubling chain below its final capacity, and whether the last
// doubling happens would hinge on a few transactions more or less.
func Encode(s *Snapshot) []byte {
	e := &enc{b: make([]byte, 0, encodedSize(s))}
	e.b = append(e.b, snapMagic...)

	exp := s.State
	m := Manifest{
		Version:   snapVersion,
		Role:      s.Manifest.Role,
		Height:    exp.Height(),
		StateRoot: exp.StateRoot(),
		WALSeq:    s.Manifest.WALSeq,
		Blocks:    len(exp.Blocks),
		Bodies:    len(exp.Bodies),
		Accounts:  len(exp.Accounts),
		Storages:  len(exp.Storages),
		Blobs:     len(s.Blobs),
	}
	e.u32(m.Version)
	e.u8(byte(m.Role))
	e.u64(m.Height)
	e.hash(m.StateRoot)
	e.u64(m.WALSeq)

	e.u32(uint32(m.Blocks))
	for i := range exp.Blocks {
		encodeBlock(e, &exp.Blocks[i])
	}

	e.u32(uint32(m.Bodies))
	bodyNums := make([]uint64, 0, len(exp.Bodies))
	for n := range exp.Bodies {
		bodyNums = append(bodyNums, n)
	}
	sortU64(bodyNums)
	for _, n := range bodyNums {
		bd := exp.Bodies[n]
		e.u64(n)
		e.u32(uint32(len(bd.Txs)))
		for i := range bd.Txs {
			encodeTx(e, &bd.Txs[i])
			if bd.Receipts[i] != nil {
				e.u8(1)
				encodeReceipt(e, bd.Receipts[i])
			} else {
				e.u8(0)
			}
		}
	}

	e.u32(uint32(m.Accounts))
	addrs := make([]chain.Address, 0, len(exp.Accounts))
	for a := range exp.Accounts {
		addrs = append(addrs, a)
	}
	sortAddrs(addrs)
	for _, a := range addrs {
		st := exp.Accounts[a]
		e.addr(a)
		e.u64(st.Balance)
		e.u64(st.Nonce)
	}

	e.u32(uint32(m.Storages))
	names := make([]string, 0, len(exp.Storages))
	for n := range exp.Storages {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		slots := exp.Storages[name]
		e.str(name)
		e.u32(uint32(len(slots)))
		keys := make([]string, 0, len(slots))
		for k := range slots {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			e.str(k)
			e.bytes(slots[k])
		}
	}

	e.u32(uint32(m.Blobs))
	for i := range s.Blobs {
		e.str(s.Blobs[i].Owner)
		e.bytes(s.Blobs[i].Data)
	}

	e.u32(crc32.Checksum(e.b, crcTable))
	return e.b
}

// encodedSize is len(Encode(s)), summed over the same fields in map order
// (the size does not depend on the sorted order Encode writes them in).
func encodedSize(s *Snapshot) int {
	exp := s.State
	bytesLen := func(n int) int { return 4 + n }
	n := len(snapMagic) + 4 + 1 + 8 + 32 + 8 // magic, manifest
	n += 5*4 + 4                             // five section counts, CRC
	for i := range exp.Blocks {
		n += blockSize(&exp.Blocks[i])
	}
	for _, bd := range exp.Bodies {
		n += 8 + 4
		for i := range bd.Txs {
			n += txSize(&bd.Txs[i]) + 1
			if r := bd.Receipts[i]; r != nil {
				n += receiptSize(r)
			}
		}
	}
	n += len(exp.Accounts) * (20 + 8 + 8)
	for name, slots := range exp.Storages {
		n += bytesLen(len(name)) + 4
		for k, v := range slots {
			n += bytesLen(len(k)) + bytesLen(len(v))
		}
	}
	for i := range s.Blobs {
		n += bytesLen(len(s.Blobs[i].Owner)) + bytesLen(len(s.Blobs[i].Data))
	}
	return n
}

// Decode parses and integrity-checks a snapshot file. Any structural
// damage — truncation, bit flips, a bad CRC — returns ErrBadSnapshot; the
// semantic check (does the state root actually re-derive?) happens later
// in chain.RestoreState, so even a CRC collision cannot load wrong state
// silently.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	d := &dec{b: body, off: len(snapMagic)}

	var m Manifest
	m.Version = d.u32()
	if d.err == nil && m.Version != snapVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, m.Version)
	}
	m.Role = Role(d.u8())
	m.Height = d.u64()
	m.StateRoot = d.hash()
	m.WALSeq = d.u64()

	exp := &chain.StateExport{
		Bodies:   make(map[uint64]chain.BlockData),
		Accounts: make(map[chain.Address]chain.AccountState),
		Storages: make(map[string]map[string][]byte),
	}
	m.Blocks = d.count(8 + 32 + 8 + 4 + 32)
	exp.Blocks = make([]chain.Block, 0, m.Blocks)
	for i := 0; i < m.Blocks && d.err == nil; i++ {
		exp.Blocks = append(exp.Blocks, decodeBlock(d))
	}

	m.Bodies = d.count(8 + 4)
	for i := 0; i < m.Bodies && d.err == nil; i++ {
		n := d.u64()
		ntx := d.count(40 + 24 + 1)
		bd := chain.BlockData{
			Txs:      make([]chain.Transaction, ntx),
			Receipts: make([]*chain.Receipt, ntx),
		}
		for j := 0; j < ntx && d.err == nil; j++ {
			bd.Txs[j] = decodeTx(d)
			if d.u8() == 1 {
				bd.Receipts[j] = decodeReceipt(d)
			}
		}
		exp.Bodies[n] = bd
	}

	m.Accounts = d.count(20 + 16)
	for i := 0; i < m.Accounts && d.err == nil; i++ {
		a := d.addr()
		exp.Accounts[a] = chain.AccountState{Balance: d.u64(), Nonce: d.u64()}
	}

	m.Storages = d.count(4 + 4)
	for i := 0; i < m.Storages && d.err == nil; i++ {
		name := d.str()
		nslots := d.count(8)
		slots := make(map[string][]byte, nslots)
		for j := 0; j < nslots && d.err == nil; j++ {
			k := d.str()
			slots[k] = d.bytes()
		}
		exp.Storages[name] = slots
	}

	var blobs []storage.BlobExport
	m.Blobs = d.count(8)
	for i := 0; i < m.Blobs && d.err == nil; i++ {
		owner := d.str()
		data := d.bytes()
		blobs = append(blobs, storage.BlobExport{URI: storage.URIOf(data), Owner: owner, Data: data})
	}

	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(body)-d.off)
	}
	if len(exp.Blocks) == 0 || exp.Height() != m.Height || exp.StateRoot() != m.StateRoot {
		return nil, fmt.Errorf("%w: manifest does not match decoded head", ErrBadSnapshot)
	}
	return &Snapshot{Manifest: m, State: exp, Blobs: blobs}, nil
}

func sortU64(v []uint64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

func sortAddrs(v []chain.Address) {
	sort.Slice(v, func(i, j int) bool { return bytes.Compare(v[i][:], v[j][:]) < 0 })
}
