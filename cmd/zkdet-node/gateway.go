package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/indexer"
	"github.com/zkdet/zkdet/internal/node"
	"github.com/zkdet/zkdet/internal/storage"
)

// The gateway's JSON-RPC methods. The load and showcase clients call them by
// these names too.
const (
	rpcSendTransaction = "zkdet_sendTransaction"
	rpcReceipt         = "zkdet_receipt"
	rpcBlockNumber     = "zkdet_blockNumber"
	rpcEvents          = "zkdet_events"
	rpcProvenance      = "zkdet_provenance"
	rpcExchange        = "zkdet_exchange"
	rpcStats           = "zkdet_stats"
	rpcFaucet          = "zkdet_faucet"
	rpcNextNonce       = "zkdet_nextNonce"
	rpcStoragePut      = "zkdet_storagePut"
	rpcStorageGet      = "zkdet_storageGet"
	rpcCTEnable        = "zkdet_ctEnable"
	rpcCTMint          = "zkdet_ctMint"
	rpcCTTransfer      = "zkdet_ctTransfer"
	rpcCTNote          = "zkdet_ctNote"
	rpcCTAudit         = "zkdet_ctAudit"
)

// maxBodyBytes bounds a request body; a longer one is refused with 413.
const maxBodyBytes = 16 << 20

// gateway is the JSON-RPC 2.0 endpoint (POST /) of the node daemon: one
// table from method name to handler.
type gateway struct {
	srv     *server
	methods map[string]method
}

// method serves one JSON-RPC method from the request's raw params.
type method func(ctx context.Context, params json.RawMessage) (any, *rpcError)

func newGateway(srv *server) *gateway {
	g := &gateway{srv: srv}
	g.methods = map[string]method{
		rpcSendTransaction: handle(g.sendTransaction), // submit a tx; wait=true blocks until sealed
		rpcReceipt:         handle(g.receipt),         // receipt + block number by tx hash
		rpcBlockNumber:     noParams(g.blockNumber),   // current chain height
		rpcEvents:          handle(g.events),          // indexed event query with topic/range/pagination
		rpcProvenance:      handle(g.provenance),      // lineage DAG of a token
		rpcExchange:        handle(g.exchange),        // folded escrow exchange record
		rpcStats:           noParams(g.stats),         // node + indexer counters
		rpcFaucet:          handle(g.faucet),          // credit an address (devnet only)
		rpcNextNonce:       handle(g.nextNonce),       // next pool-assigned nonce for an address
		rpcStoragePut:      handle(g.storagePut),      // store a blob, returns its URI
		rpcStorageGet:      handle(g.storageGet),      // fetch a blob by URI
		rpcCTEnable:        handle(g.ctEnable),        // deploy the confidential-token subsystem (devnet only)
		rpcCTMint:          handle(g.ctMint),          // mint confidential notes (issuer; returns openings)
		rpcCTTransfer:      handle(g.ctTransfer),      // spend notes into new outputs (returns openings)
		rpcCTNote:          handle(g.ctNote),          // public view of a note: owner, status, commitment
		rpcCTAudit:         handle(g.ctAudit),         // open hidden amounts with the designated auditor key
	}
	return g
}

// JSON-RPC error codes (the standard ones plus one server range).
const (
	codeParse     = -32700
	codeNoMethod  = -32601
	codeBadParams = -32602
	codeExecution = -32000
)

type rpcRequest struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Method  string          `json:"method"`
	Params  json.RawMessage `json:"params"`
}

type rpcError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

type rpcResponse struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Result  any             `json:"result,omitempty"`
	Error   *rpcError       `json:"error,omitempty"`
}

func (g *gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	var req rpcRequest
	resp := rpcResponse{JSONRPC: "2.0"}
	if err := json.Unmarshal(body, &req); err != nil {
		resp.Error = &rpcError{Code: codeParse, Message: err.Error()}
	} else if m, ok := g.methods[req.Method]; ok {
		resp.ID = req.ID
		resp.Result, resp.Error = m(r.Context(), req.Params)
	} else {
		resp.ID = req.ID
		resp.Error = &rpcError{Code: codeNoMethod, Message: fmt.Sprintf("unknown method %q", req.Method)}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&resp)
}

// paramError marks a handler's error as the caller's fault: -32602 on the
// wire. Any other error is -32000.
type paramError struct{ err error }

func (e paramError) Error() string { return e.err.Error() }
func (e paramError) Unwrap() error { return e.err }

func badParams(err error) error { return paramError{err} }

// handle adapts a handler of typed params to the table. It is the one place
// params are decoded and handler errors become JSON-RPC errors.
func handle[P any](fn func(ctx context.Context, p P) (any, error)) method {
	return func(ctx context.Context, raw json.RawMessage) (any, *rpcError) {
		if len(raw) == 0 {
			return nil, &rpcError{Code: codeBadParams, Message: "missing params"}
		}
		var p P
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, &rpcError{Code: codeBadParams, Message: err.Error()}
		}
		res, err := fn(ctx, p)
		if err != nil {
			code := codeExecution
			if errors.As(err, new(paramError)) {
				code = codeBadParams
			}
			return nil, &rpcError{Code: code, Message: err.Error()}
		}
		return res, nil
	}
}

// noParams adapts a read that takes no params: whatever arrives is ignored.
func noParams(fn func() any) method {
	return func(context.Context, json.RawMessage) (any, *rpcError) { return fn(), nil }
}

// Params types. Most are aliases of unnamed structs, not defined types: the
// message encoding/json returns for a wrong-typed params value spells out
// the Go type, and on the wire that text is the unnamed struct's.
type (
	receiptParams = struct {
		TxHash string `json:"txHash"`
	}
	tokenParams = struct {
		TokenID uint64 `json:"tokenId"`
	}
	// idParams names an escrow exchange or a confidential note.
	idParams = struct {
		ID uint64 `json:"id"`
	}
	faucetParams = struct {
		Address string `json:"address"`
		Amount  uint64 `json:"amount"`
	}
	addressParams = struct {
		Address string `json:"address"`
	}
	storagePutParams = struct {
		Owner string `json:"owner"`
		Data  string `json:"data"`
	}
	storageGetParams = struct {
		URI string `json:"uri"`
	}
	ctEnableParams = struct {
		Issuer     string `json:"issuer"`
		AuditorPub string `json:"auditorPub"` // 64-byte G1 point, hex
	}
	ctMintParams = struct {
		Pays []ctPayIn `json:"pays"`
	}
	// ctInputIn is one spent note of a confidential transfer and its opening.
	ctInputIn = struct {
		ID      uint64 `json:"id"`
		Value   uint64 `json:"value"`
		Blinder string `json:"blinder"` // hex field element
	}
	ctTransferParams = struct {
		Sender string      `json:"sender"`
		Inputs []ctInputIn `json:"inputs"`
		Pays   []ctPayIn   `json:"pays"`
	}
	ctAuditParams = struct {
		AuditorSecret string `json:"auditorSecret"` // hex field element
		NoteID        uint64 `json:"noteId"`
		TokenID       uint64 `json:"tokenId"`
	}
)

// --- wire helpers ---

// parseAddr accepts a 0x-prefixed hex address or a human label (hashed the
// way chain.AddressFromString does), so load tools can say "alice".
func parseAddr(s string) (chain.Address, error) {
	if s == "" {
		return chain.Address{}, nil
	}
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		return chain.AddressFromHex(s)
	}
	return chain.AddressFromString(s), nil
}

func parseBytes(s string) ([]byte, error) {
	if s == "" {
		return nil, nil
	}
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	return hex.DecodeString(s)
}

func hexBytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return "0x" + hex.EncodeToString(b)
}

// --- transactions ---

type txParams struct {
	From      string `json:"from"`
	To        string `json:"to"`
	Contract  string `json:"contract"`
	Method    string `json:"method"`
	Args      string `json:"args"` // hex
	Value     uint64 `json:"value"`
	Nonce     uint64 `json:"nonce"`
	GasLimit  uint64 `json:"gasLimit"`
	AutoNonce bool   `json:"autoNonce"`
	Wait      bool   `json:"wait"`
}

type txResult struct {
	TxHash      string     `json:"txHash"`
	Included    bool       `json:"included"`
	BlockNumber uint64     `json:"blockNumber,omitempty"`
	GasUsed     uint64     `json:"gasUsed,omitempty"`
	Return      string     `json:"return,omitempty"`
	Reverted    string     `json:"reverted,omitempty"`
	Logs        []eventOut `json:"logs,omitempty"`
}

type eventOut struct {
	Contract string `json:"contract"`
	Name     string `json:"name"`
	Topic    string `json:"topic,omitempty"`
	Data     string `json:"data,omitempty"`
	Block    uint64 `json:"block,omitempty"`
	TxHash   string `json:"txHash,omitempty"`
}

func eventsOut(block uint64, txHash string, evs []chain.Event) []eventOut {
	out := make([]eventOut, len(evs))
	for i, ev := range evs {
		out[i] = eventOut{
			Contract: ev.Contract, Name: ev.Name,
			Topic: hexBytes(ev.Topic), Data: hexBytes(ev.Data),
			Block: block, TxHash: txHash,
		}
	}
	return out
}

func (g *gateway) sendTransaction(ctx context.Context, p txParams) (any, error) {
	from, err := parseAddr(p.From)
	if err != nil {
		return nil, badParams(err)
	}
	to, err := parseAddr(p.To)
	if err != nil {
		return nil, badParams(err)
	}
	args, err := parseBytes(p.Args)
	if err != nil {
		return nil, badParams(err)
	}
	tx := chain.Transaction{
		From: from, To: to, Contract: p.Contract, Method: p.Method,
		Args: args, Value: p.Value, Nonce: p.Nonce, GasLimit: p.GasLimit,
	}
	if !p.Wait {
		pooled, _, err := g.srv.node.SubmitForResult(tx, p.AutoNonce)
		if err != nil {
			return nil, err
		}
		return &txResult{TxHash: pooled.Hash().String()}, nil
	}
	res, err := g.srv.node.SubmitAndWait(ctx, tx, p.AutoNonce)
	if err != nil {
		// Execution-level rejections (revert, bad nonce at execution) carry
		// the tx hash; admission failures do not.
		if res.TxHash != (chain.Hash{}) && !errors.Is(err, node.ErrWaitCanceled) {
			return &txResult{TxHash: res.TxHash.String(), Reverted: err.Error()}, nil
		}
		return nil, err
	}
	out := &txResult{
		TxHash:      res.TxHash.String(),
		Included:    true,
		BlockNumber: res.BlockNumber,
	}
	if rc := res.Receipt; rc != nil {
		out.GasUsed = rc.GasUsed
		out.Return = hexBytes(rc.Return)
		out.Logs = eventsOut(res.BlockNumber, res.TxHash.String(), rc.Logs)
		if rc.Err != nil {
			out.Reverted = rc.Err.Error()
		}
	}
	return out, nil
}

func (g *gateway) receipt(_ context.Context, p receiptParams) (any, error) {
	h, err := chain.HashFromHex(p.TxHash)
	if err != nil {
		return nil, badParams(err)
	}
	rc, ok := g.srv.mkt.Chain.Receipt(h)
	if !ok {
		return nil, errors.New("unknown transaction")
	}
	block, _ := g.srv.ix.TxBlock(h)
	out := &txResult{
		TxHash: h.String(), Included: true, BlockNumber: block,
		GasUsed: rc.GasUsed, Return: hexBytes(rc.Return),
		Logs: eventsOut(block, h.String(), rc.Logs),
	}
	if rc.Err != nil {
		out.Reverted = rc.Err.Error()
	}
	return out, nil
}

// --- queries ---

func (g *gateway) blockNumber() any {
	return map[string]uint64{"height": g.srv.mkt.Chain.Height()}
}

type eventsParams struct {
	Contract  string `json:"contract"`
	Name      string `json:"name"`
	Topic     string `json:"topic"`
	FromBlock uint64 `json:"fromBlock"`
	ToBlock   uint64 `json:"toBlock"`
	Offset    int    `json:"offset"`
	Limit     int    `json:"limit"`
}

func (g *gateway) events(_ context.Context, p eventsParams) (any, error) {
	topic, err := parseBytes(p.Topic)
	if err != nil {
		return nil, badParams(err)
	}
	entries, total, err := g.srv.ix.Query(indexer.Filter{
		Contract: p.Contract, Name: p.Name, Topic: topic,
		FromBlock: p.FromBlock, ToBlock: p.ToBlock,
		Offset: p.Offset, Limit: p.Limit,
	})
	if err != nil {
		return nil, badParams(err)
	}
	out := make([]eventOut, len(entries))
	for i, e := range entries {
		out[i] = eventsOut(e.Block, e.TxHash.String(), []chain.Event{e.Event})[0]
	}
	return map[string]any{"entries": out, "total": total}, nil
}

type tokenOut struct {
	ID       uint64   `json:"id"`
	Kind     string   `json:"kind"`
	Owner    string   `json:"owner"`
	Parents  []uint64 `json:"parents,omitempty"`
	Children []uint64 `json:"children,omitempty"`
	Burned   bool     `json:"burned,omitempty"`
}

func (g *gateway) provenance(_ context.Context, p tokenParams) (any, error) {
	lin, err := g.srv.ix.Lineage(p.TokenID)
	if err != nil {
		return nil, err
	}
	tokens := make([]tokenOut, len(lin.Tokens))
	for i, t := range lin.Tokens {
		tokens[i] = tokenOut{
			ID: t.ID, Kind: t.Kind.String(), Owner: t.Owner.String(),
			Parents: t.Parents, Children: t.Children, Burned: t.Burned,
		}
	}
	edges := make([][2]uint64, len(lin.Edges))
	for i, e := range lin.Edges {
		edges[i] = [2]uint64{e.Parent, e.Child}
	}
	return map[string]any{"tokens": tokens, "edges": edges}, nil
}

func (g *gateway) exchange(_ context.Context, p idParams) (any, error) {
	rec, err := g.srv.ix.Exchange(p.ID)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"id": rec.ID, "seller": rec.Seller.String(), "status": rec.Status,
		"value": rec.Value, "kc": hexBytes(rec.KC), "hv": hexBytes(rec.HV),
	}, nil
}

// stats renders every component's metric layer.name as out[layer][name];
// the proof system's plonk.<family>.<phase> keys render as
// out["plonk"]["<family>.<phase>"].
func (g *gateway) stats() any {
	metrics := []map[string]float64{g.srv.node.Metrics(), g.srv.ix.Metrics(), g.srv.mkt.Sys.Metrics()}
	if d := g.srv.durable; d != nil {
		metrics = append(metrics, d.Metrics())
	}
	out := map[string]any{"height": g.srv.mkt.Chain.Height()}
	for _, m := range metrics {
		for k, v := range m {
			layer, name, _ := strings.Cut(k, ".")
			sub, _ := out[layer].(map[string]float64)
			if sub == nil {
				sub = map[string]float64{}
				out[layer] = sub
			}
			sub[name] = v
		}
	}
	return out
}

func (g *gateway) faucet(_ context.Context, p faucetParams) (any, error) {
	a, err := parseAddr(p.Address)
	if err != nil {
		return nil, badParams(err)
	}
	// In durable mode the credit must hit the WAL before it is acknowledged
	// — an off-block state mutation a crash would otherwise silently lose,
	// leaving the WAL tail unreplayable (transfers without their funding).
	if d := g.srv.durable; d != nil {
		if err := d.Faucet(a, p.Amount); err != nil {
			return nil, err
		}
	} else {
		g.srv.mkt.Chain.Faucet(a, p.Amount)
	}
	return map[string]any{"address": a.String(), "balance": g.srv.mkt.Chain.BalanceOf(a)}, nil
}

func (g *gateway) nextNonce(_ context.Context, p addressParams) (any, error) {
	a, err := parseAddr(p.Address)
	if err != nil {
		return nil, badParams(err)
	}
	return map[string]uint64{"nonce": g.srv.node.NextNonce(a)}, nil
}

// --- confidential tokens ---

// ctPayIn is one requested output of a confidential mint or transfer.
type ctPayIn struct {
	Value uint64 `json:"value"`
	To    string `json:"to"`
}

// ctNoteOut is the wallet view of a note: the public record plus — only on
// the RPC that created it — the opening (value, blinder) the owner needs
// to spend it. The opening never appears on-chain.
type ctNoteOut struct {
	ID         uint64 `json:"id"`
	Owner      string `json:"owner"`
	Status     string `json:"status"`
	Commitment string `json:"commitment"`
	Digest     string `json:"digest"`
	Value      uint64 `json:"value,omitempty"`
	Blinder    string `json:"blinder,omitempty"`
}

func ctStatusString(s byte) string {
	switch s {
	case 1:
		return "unspent"
	case 2:
		return "spent"
	case 3:
		return "locked"
	default:
		return fmt.Sprintf("unknown(%d)", s)
	}
}

func ctNoteView(n *contracts.CTNote) ctNoteOut {
	comm := n.Comm.Bytes()
	dig := n.Comm.Digest()
	return ctNoteOut{
		ID: n.ID, Owner: n.Owner.String(), Status: ctStatusString(n.Status),
		Commitment: hexBytes(comm[:]), Digest: hexBytes(dig[:]),
	}
}

func (g *gateway) ctDeployment() (*core.ConfidentialDeployment, error) {
	d := g.srv.mkt.Confidential()
	if d == nil {
		return nil, core.ErrConfidentialDisabled
	}
	return d, nil
}

// ctEnable deploys the confidential subsystem. Devnet-only, like the
// faucet: a production genesis would bake the deployment in.
func (g *gateway) ctEnable(_ context.Context, p ctEnableParams) (any, error) {
	issuer, err := parseAddr(p.Issuer)
	if err != nil {
		return nil, badParams(err)
	}
	pubRaw, err := parseBytes(p.AuditorPub)
	if err != nil {
		return nil, badParams(err)
	}
	pub, err := ct.CommitmentFromBytes(pubRaw)
	if err != nil {
		return nil, badParams(fmt.Errorf("auditorPub: %w", err))
	}
	d, err := g.srv.mkt.EnableConfidential(issuer, pub.P)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"issuer": d.Issuer.String(), "token": contracts.ConfidentialTokenName,
		"verifier":    core.PiCTVerifierName,
		"verifierGas": d.VerifierGas, "tokenGas": d.TokenGas,
	}, nil
}

func (g *gateway) ctMint(_ context.Context, p ctMintParams) (any, error) {
	if _, err := g.ctDeployment(); err != nil {
		return nil, err
	}
	pays, err := ctPayments(p.Pays)
	if err != nil {
		return nil, err
	}
	notes, err := g.srv.mkt.ConfidentialMint(pays)
	if err != nil {
		return nil, err
	}
	return map[string]any{"notes": ctWalletNotes(notes)}, nil
}

func (g *gateway) ctTransfer(_ context.Context, p ctTransferParams) (any, error) {
	if _, err := g.ctDeployment(); err != nil {
		return nil, err
	}
	sender, err := parseAddr(p.Sender)
	if err != nil {
		return nil, badParams(err)
	}
	ins := make([]*core.ConfNote, len(p.Inputs))
	for i, in := range p.Inputs {
		rec, err := contracts.ReadCTNote(g.srv.mkt.Chain, contracts.ConfidentialTokenName, in.ID)
		if err != nil {
			return nil, err
		}
		blinder, err := parseBytes(in.Blinder)
		if err != nil {
			return nil, badParams(err)
		}
		r, err := fr.FromBytesCanonical(blinder)
		if err != nil {
			return nil, badParams(fmt.Errorf("input %d blinder: %w", in.ID, err))
		}
		ins[i] = &core.ConfNote{
			ID: rec.ID, Owner: rec.Owner, Comm: rec.Comm,
			Opening: ct.Opening{V: in.Value, R: r},
		}
	}
	pays, err := ctPayments(p.Pays)
	if err != nil {
		return nil, err
	}
	notes, err := g.srv.mkt.ConfidentialTransfer(sender, ins, pays)
	if err != nil {
		return nil, err
	}
	return map[string]any{"notes": ctWalletNotes(notes)}, nil
}

func ctPayments(pays []ctPayIn) ([]core.ConfPayment, error) {
	out := make([]core.ConfPayment, len(pays))
	for i, pay := range pays {
		to, err := parseAddr(pay.To)
		if err != nil {
			return nil, badParams(err)
		}
		out[i] = core.ConfPayment{Value: pay.Value, To: to}
	}
	return out, nil
}

func ctWalletNotes(notes []*core.ConfNote) []ctNoteOut {
	out := make([]ctNoteOut, len(notes))
	for i, n := range notes {
		comm := n.Comm.Bytes()
		dig := n.Comm.Digest()
		blinder := n.Opening.R.Bytes()
		out[i] = ctNoteOut{
			ID: n.ID, Owner: n.Owner.String(), Status: "unspent",
			Commitment: hexBytes(comm[:]), Digest: hexBytes(dig[:]),
			Value: n.Opening.V, Blinder: hexBytes(blinder[:]),
		}
	}
	return out
}

func (g *gateway) ctNote(_ context.Context, p idParams) (any, error) {
	rec, err := contracts.ReadCTNote(g.srv.mkt.Chain, contracts.ConfidentialTokenName, p.ID)
	if err != nil {
		return nil, err
	}
	return ctNoteView(rec), nil
}

// ctAudit opens hidden amounts with the designated auditor's secret key.
// With noteId it opens one note; otherwise it enumerates the settled
// confidential exchanges the indexer holds (optionally filtered by tokenId)
// and opens each payment note — the designated-auditor view of
// AuditLineage.
func (g *gateway) ctAudit(_ context.Context, p ctAuditParams) (any, error) {
	d, err := g.ctDeployment()
	if err != nil {
		return nil, err
	}
	skRaw, err := parseBytes(p.AuditorSecret)
	if err != nil {
		return nil, badParams(err)
	}
	sk, err := fr.FromBytesCanonical(skRaw)
	if err != nil {
		return nil, badParams(fmt.Errorf("auditorSecret: %w", err))
	}
	ak := ct.AuditorKeyFromSecret(sk)
	if pub := ak.PublicKey(); !pub.Equal(&d.AuditorPub) {
		return nil, errors.New("auditorSecret does not match the deployed auditor key")
	}
	params := ct.DefaultParams()
	openNote := func(id uint64) (ctNoteOut, error) {
		rec, err := contracts.ReadCTNote(g.srv.mkt.Chain, contracts.ConfidentialTokenName, id)
		if err != nil {
			return ctNoteOut{}, err
		}
		op, err := ak.Open(params, rec.Comm, &rec.Audit)
		if err != nil {
			return ctNoteOut{}, fmt.Errorf("opening note %d: %w", id, err)
		}
		view := ctNoteView(rec)
		view.Value = op.V
		return view, nil
	}
	if p.NoteID != 0 {
		view, err := openNote(p.NoteID)
		if err != nil {
			return nil, err
		}
		return map[string]any{"notes": []ctNoteOut{view}}, nil
	}
	type paymentOut struct {
		ExchangeID uint64 `json:"exchangeId"`
		TokenID    uint64 `json:"tokenId"`
		NoteID     uint64 `json:"noteId"`
		Value      uint64 `json:"value"`
	}
	payments := []paymentOut{}
	for _, x := range g.srv.ix.Exchanges(contracts.ConfidentialTokenName) {
		if x.Status != indexer.ExchangeSettled || (p.TokenID != 0 && x.Token != p.TokenID) {
			continue
		}
		view, err := openNote(x.Note)
		if err != nil {
			return nil, err
		}
		payments = append(payments, paymentOut{
			ExchangeID: x.ID, TokenID: x.Token,
			NoteID: x.Note, Value: view.Value,
		})
	}
	return map[string]any{"payments": payments}, nil
}

func (g *gateway) storagePut(_ context.Context, p storagePutParams) (any, error) {
	data, err := parseBytes(p.Data)
	if err != nil {
		return nil, badParams(err)
	}
	uri, err := g.srv.mkt.Store.Put(p.Owner, data)
	if err != nil {
		return nil, err
	}
	return map[string]string{"uri": hexBytes(uri[:])}, nil
}

func (g *gateway) storageGet(_ context.Context, p storageGetParams) (any, error) {
	raw, err := parseBytes(p.URI)
	if err != nil {
		return nil, badParams(err)
	}
	var uri storage.URI
	if len(raw) != len(uri) {
		return nil, badParams(fmt.Errorf("uri must be %d bytes", len(uri)))
	}
	copy(uri[:], raw)
	data, err := g.srv.mkt.Store.Get(uri)
	if err != nil {
		return nil, err
	}
	return map[string]string{"data": hexBytes(data)}, nil
}
