package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/obs"
)

// rpcClient is a minimal JSON-RPC 2.0 client over HTTP.
type rpcClient struct {
	url  string
	http *http.Client
}

func newRPCClient(url string) *rpcClient {
	return &rpcClient{url: url, http: &http.Client{Timeout: 2 * time.Minute}}
}

func (c *rpcClient) call(method string, params, out any) error {
	body, err := json.Marshal(map[string]any{
		"jsonrpc": "2.0", "id": 1, "method": method, "params": params,
	})
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var envelope struct {
		Result json.RawMessage `json:"result"`
		Error  *rpcError       `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		return err
	}
	if envelope.Error != nil {
		return fmt.Errorf("rpc %s: %s (code %d)", method, envelope.Error.Message, envelope.Error.Code)
	}
	if out != nil {
		return json.Unmarshal(envelope.Result, out)
	}
	return nil
}

// sendWait submits a transaction with wait+autoNonce and fails on revert.
func (c *rpcClient) sendWait(p txParams) (*txResult, error) {
	p.Wait = true
	p.AutoNonce = true
	var res txResult
	if err := c.call(rpcSendTransaction, p, &res); err != nil {
		return nil, err
	}
	if res.Reverted != "" {
		return nil, fmt.Errorf("tx %s reverted: %s", res.TxHash, res.Reverted)
	}
	return &res, nil
}

// exchangeFixture is the π_k material every load client shares. All sellers
// use the same key k and buyer challenge k_v, so one proof settles every
// exchange — the prover runs once, while each settle still pays the real
// on-chain Plonk verification.
type exchangeFixture struct {
	ciphertext []byte // published dataset ciphertext D̂
	commitment []byte // on-chain NFT commitment field (c_d ‖ c_k)
	hv         []byte // h_v = H(k_v)
	ck         []byte // c_k
	kc         []byte // k_c = k + k_v
	proof      []byte // π_k
}

// buildFixture derives the shared exchange material from the server's proof
// system (the verifier contract's vk comes from the same SRS).
func buildFixture(sys *core.System) (*exchangeFixture, error) {
	data := make(core.Dataset, 4)
	for i := range data {
		data[i] = fr.NewElement(uint64(1000 + i))
	}
	key := fr.NewElement(0xC0FFEE)
	seller, err := core.NewSeller(sys, data, key, core.TruePredicate{})
	if err != nil {
		return nil, err
	}
	listing := seller.Listing(0)
	kv := fr.NewElement(0xBEEF)
	hv := core.HashChallenge(kv)
	st, piK, err := seller.NegotiateKey(kv, hv)
	if err != nil {
		return nil, err
	}
	ct := seller.Ciphertext()
	cdB := listing.Statement.DataCommitment.Bytes()
	ckB := listing.KeyCommitment.Bytes()
	hvB := hv.Bytes()
	kcB := st.KC.Bytes()
	return &exchangeFixture{
		ciphertext: ct.Bytes(),
		commitment: append(cdB[:], ckB[:]...),
		hv:         hvB[:],
		ck:         ckB[:],
		kc:         kcB[:],
		proof:      piK.Bytes(),
	}, nil
}

// loadReport is what one load run measured.
type loadReport struct {
	Clients    int
	Txs        int
	Elapsed    time.Duration
	TPS        float64
	P50        time.Duration
	P99        time.Duration
	Provenance int // clients whose lineage check passed
}

func (r *loadReport) String() string {
	return fmt.Sprintf("clients=%d txs=%d elapsed=%.2fs tps=%.0f p50=%s p99=%s provenance-verified=%d/%d",
		r.Clients, r.Txs, r.Elapsed.Seconds(), r.TPS, r.P50, r.P99, r.Provenance, r.Clients)
}

// provenanceOut mirrors the provenance method's result.
type provenanceOut struct {
	Tokens []tokenOut  `json:"tokens"`
	Edges  [][2]uint64 `json:"edges"`
}

// runClient drives one full data-exchange lifecycle through the gateway:
// faucet → publish ciphertext → mint → duplicate → escrow open → settle
// (real on-chain π_k verification) → NFT transfer → provenance check.
// It returns the tx hashes it waited on plus whether the lineage the
// indexer reports matches what the client actually did.
func runClient(c *rpcClient, id int, fx *exchangeFixture, latency *obs.Histogram) (int, bool, error) {
	sellerLabel := fmt.Sprintf("seller-%03d", id)
	buyerLabel := fmt.Sprintf("buyer-%03d", id)
	const price = 5000

	for _, who := range []string{sellerLabel, buyerLabel} {
		if err := c.call(rpcFaucet, faucetParams{Address: who, Amount: 1 << 30}, nil); err != nil {
			return 0, false, err
		}
	}
	var put struct {
		URI string `json:"uri"`
	}
	if err := c.call(rpcStoragePut, storagePutParams{Owner: sellerLabel, Data: hexBytes(fx.ciphertext)}, &put); err != nil {
		return 0, false, err
	}
	uri, err := parseBytes(put.URI)
	if err != nil {
		return 0, false, err
	}

	txs := 0
	wait := func(p txParams) (*txResult, error) {
		start := time.Now()
		res, err := c.sendWait(p)
		if err != nil {
			return nil, err
		}
		latency.Observe(time.Since(start))
		txs++
		return res, nil
	}
	mustID := func(res *txResult) (uint64, error) {
		raw, err := parseBytes(res.Return)
		if err != nil {
			return 0, err
		}
		return contracts.DecU64(raw)
	}

	// Mint the root token and duplicate it — a two-node lineage.
	res, err := wait(txParams{
		From: sellerLabel, Contract: contracts.DataNFTName, Method: "mint",
		Args: hexBytes(contracts.EncodeArgs(uri, fx.commitment)),
	})
	if err != nil {
		return txs, false, fmt.Errorf("mint: %w", err)
	}
	rootID, err := mustID(res)
	if err != nil {
		return txs, false, err
	}
	res, err = wait(txParams{
		From: sellerLabel, Contract: contracts.DataNFTName, Method: "duplicate",
		Args: hexBytes(contracts.EncodeArgs(contracts.U64(rootID), uri, fx.commitment)),
	})
	if err != nil {
		return txs, false, fmt.Errorf("duplicate: %w", err)
	}
	childID, err := mustID(res)
	if err != nil {
		return txs, false, err
	}

	// Key-secure exchange: buyer opens, seller settles with the shared π_k.
	exchangeID := uint64(id + 1)
	sellerAddr := chain.AddressFromString(sellerLabel)
	buyerAddr := chain.AddressFromString(buyerLabel)
	if _, err := wait(txParams{
		From: buyerLabel, Contract: contracts.EscrowName, Method: "open", Value: price,
		Args: hexBytes(contracts.EncodeArgs(contracts.U64(exchangeID), sellerAddr[:], fx.hv, fx.ck)),
	}); err != nil {
		return txs, false, fmt.Errorf("open: %w", err)
	}
	if _, err := wait(txParams{
		From: sellerLabel, Contract: contracts.EscrowName, Method: "settle",
		Args: hexBytes(contracts.EncodeArgs(contracts.U64(exchangeID), fx.kc, fx.proof, fx.kc, fx.ck, fx.hv)),
	}); err != nil {
		return txs, false, fmt.Errorf("settle: %w", err)
	}
	if _, err := wait(txParams{
		From: sellerLabel, Contract: contracts.DataNFTName, Method: "transfer",
		Args: hexBytes(contracts.EncodeArgs(contracts.U64(childID), buyerAddr[:])),
	}); err != nil {
		return txs, false, fmt.Errorf("transfer: %w", err)
	}

	// The indexer's lineage must say: child ← root, child owned by the
	// buyer, exchange settled.
	var lin provenanceOut
	if err := c.call(rpcProvenance, tokenParams{TokenID: childID}, &lin); err != nil {
		return txs, false, err
	}
	ok := len(lin.Tokens) == 2 &&
		lin.Tokens[0].ID == childID && lin.Tokens[1].ID == rootID &&
		lin.Tokens[0].Kind == "duplication" && lin.Tokens[1].Kind == "mint" &&
		lin.Tokens[0].Owner == buyerAddr.String() &&
		len(lin.Edges) == 1 && lin.Edges[0] == [2]uint64{rootID, childID}
	if ok {
		var ex struct {
			Status string `json:"status"`
			Value  uint64 `json:"value"`
		}
		if err := c.call(rpcExchange, idParams{ID: exchangeID}, &ex); err != nil {
			return txs, false, err
		}
		ok = ex.Status == "settled" && ex.Value == price
	}
	return txs, ok, nil
}

// runTransferClient is the light workload: one faucet, then txPerClient
// plain value transfers to the client's own payee. No proofs, no contract
// state — pure admission/execution/sealing throughput, cheap enough per
// client to push the population toward 10k.
func runTransferClient(c *rpcClient, id, txPerClient int, latency *obs.Histogram) (int, error) {
	payer := fmt.Sprintf("payer-%05d", id)
	payee := fmt.Sprintf("payee-%05d", id)
	if err := c.call(rpcFaucet, faucetParams{Address: payer, Amount: 1 << 20}, nil); err != nil {
		return 0, err
	}
	txs := 0
	for i := 0; i < txPerClient; i++ {
		start := time.Now()
		if _, err := c.sendWait(txParams{From: payer, To: payee, Value: 1}); err != nil {
			return txs, fmt.Errorf("transfer %d: %w", i, err)
		}
		latency.Observe(time.Since(start))
		txs++
	}
	return txs, nil
}

// fanOut runs clients concurrent copies of run against the gateway and
// reports throughput, latency percentiles and how many clients' lineage
// checks passed.
func fanOut(url string, clients int, run func(c *rpcClient, id int, latency *obs.Histogram) (int, bool, error)) (*loadReport, error) {
	var (
		latency  obs.Histogram
		wg       sync.WaitGroup
		errs     = make([]error, clients)
		txCounts = make([]int, clients)
		verified = make([]bool, clients)
	)
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			txCounts[i], verified[i], errs[i] = run(newRPCClient(url), i, &latency)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	report := &loadReport{Clients: clients, Elapsed: elapsed, P50: latency.Quantile(0.5), P99: latency.Quantile(0.99)}
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			return nil, fmt.Errorf("client %d: %w", i, errs[i])
		}
		report.Txs += txCounts[i]
		if verified[i] {
			report.Provenance++
		}
	}
	report.TPS = float64(report.Txs) / elapsed.Seconds()
	return report, nil
}

// runTransferLoad fans clients concurrent plain-transfer streams at the
// gateway. A transfer client has no lineage to check and counts as
// verified, so the caller's provenance check passes.
func runTransferLoad(url string, clients, txPerClient int) (*loadReport, error) {
	return fanOut(url, clients, func(c *rpcClient, id int, latency *obs.Histogram) (int, bool, error) {
		txs, err := runTransferClient(c, id, txPerClient, latency)
		return txs, true, err
	})
}

// runLoad fans clients concurrent exchange flows at the gateway.
func runLoad(url string, fx *exchangeFixture, clients int) (*loadReport, error) {
	return fanOut(url, clients, func(c *rpcClient, id int, latency *obs.Histogram) (int, bool, error) {
		return runClient(c, id, fx, latency)
	})
}
