package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/contracts"
)

// TestGatewayFireAndForgetAutoNonce: a wait:false transaction with
// autoNonce takes the next free nonce like a waited one, so two in a row
// from one sender are both admitted and both sealed.
func TestGatewayFireAndForgetAutoNonce(t *testing.T) {
	_, c := bootServer(t, testCfg())
	if err := c.call(rpcFaucet, faucetParams{Address: "alice", Amount: 10_000}, nil); err != nil {
		t.Fatal(err)
	}
	var hashes []string
	for i := 0; i < 2; i++ {
		var res txResult
		if err := c.call(rpcSendTransaction, txParams{From: "alice", To: "bob", Value: 1, AutoNonce: true}, &res); err != nil {
			t.Fatalf("fire-and-forget transfer %d: %v", i, err)
		}
		hashes = append(hashes, res.TxHash)
	}
	// A waited transfer from the same sender takes the nonce after both, so
	// once it is sealed they are too.
	if _, err := c.sendWait(txParams{From: "alice", To: "bob", Value: 1}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hashes {
		var rec txResult
		if err := c.call(rpcReceipt, receiptParams{TxHash: h}, &rec); err != nil || rec.Reverted != "" {
			t.Fatalf("fire-and-forget transfer %d not included: %v %+v", i, err, rec)
		}
	}
}

// TestGatewayBodyLimit: a request body of exactly the limit is served; one
// byte more is refused with 413 rather than cut short and misparsed.
func TestGatewayBodyLimit(t *testing.T) {
	_, c := bootServer(t, testCfg())
	call := wireCall(rpcBlockNumber, "")
	for _, tc := range []struct {
		size int
		want int
	}{{maxBodyBytes, http.StatusOK}, {maxBodyBytes + 1, http.StatusRequestEntityTooLarge}} {
		body := append(bytes.Repeat([]byte(" "), tc.size-len(call)), call...)
		status, env := postWire(t, c, string(body))
		if status != tc.want || (status == http.StatusOK && env.Error != nil) {
			t.Fatalf("%d-byte body: HTTP %d (%+v), want %d", tc.size, status, env.Error, tc.want)
		}
	}
}

// serveBody runs one request body through h, giving a waited transaction a
// second to be sealed.
func serveBody(h http.Handler, body []byte) *httptest.ResponseRecorder {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)).WithContext(ctx))
	return rec
}

// FuzzGatewayRequest sends arbitrary bytes as a request body to one daemon
// per fuzz process, holding a token minted in block 2 so that reads have
// something to find. Whatever arrives, the gateway must not panic and must answer with a
// JSON-RPC envelope (exactly one of result and error) or a 4xx.
func FuzzGatewayRequest(f *testing.F) {
	srv, err := newServer(testCfg())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.close)
	h := srv.handler()
	mint, err := json.Marshal(txParams{
		From: "alice", Contract: contracts.DataNFTName, Method: "mint",
		Args: hexBytes(contracts.EncodeArgs([]byte("u"), []byte("c"))), AutoNonce: true, Wait: true,
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{
		wireCall(rpcFaucet, `{"address":"alice","amount":1000000}`),
		wireCall(rpcSendTransaction, `{"from":"alice","to":"bob","value":1,"autoNonce":true,"wait":true}`),
		wireCall(rpcSendTransaction, string(mint)),
	} {
		if rec := serveBody(h, []byte(body)); bytes.Contains(rec.Body.Bytes(), []byte(`"error"`)) {
			f.Fatalf("setting up: %s", rec.Body)
		}
	}
	events := func(from, to int) string {
		return wireCall(rpcEvents, fmt.Sprintf(`{"contract":%q,"name":"Transfer","fromBlock":%d,"toBlock":%d,"limit":5}`,
			contracts.DataNFTName, from, to))
	}

	for _, body := range []string{
		wireCall(rpcReceipt, `{"txHash":"0x0000000000000000000000000000000000000000000000000000000000000001"}`),
		wireCall(rpcBlockNumber, ""),
		events(1, 9),
		events(3, 1),
		wireCall(rpcProvenance, `{"tokenId":1}`),
		wireCall(rpcExchange, `{"id":1}`),
		wireCall(rpcStats, `{}`),
		wireCall(rpcNextNonce, `{"address":"alice"}`),
		wireCall(rpcStorageGet, `{"uri":"0x0000000000000000000000000000000000000000000000000000000000000000"}`),
		wireCall(rpcCTNote, `{"id":1}`),
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serveBody(h, body)
		if rec.Code >= 400 && rec.Code < 500 {
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
		var env wireEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("not a JSON-RPC envelope: %v: %s", err, rec.Body)
		}
		if env.JSONRPC != "2.0" || (env.Result == nil) == (env.Error == nil) {
			t.Fatalf("malformed envelope: %s", rec.Body)
		}
	})
}
