package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// wireEnvelope is a JSON-RPC response as it crosses the wire.
type wireEnvelope struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Result  json.RawMessage `json:"result"`
	Error   *rpcError       `json:"error"`
}

// postWire sends body to the gateway and returns the HTTP status and, for a
// 200, the decoded envelope.
func postWire(t *testing.T, c *rpcClient, body string) (int, wireEnvelope) {
	t.Helper()
	resp, err := c.http.Post(c.url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env wireEnvelope
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("decoding the envelope: %v", err)
		}
	}
	return resp.StatusCode, env
}

// wireCall is one request body: method plus params; params "" sends none.
func wireCall(method, params string) string {
	if params == "" {
		return `{"jsonrpc":"2.0","id":1,"method":"` + method + `"}`
	}
	return `{"jsonrpc":"2.0","id":1,"method":"` + method + `","params":` + params + `}`
}

// TestGatewayWire pins what every method answers on the wire when its
// params are absent, of the wrong type, or well-formed but unacceptable: the
// JSON-RPC code and the exact message, echoed under the request's id. It
// also pins the envelope-level refusals (parse error, unknown method, GET)
// and that the two parameterless reads need no params at all.
func TestGatewayWire(t *testing.T) {
	_, c := bootServer(t, testCfg())

	const (
		missing  = "missing params"
		disabled = "core: confidential tokens not enabled on this marketplace"
	)
	cases := []struct {
		method, params string
		code           int
		msg            string
	}{
		{"zkdet_sendTransaction", "", -32602, missing},
		{"zkdet_sendTransaction", `"x"`, -32602, "json: cannot unmarshal string into Go value of type main.txParams"},
		{"zkdet_sendTransaction", `{"from":"alice","args":"0xzz"}`, -32602, "encoding/hex: invalid byte: U+007A 'z'"},

		{"zkdet_receipt", "", -32602, missing},
		{"zkdet_receipt", `"x"`, -32602, `json: cannot unmarshal string into Go value of type struct { TxHash string "json:\"txHash\"" }`},
		{"zkdet_receipt", `{"txHash":"0x` + strings.Repeat("00", 32) + `"}`, -32000, "unknown transaction"},

		{"zkdet_events", "", -32602, missing},
		{"zkdet_events", `"x"`, -32602, "json: cannot unmarshal string into Go value of type main.eventsParams"},
		{"zkdet_events", `{"contract":"c","name":"n","topic":"0xzz"}`, -32602, "encoding/hex: invalid byte: U+007A 'z'"},

		{"zkdet_provenance", "", -32602, missing},
		{"zkdet_provenance", `"x"`, -32602, `json: cannot unmarshal string into Go value of type struct { TokenID uint64 "json:\"tokenId\"" }`},
		{"zkdet_provenance", `{"tokenId":999}`, -32000, "indexer: unknown token: 999"},

		{"zkdet_exchange", "", -32602, missing},
		{"zkdet_exchange", `"x"`, -32602, `json: cannot unmarshal string into Go value of type struct { ID uint64 "json:\"id\"" }`},
		{"zkdet_exchange", `{"id":999}`, -32000, "indexer: unknown exchange 999"},

		{"zkdet_faucet", "", -32602, missing},
		{"zkdet_faucet", `"x"`, -32602, `json: cannot unmarshal string into Go value of type struct { Address string "json:\"address\""; Amount uint64 "json:\"amount\"" }`},
		{"zkdet_faucet", `{"address":"0xzz","amount":1}`, -32602, `chain: bad address "zz"`},

		{"zkdet_nextNonce", "", -32602, missing},
		{"zkdet_nextNonce", `"x"`, -32602, `json: cannot unmarshal string into Go value of type struct { Address string "json:\"address\"" }`},
		{"zkdet_nextNonce", `{"address":"0xzz"}`, -32602, `chain: bad address "zz"`},

		{"zkdet_storagePut", "", -32602, missing},
		{"zkdet_storagePut", `"x"`, -32602, `json: cannot unmarshal string into Go value of type struct { Owner string "json:\"owner\""; Data string "json:\"data\"" }`},
		{"zkdet_storagePut", `{"owner":"alice","data":"0xzz"}`, -32602, "encoding/hex: invalid byte: U+007A 'z'"},

		{"zkdet_storageGet", "", -32602, missing},
		{"zkdet_storageGet", `"x"`, -32602, `json: cannot unmarshal string into Go value of type struct { URI string "json:\"uri\"" }`},
		{"zkdet_storageGet", `{"uri":"0x00"}`, -32602, "uri must be 32 bytes"},
		{"zkdet_storageGet", `{"uri":"0x` + strings.Repeat("00", 32) + `"}`, -32000, "storage: content not found: " + strings.Repeat("00", 32)},

		{"zkdet_ctEnable", "", -32602, missing},
		{"zkdet_ctEnable", `"x"`, -32602, `json: cannot unmarshal string into Go value of type struct { Issuer string "json:\"issuer\""; AuditorPub string "json:\"auditorPub\"" }`},
		{"zkdet_ctEnable", `{"issuer":"issuer","auditorPub":"0x00"}`, -32602, "auditorPub: ct: malformed commitment: bn254: g1 encoding must be 64 bytes, got 1"},

		{"zkdet_ctMint", "", -32602, missing},
		{"zkdet_ctMint", `"x"`, -32602, `json: cannot unmarshal string into Go value of type struct { Pays []main.ctPayIn "json:\"pays\"" }`},
		{"zkdet_ctMint", `{"pays":[{"value":1,"to":"alice"}]}`, -32000, disabled},

		{"zkdet_ctTransfer", "", -32602, missing},
		{"zkdet_ctTransfer", `"x"`, -32602, `json: cannot unmarshal string into Go value of type struct { Sender string "json:\"sender\""; Inputs []struct { ID uint64 "json:\"id\""; Value uint64 "json:\"value\""; Blinder string "json:\"blinder\"" } "json:\"inputs\""; Pays []main.ctPayIn "json:\"pays\"" }`},
		{"zkdet_ctTransfer", `{"sender":"alice","inputs":[],"pays":[]}`, -32000, disabled},

		{"zkdet_ctNote", "", -32602, missing},
		{"zkdet_ctNote", `"x"`, -32602, `json: cannot unmarshal string into Go value of type struct { ID uint64 "json:\"id\"" }`},
		{"zkdet_ctNote", `{"id":7}`, -32000, "contracts: unknown confidential note: 7"},

		{"zkdet_ctAudit", "", -32602, missing},
		{"zkdet_ctAudit", `"x"`, -32602, `json: cannot unmarshal string into Go value of type struct { AuditorSecret string "json:\"auditorSecret\""; NoteID uint64 "json:\"noteId\""; TokenID uint64 "json:\"tokenId\"" }`},
		{"zkdet_ctAudit", `{"auditorSecret":"0x01"}`, -32000, disabled},

		{"zkdet_nope", `{}`, -32601, `unknown method "zkdet_nope"`},
	}
	for _, tc := range cases {
		status, env := postWire(t, c, wireCall(tc.method, tc.params))
		if status != http.StatusOK {
			t.Fatalf("%s %s: HTTP %d", tc.method, tc.params, status)
		}
		if env.JSONRPC != "2.0" || string(env.ID) != "1" || env.Result != nil || env.Error == nil {
			t.Fatalf("%s %s: envelope %+v", tc.method, tc.params, env)
		}
		if env.Error.Code != tc.code || env.Error.Message != tc.msg {
			t.Errorf("%s %s: got %d %q, want %d %q", tc.method, tc.params, env.Error.Code, env.Error.Message, tc.code, tc.msg)
		}
	}

	// The two parameterless reads answer with params absent or of any type.
	for _, method := range []string{"zkdet_blockNumber", "zkdet_stats"} {
		for _, params := range []string{"", `"x"`, `{}`} {
			status, env := postWire(t, c, wireCall(method, params))
			if status != http.StatusOK || env.Error != nil || len(env.Result) == 0 || string(env.ID) != "1" {
				t.Fatalf("%s %s: HTTP %d, envelope %+v", method, params, status, env)
			}
		}
	}

	// A body that is not JSON is a parse error with a null id.
	status, env := postWire(t, c, `{"jsonrpc":`)
	if status != http.StatusOK || env.Error == nil || env.Error.Code != -32700 ||
		env.Error.Message != "unexpected end of JSON input" || string(env.ID) != "null" {
		t.Fatalf("parse error: HTTP %d, envelope %+v (id %s)", status, env, env.ID)
	}

	resp, err := c.http.Get(c.url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET answered %d, want 405", resp.StatusCode)
	}
}
