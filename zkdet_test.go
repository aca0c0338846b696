package zkdet

import (
	"bytes"
	"sync"
	"testing"

	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/kzg"
)

// The public-API smoke test: everything a downstream user touches in the
// README quickstart must work through the exported surface alone.

var apiSys = sync.OnceValue(func() *System {
	// Deterministic system for speed; NewSystem (random SRS) is covered by
	// TestNewSystemRandom.
	s, err := core.NewTestSystem(1 << 13)
	if err != nil {
		panic(err)
	}
	return s
})

func TestNewSystemRandom(t *testing.T) {
	sys, err := NewSystem(64)
	if err != nil {
		t.Fatal(err)
	}
	if sys.SRS().MaxDegree() < 64 {
		t.Fatal("SRS too small")
	}
}

func TestNewSystemFromCeremony(t *testing.T) {
	cer, err := kzg.NewCeremony(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := cer.Contribute([]byte("party-1")); err != nil {
		t.Fatal(err)
	}
	if err := cer.Contribute([]byte("party-2")); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemFromCeremony(cer)
	if err != nil {
		t.Fatal(err)
	}
	if sys == nil {
		t.Fatal("nil system")
	}
	// A ceremony with no contributions must fail.
	empty, err := kzg.NewCeremony(32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystemFromCeremony(empty); err == nil {
		t.Fatal("empty ceremony accepted")
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end skipped in -short mode")
	}
	sys := apiSys()
	m, gas, err := NewMarketplace(sys)
	if err != nil {
		t.Fatal(err)
	}
	if gas.DataNFT == 0 || gas.Verifier == 0 {
		t.Fatal("no deployment gas recorded")
	}

	alice := AddressFromString("alice")
	bob := AddressFromString("bob")
	m.Chain.Faucet(bob, 100_000)

	raw := []byte("readings: 3 5 8 13 21")
	data := EncodeBytes(raw)
	asset, err := m.MintAsset(alice, "alice", data, RandomKey())
	if err != nil {
		t.Fatal(err)
	}

	// Sell it through the escrow; bob ends up with the exact bytes.
	got, err := m.SellViaEscrow(1, alice, bob, asset, TruePredicate{}, 1234)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBytes(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, raw) {
		t.Fatalf("buyer decoded %q", back)
	}
}

func TestScalarHelpers(t *testing.T) {
	a := NewScalar(7)
	b := NewScalar(7)
	if !a.Equal(&b) {
		t.Fatal("NewScalar not deterministic")
	}
	k1, k2 := RandomKey(), RandomKey()
	if k1.Equal(&k2) {
		t.Fatal("random keys repeat")
	}
}

func TestEncodeDecodeBytesAPI(t *testing.T) {
	in := []byte("api round trip")
	out, err := DecodeBytes(EncodeBytes(in))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatal("byte round trip failed")
	}
}
