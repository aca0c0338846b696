package chain

import (
	"testing"
	"time"
)

// fixedClock returns a clock that starts at base and advances by step on
// every call — deterministic but monotone, like a real node's clock.
func fixedClock(base time.Time, step time.Duration) func() time.Time {
	t := base
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

// TestReplayIdenticalUnderDifferentClocks is the determinism contract
// behind the injected chain clock (the detreplay analyzer's sanctioned
// escape hatch): two nodes replaying the same transactions under wildly
// different wall clocks must reach identical state roots and block
// hashes, because timestamps are excluded from both. Only the Time field
// itself — which is informational, never hashed — may differ.
func TestReplayIdenticalUnderDifferentClocks(t *testing.T) {
	run := func(clock func() time.Time) *Chain {
		c := NewWithClock(clock)
		alice := AddressFromString("alice")
		c.Faucet(alice, 1_000_000)
		if _, err := c.Deploy("counter", &counter{beneficiary: alice}, 1000); err != nil {
			t.Fatal(err)
		}
		for n := uint64(0); n < 3; n++ {
			if _, err := produce(c, Transaction{From: alice, Contract: "counter", Method: "inc", Nonce: n}); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}

	c1 := run(fixedClock(time.Unix(1_000_000, 0), time.Second))
	c2 := run(fixedClock(time.Unix(9_999_999, 0), time.Hour))

	if c1.Height() != c2.Height() {
		t.Fatalf("heights diverge: %d vs %d", c1.Height(), c2.Height())
	}
	for i := range c1.blocks {
		b1, b2 := c1.blocks[i], c2.blocks[i]
		if b1.StateRoot != b2.StateRoot {
			t.Errorf("block %d: state roots diverge under different clocks", i)
		}
		if b1.hash() != b2.hash() {
			t.Errorf("block %d: block hashes diverge under different clocks", i)
		}
		if b1.Time.Equal(b2.Time) {
			t.Errorf("block %d: timestamps coincide; the fixture clocks should differ", i)
		}
	}
}

// TestNewUsesWallClock pins New's production default: the genesis
// timestamp comes from the real clock, within a loose sanity window.
func TestNewUsesWallClock(t *testing.T) {
	before := time.Now().Add(-time.Minute)
	c := New()
	after := time.Now().Add(time.Minute)
	g := c.blocks[0].Time
	if g.Before(before) || g.After(after) {
		t.Fatalf("genesis time %v outside [%v, %v]", g, before, after)
	}
}
