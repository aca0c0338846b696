package p2p

import (
	"sync"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
)

// collector is a test endpoint that records deliveries.
type collector struct {
	mu   sync.Mutex
	got  []Message
	from []NodeID
}

func (c *collector) handle(from NodeID, msg Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, msg)
	c.from = append(c.from, from)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached before timeout")
}

func TestSimNetDeliversInOrder(t *testing.T) {
	net := NewSimNet(nil, 1)
	defer net.Close()
	var c collector
	if err := net.Attach("a", func(NodeID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach("b", c.handle); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := net.Send("a", "b", Message{Kind: MsgStatus, Height: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, time.Second, func() bool { return c.count() == 10 })
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.got {
		if m.Height != uint64(i) {
			t.Fatalf("delivery %d has height %d — reordered on a zero-latency link", i, m.Height)
		}
	}
}

func TestSimNetPartitionAndHeal(t *testing.T) {
	plan := NewFaultPlan(LinkProfile{})
	net := NewSimNet(plan, 1)
	defer net.Close()
	var c collector
	net.Attach("a", func(NodeID, Message) {})
	net.Attach("b", c.handle)

	plan.Partition([]NodeID{"a"}, []NodeID{"b"})
	net.Send("a", "b", Message{Kind: MsgStatus})
	time.Sleep(20 * time.Millisecond)
	if c.count() != 0 {
		t.Fatal("message crossed a partition")
	}
	_, _, dropped, _ := net.Stats()
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}

	plan.Heal()
	net.Send("a", "b", Message{Kind: MsgStatus})
	waitFor(t, time.Second, func() bool { return c.count() == 1 })
}

func TestSimNetDeterministicDrops(t *testing.T) {
	run := func(seed int64) uint64 {
		plan := NewFaultPlan(LinkProfile{DropRate: 0.5})
		net := NewSimNet(plan, seed)
		defer net.Close()
		net.Attach("a", func(NodeID, Message) {})
		net.Attach("b", func(NodeID, Message) {})
		for i := 0; i < 200; i++ {
			net.Send("a", "b", Message{Kind: MsgStatus})
		}
		_, _, dropped, _ := net.Stats()
		return dropped
	}
	d1, d2 := run(42), run(42)
	if d1 != d2 {
		t.Fatalf("same seed, different drops: %d vs %d", d1, d2)
	}
	if d1 == 0 || d1 == 200 {
		t.Fatalf("drop rate 0.5 dropped %d of 200", d1)
	}
	if d3 := run(43); d3 == d1 {
		t.Logf("different seeds coincided (%d) — unlikely but legal", d3)
	}
}

func TestSimNetCrashedNode(t *testing.T) {
	plan := NewFaultPlan(LinkProfile{})
	net := NewSimNet(plan, 1)
	defer net.Close()
	var c collector
	net.Attach("a", func(NodeID, Message) {})
	net.Attach("b", c.handle)
	plan.SetDown("b", true)
	net.Send("a", "b", Message{Kind: MsgStatus})
	time.Sleep(20 * time.Millisecond)
	if c.count() != 0 {
		t.Fatal("down node received a message")
	}
	plan.SetDown("b", false)
	net.Send("a", "b", Message{Kind: MsgStatus})
	waitFor(t, time.Second, func() bool { return c.count() == 1 })
}

func TestFaultPlanLinkOverride(t *testing.T) {
	plan := NewFaultPlan(LinkProfile{Latency: time.Millisecond})
	plan.SetLink("a", "b", LinkProfile{DropRate: 1})
	if _, ok := plan.admit("a", "b"); !ok {
		t.Fatal("override should still admit (drop happens in transport)")
	}
	if prof, _ := plan.admit("a", "b"); prof.DropRate != 1 {
		t.Fatal("override not applied")
	}
	if prof, _ := plan.admit("b", "a"); prof.Latency != time.Millisecond {
		t.Fatal("reverse direction should use default")
	}
}

func TestSeenCacheEviction(t *testing.T) {
	s := newSeenCache(3)
	h := func(b byte) chain.Hash { return chain.Hash{b} }
	for b := byte(1); b <= 3; b++ {
		if !s.add(h(b)) {
			t.Fatalf("fresh hash %d reported seen", b)
		}
	}
	if s.add(h(1)) {
		t.Fatal("cached hash reported fresh")
	}
	// Capacity 3: adding a 4th evicts the oldest (1).
	if !s.add(h(4)) {
		t.Fatal("fresh hash 4 reported seen")
	}
	if !s.add(h(1)) {
		t.Fatal("evicted hash not re-addable")
	}
	if s.add(h(3)) {
		t.Fatal("hash 3 should still be cached")
	}
}

// SetLink overrides the profile of one directed link.
func (p *FaultPlan) SetLink(from, to NodeID, prof LinkProfile) {
	p.mu.Lock()
	p.links[linkKey{from, to}] = prof
	p.mu.Unlock()
}
