package p2p

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// SimNet is the in-memory Transport: a simulated network whose behaviour is
// governed by a FaultPlan. Deliveries are delayed by latency + seeded
// jitter + bandwidth serialization, dropped with the link's probability,
// and blocked across partitions. Every endpoint has a dispatcher goroutine
// that invokes its Handler sequentially in delivery order, so handlers
// need no internal serialization against themselves.
//
// Determinism: all randomness (drops, jitter) comes from one seeded
// source, so two runs with the same seed, plan mutations, and traffic
// interleaving make the same drop decisions. Goroutine scheduling still
// varies timing, so tests assert convergence, not exact traces.
type SimNet struct {
	plan *FaultPlan

	mu     sync.Mutex
	rng    *rand.Rand            // guarded by mu
	eps    map[NodeID]*endpoint  // guarded by mu
	busy   map[linkKey]time.Time // guarded by mu; per-link bandwidth horizon
	closed bool                  // guarded by mu

	// Traffic counters, guarded by mu.
	sent      uint64 // guarded by mu
	delivered uint64 // guarded by mu
	dropped   uint64 // guarded by mu
	bytesSent uint64 // guarded by mu
}

type endpoint struct {
	id      NodeID
	handler Handler

	mu     sync.Mutex
	queue  []delivery    // guarded by mu
	wake   chan struct{} // 1-buffered dispatcher doorbell
	closed bool          // guarded by mu
}

type delivery struct {
	from NodeID
	msg  Message
}

// NewSimNet builds a simulated network with the given fault plan and
// deterministic seed. A nil plan means a perfect network.
func NewSimNet(plan *FaultPlan, seed int64) *SimNet {
	if plan == nil {
		plan = NewFaultPlan(LinkProfile{})
	}
	return &SimNet{
		plan: plan,
		rng:  rand.New(rand.NewSource(seed)),
		eps:  make(map[NodeID]*endpoint),
		busy: make(map[linkKey]time.Time),
	}
}

// Plan exposes the fault plan for mid-run mutation.
func (n *SimNet) Plan() *FaultPlan { return n.plan }

// Attach registers an endpoint and starts its dispatcher.
func (n *SimNet) Attach(id NodeID, h Handler) error {
	ep := &endpoint{id: id, handler: h, wake: make(chan struct{}, 1)}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("p2p: simnet closed")
	}
	if _, dup := n.eps[id]; dup {
		n.mu.Unlock()
		return fmt.Errorf("p2p: endpoint %s already attached", id)
	}
	n.eps[id] = ep
	n.mu.Unlock()
	go ep.dispatch()
	return nil
}

// Detach removes an endpoint; its queued deliveries are discarded and its
// dispatcher exits.
func (n *SimNet) Detach(id NodeID) {
	n.mu.Lock()
	ep := n.eps[id]
	delete(n.eps, id)
	n.mu.Unlock()
	if ep != nil {
		ep.close()
	}
}

// Send schedules a delivery according to the fault plan. It never blocks:
// the message is dropped, or handed to time.AfterFunc with the computed
// delay. Sending from/to an unknown endpoint is an error; a drop is not.
func (n *SimNet) Send(from, to NodeID, msg Message) error {
	size := msg.wireSize()

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("p2p: simnet closed")
	}
	if _, ok := n.eps[from]; !ok {
		n.mu.Unlock()
		return fmt.Errorf("p2p: unknown sender %s", from)
	}
	if _, ok := n.eps[to]; !ok {
		n.mu.Unlock()
		return fmt.Errorf("p2p: unknown receiver %s", to)
	}
	n.sent++
	n.bytesSent += uint64(size)

	prof, allowed := n.plan.admit(from, to)
	if !allowed || (prof.DropRate > 0 && n.rng.Float64() < prof.DropRate) {
		n.dropped++
		n.mu.Unlock()
		return nil
	}

	delay := prof.Latency
	if prof.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(prof.Jitter)))
	}
	if prof.BytesPerSec > 0 {
		// Serialize through the link: transmission cannot start before the
		// previous message finished draining.
		xmit := time.Duration(float64(size) / float64(prof.BytesPerSec) * float64(time.Second))
		now := time.Now()
		start := now
		if horizon, ok := n.busy[linkKey{from, to}]; ok && horizon.After(start) {
			start = horizon
		}
		done := start.Add(xmit)
		n.busy[linkKey{from, to}] = done
		delay += done.Sub(now)
	}
	n.mu.Unlock()

	deliver := func() {
		n.mu.Lock()
		ep, ok := n.eps[to]
		if ok {
			n.delivered++
		}
		n.mu.Unlock()
		if ok {
			ep.enqueue(from, msg)
		}
	}
	if delay <= 0 {
		// Still asynchronous: go through the queue, never the caller's stack.
		deliver()
	} else {
		time.AfterFunc(delay, deliver)
	}
	return nil
}

// Metrics reports cumulative traffic counters under constant simnet.*
// names: messages sent, delivered and dropped, and bytes offered to the
// network.
func (n *SimNet) Metrics() map[string]float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return map[string]float64{
		"simnet.sent": float64(n.sent), "simnet.delivered": float64(n.delivered),
		"simnet.dropped": float64(n.dropped), "simnet.bytes": float64(n.bytesSent),
	}
}

// Close detaches every endpoint and rejects further sends. Deliveries
// already scheduled are discarded when they fire.
func (n *SimNet) Close() {
	n.mu.Lock()
	n.closed = true
	eps := make([]*endpoint, 0, len(n.eps))
	for _, ep := range n.eps {
		eps = append(eps, ep)
	}
	n.eps = make(map[NodeID]*endpoint)
	n.mu.Unlock()
	for _, ep := range eps {
		ep.close()
	}
}

var _ Transport = (*SimNet)(nil)

func (ep *endpoint) enqueue(from NodeID, msg Message) {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.queue = append(ep.queue, delivery{from: from, msg: msg})
	ep.mu.Unlock()
	select {
	case ep.wake <- struct{}{}:
	default:
	}
}

func (ep *endpoint) close() {
	ep.mu.Lock()
	ep.closed = true
	ep.queue = nil
	ep.mu.Unlock()
	select {
	case ep.wake <- struct{}{}:
	default:
	}
}

// dispatch drains the queue, invoking the handler outside ep.mu so the
// handler may send (and thus re-enter enqueue) freely. Handlers must not
// block waiting for responses — response-awaiting protocols run in their
// own goroutines and receive via channels the handler feeds.
func (ep *endpoint) dispatch() {
	for {
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			return
		}
		batch := ep.queue
		ep.queue = nil
		ep.mu.Unlock()
		if len(batch) == 0 {
			<-ep.wake
			continue
		}
		for _, d := range batch {
			ep.handler(d.from, d.msg)
		}
	}
}
