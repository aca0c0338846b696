package node

import (
	"sync"

	"github.com/zkdet/zkdet/internal/chain"
)

// BlockNotification announces a sealed block with its receipts, in height
// order.
type BlockNotification struct {
	Block    chain.Block
	Receipts []*chain.Receipt
}

// Subscription delivers notifications of type T in publish order on C. The
// internal queue is unbounded so slow consumers never block the sealer;
// call Unsubscribe to release it.
type Subscription[T any] struct {
	C <-chan T

	mu     sync.Mutex
	cond   *sync.Cond // set once in the constructor
	queue  []T        // guarded by mu
	closed bool       // guarded by mu
	done   chan struct{}
	once   sync.Once
}

func newSubscription[T any]() *Subscription[T] {
	s := &Subscription[T]{done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	ch := make(chan T)
	s.C = ch
	go s.pump(ch)
	return s
}

func (s *Subscription[T]) push(v T) {
	s.mu.Lock()
	if !s.closed {
		s.queue = append(s.queue, v)
		s.cond.Signal()
	}
	s.mu.Unlock()
}

func (s *Subscription[T]) pump(ch chan T) {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.mu.Unlock()
			close(ch)
			return
		}
		v := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		select {
		case ch <- v:
		case <-s.done:
			close(ch)
			return
		}
	}
}

// Unsubscribe stops delivery, drops queued items, and closes C even if the
// consumer has stopped reading.
func (s *Subscription[T]) Unsubscribe() {
	s.mu.Lock()
	s.closed = true
	s.queue = nil
	s.cond.Signal()
	s.mu.Unlock()
	s.once.Do(func() { close(s.done) })
}

// Bus fans sealed blocks, with their receipts, out to subscribers. Clients
// wait on inclusion through subscriptions instead of polling the chain; a
// consumer that wants events reads them from the receipts, or queries the
// indexer.
type Bus struct {
	mu        sync.Mutex
	blockSubs map[*Subscription[BlockNotification]]struct{} // guarded by mu
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{blockSubs: make(map[*Subscription[BlockNotification]]struct{})}
}

// SubscribeBlocks delivers every sealed block in height order.
func (b *Bus) SubscribeBlocks() *Subscription[BlockNotification] {
	s := newSubscription[BlockNotification]()
	b.mu.Lock()
	b.blockSubs[s] = struct{}{}
	b.mu.Unlock()
	return s
}

// Unsubscribe removes a block subscription.
func (b *Bus) UnsubscribeBlocks(s *Subscription[BlockNotification]) {
	b.mu.Lock()
	delete(b.blockSubs, s)
	b.mu.Unlock()
	s.Unsubscribe()
}

// publish fans one sealed block out to all subscribers. Called from the
// chain's seal hook, so ordering follows block height.
func (b *Bus) publish(blk chain.Block, receipts []*chain.Receipt) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := BlockNotification{Block: blk, Receipts: receipts}
	for s := range b.blockSubs {
		s.push(n)
	}
}
