package p2p

import (
	"sync"
	"time"
)

// LinkProfile describes the quality of one directed link: base propagation
// latency, uniform jitter added on top, independent per-message drop
// probability, and a bandwidth cap that serializes large messages.
// Zero values mean instant, lossless, unbounded.
type LinkProfile struct {
	Latency     time.Duration
	Jitter      time.Duration
	DropRate    float64
	BytesPerSec int // 0 = unlimited
}

// FaultPlan decides, per message, whether and how a directed link delivers.
// It is mutable mid-run: tests and demos inject partitions, degrade links,
// and heal them while traffic is flowing. Safe for concurrent use.
type FaultPlan struct {
	mu    sync.Mutex
	def   LinkProfile             // guarded by mu
	links map[linkKey]LinkProfile // guarded by mu; per-link overrides
	group map[NodeID]int          // guarded by mu; partition group per node
	downs map[NodeID]bool         // guarded by mu; crashed nodes
}

type linkKey struct{ from, to NodeID }

// NewFaultPlan returns a plan where every link uses def and nothing is
// partitioned or down.
func NewFaultPlan(def LinkProfile) *FaultPlan {
	return &FaultPlan{
		def:   def,
		links: make(map[linkKey]LinkProfile),
		group: make(map[NodeID]int),
		downs: make(map[NodeID]bool),
	}
}

// SetDefault replaces the profile used by links without an override.
func (p *FaultPlan) SetDefault(def LinkProfile) {
	p.mu.Lock()
	p.def = def
	p.mu.Unlock()
}

// Partition splits the cluster: messages cross group boundaries only as
// drops. Nodes not listed in any group form an implicit extra group
// together. Calling Partition replaces any previous partition.
func (p *FaultPlan) Partition(groups ...[]NodeID) {
	p.mu.Lock()
	p.group = make(map[NodeID]int)
	for i, g := range groups {
		for _, id := range g {
			p.group[id] = i + 1
		}
	}
	p.mu.Unlock()
}

// Heal removes all partitions (link profiles and down nodes are kept).
func (p *FaultPlan) Heal() {
	p.mu.Lock()
	p.group = make(map[NodeID]int)
	p.mu.Unlock()
}

// SetDown marks a node crashed (true) or recovered (false); a down node
// neither sends nor receives.
func (p *FaultPlan) SetDown(id NodeID, down bool) {
	p.mu.Lock()
	if down {
		p.downs[id] = true
	} else {
		delete(p.downs, id)
	}
	p.mu.Unlock()
}

// KillAndRestart crash-faults a node: the returned restart function brings
// it back up (idempotently). Between the two calls the node neither sends
// nor receives — exactly a SIGKILL'd process from the cluster's point of
// view. The caller is responsible for actually crashing the member's stack
// (e.g. DurableStore.Crash) and rebuilding it from its data dir before
// restarting; the plan only controls the network's view.
func (p *FaultPlan) KillAndRestart(id NodeID) (restart func()) {
	p.SetDown(id, true)
	var once sync.Once
	return func() {
		once.Do(func() { p.SetDown(id, false) })
	}
}

// admit returns the effective profile for a directed link and whether the
// message may traverse it at all (partition and crash checks).
func (p *FaultPlan) admit(from, to NodeID) (LinkProfile, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.downs[from] || p.downs[to] {
		return LinkProfile{}, false
	}
	// group 0 is the implicit "everyone unlisted" group.
	if p.group[from] != p.group[to] {
		return LinkProfile{}, false
	}
	if prof, ok := p.links[linkKey{from, to}]; ok {
		return prof, true
	}
	return p.def, true
}
