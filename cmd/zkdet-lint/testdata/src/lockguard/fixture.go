// Package fixture seeds positive and negative cases for the lockguard
// analyzer: fields annotated "guarded by mu" must be accessed under the
// named mutex.
package fixture

import "sync"

// Counter is the annotated struct under test.
type Counter struct {
	mu sync.Mutex
	// guarded by mu
	n int
	// guarded by mu
	names map[string]int

	unguarded int
}

// RW exercises RWMutex and a trailing-comment annotation.
type RW struct {
	mu   sync.RWMutex
	data []int // guarded by mu
}

// badRead reads a guarded field lock-free.
func badRead(c *Counter) int {
	return c.n // want "c.n is guarded by c.mu"
}

// badWrite writes one lock-free.
func badWrite(c *Counter) {
	c.n++ // want "c.n is guarded by c.mu"
}

// badAfterUnlock touches the field after releasing.
func badAfterUnlock(c *Counter) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.names["x"]++ // want "c.names is guarded by c.mu"
}

// badBranchLeak releases in one arm and still falls through to an access.
func badBranchLeak(c *Counter, cond bool) {
	c.mu.Lock()
	if cond {
		c.mu.Unlock()
	} else {
		c.n++
	}
	c.n++ // want "c.n is guarded by c.mu"
	c.mu.Unlock()
}

// badGoroutine captures the receiver into an unlocked goroutine.
func badGoroutine(c *Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want "c.n is guarded by c.mu"
	}()
}

// Negative cases.

// goodLocked holds the lock across the access.
func goodLocked(c *Counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n
}

// goodEarlyReturn unlocks on the bail-out path only; the fall-through still
// holds the lock.
func goodEarlyReturn(c *Counter, stop bool) {
	c.mu.Lock()
	if stop {
		c.mu.Unlock()
		return
	}
	c.n++
	c.mu.Unlock()
}

// goodRLock accepts a read lock for reads.
func goodRLock(r *RW) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.data)
}

// bumpLocked is exempt by naming convention: the caller holds c.mu.
func bumpLocked(c *Counter) {
	c.n++
}

// bumpDocumented is exempt by doc convention; caller holds c.mu.
func bumpDocumented(c *Counter) {
	c.n++
}

// NewCounter initializes guarded fields before the value is shared.
func NewCounter() *Counter {
	c := &Counter{names: make(map[string]int)}
	c.n = 1
	return c
}

// unguardedAccess is free to touch unannotated fields.
func unguardedAccess(c *Counter) int {
	return c.unguarded
}

// goodClosureLocks shows a literal that takes the lock for itself.
func goodClosureLocks(c *Counter) func() {
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.n++
	}
}

// Commit-phase cases, modeled on a two-phase batch executor (the shape the
// chain's removed speculative engine had, kept as the analyzer's hardest
// input): speculation workers run lock-free over frozen pre-state, then a single
// commit phase applies effects under the engine lock, leaning on the two
// annotation escapes ("Locked" suffix, "caller holds" doc) for its helpers.

// Engine is the two-phase executor shape: both maps belong to the commit
// phase and carry commit-phase locking annotations.
type Engine struct {
	mu sync.Mutex
	// guarded by mu; written only by the commit phase, in batch order
	state map[string]int
	// guarded by mu; effects awaiting commit-time validation
	pending []int
}

// badSpeculativeCommit applies an effect without entering the commit phase.
func badSpeculativeCommit(e *Engine) {
	e.state["x"] = 1 // want "e.state is guarded by e.mu"
}

// badWorkerLeak is the bug the commit-phase convention exists to prevent: a
// speculation worker (a goroutine literal, analyzed lock-free) touching
// commit-phase state directly instead of its own overlay.
func badWorkerLeak(e *Engine) {
	go func() {
		e.pending = nil // want "e.pending is guarded by e.mu"
	}()
}

// applyLocked is the commit-phase helper convention: the "Locked" suffix
// asserts the caller already holds e.mu, so its accesses pass unflagged.
func applyLocked(e *Engine, k string, v int) {
	e.state[k] = v
	e.pending = e.pending[:0]
}

// validateEffect runs inside the commit loop; caller holds e.mu for the
// whole validate-and-apply sequence.
func validateEffect(e *Engine, i int) bool {
	return i < len(e.pending)
}

// goodCommitPhase drives the canonical sequence: one lock acquisition spans
// validation, Locked helpers, and direct writes; workers spawned after the
// commit re-lock for themselves.
func goodCommitPhase(e *Engine, ks []string) {
	e.mu.Lock()
	for i, k := range ks {
		if !validateEffect(e, i) {
			continue
		}
		applyLocked(e, k, i)
		e.state[k] = i
	}
	e.mu.Unlock()
	go func() {
		e.mu.Lock()
		e.state["sealed"] = 1
		e.mu.Unlock()
	}()
}

// txOverlay is the per-transaction view shape: it reaches the engine's
// guarded maps through a stored pointer, so its accesses are two-level
// selectors (v.e.state) outside lockguard's single-receiver scope. The
// engine documents those paths with "caller holds" comments instead; this
// pins that the analyzer stays silent rather than guessing.
type txOverlay struct{ e *Engine }

// baseRead reads through to committed state; caller holds e.mu (documented,
// not analyzable — the access below must not be flagged).
func (v *txOverlay) baseRead(k string) int {
	return v.e.state[k]
}
