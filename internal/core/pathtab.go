package core

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Path handles give the steady-state admission path an integer identity
// for origin paths, so the per-packet lookup is an array index instead of
// a string-keyed map probe. A handle packs a per-router tag into the high
// bits and a 1-based dense index into the low handleIndexBits; zero means
// "no handle". Handles are minted once per path (Router.InternPath, from
// any goroutine, or the first packet's originMiss) and never recycled:
// an expired path keeps its key→handle binding so a producer-cached
// handle can never silently alias a different path, it just re-creates
// state at the same index when traffic returns.
const (
	handleIndexBits = 20
	handleIndexMask = 1<<handleIndexBits - 1
	// maxPathHandles caps the dense state array. Paths beyond it (a
	// path-churn attack regime) fall into an overflow map with the old
	// delete-on-expiry semantics, bounding memory.
	maxPathHandles = handleIndexMask
)

// routerTagCounter issues a distinct tag per pathTable so a handle minted
// by one router is rejected — not misresolved — by every other.
var routerTagCounter atomic.Uint32

// pathTable is the router's origin-path index: a dense handle-indexed
// state array for the hot path plus a key→handle map and overflow map for
// the cold path (first packet, control plane, snapshots).
//
// The key→handle map is the one place handles are minted, and producers
// mint into it concurrently with the router's own goroutine, so it sits
// behind mu. Everything else belongs to the router's goroutine: states
// grows lazily, when a minted path's first packet creates its state.
type pathTable struct {
	tag      uint32                // pre-shifted router tag, ORed into every handle
	states   []*pathState          // 0-based by handle index; nil = expired or not yet created
	overflow map[string]*pathState // beyond maxPathHandles: plain map semantics
	live     int

	mu     sync.Mutex        // guards byKey and minted; cold path only
	byKey  map[string]uint32 // key → handle; bindings are never removed
	minted int               // handles issued so far
}

func newPathTable() *pathTable {
	return &pathTable{
		tag:   routerTagCounter.Add(1) << handleIndexBits,
		byKey: map[string]uint32{},
	}
}

// byHandle resolves a handle to its live path state, or nil for foreign,
// out-of-range, or expired handles (all of which the caller treats as a
// cache miss).
// floc:hotpath
func (t *pathTable) byHandle(h uint32) *pathState {
	if h&^uint32(handleIndexMask) != t.tag {
		return nil
	}
	i := int(h&handleIndexMask) - 1
	if i < 0 || i >= len(t.states) {
		return nil
	}
	return t.states[i]
}

// intern binds key to a handle (minting one on first sight) without
// creating any path state. Safe from any goroutine. Returns 0 when the
// dense space is exhausted.
// floc:coldpath handle binding happens once per path, not per packet
func (t *pathTable) intern(key string) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.byKey[key]; ok {
		return h
	}
	if t.minted >= maxPathHandles {
		return 0
	}
	t.minted++
	h := t.tag | uint32(t.minted)
	t.byKey[key] = h
	return h
}

// lookup returns the live state for key, or nil.
// floc:coldpath first-packet and control-plane lookups only
func (t *pathTable) lookup(key string) *pathState {
	t.mu.Lock()
	h, ok := t.byKey[key]
	t.mu.Unlock()
	if ok {
		return t.byHandle(h)
	}
	return t.overflow[key]
}

// put stores a freshly created state under key, assigning its handle and
// growing states to reach it.
// floc:coldpath path-state creation is a first-packet event
func (t *pathTable) put(key string, ps *pathState) {
	if h := t.intern(key); h != 0 {
		ps.handle = h
		i := int(h&handleIndexMask) - 1
		for len(t.states) <= i {
			t.states = append(t.states, nil)
		}
		t.states[i] = ps
	} else {
		if t.overflow == nil {
			t.overflow = map[string]*pathState{}
		}
		t.overflow[key] = ps
	}
	t.live++
}

// remove expires a state. Dense entries keep their key→handle binding
// (see the package comment above); overflow entries are forgotten.
// floc:coldpath expiry runs in the control loop
func (t *pathTable) remove(ps *pathState) {
	if ps.handle != 0 {
		t.states[int(ps.handle&handleIndexMask)-1] = nil
	} else {
		delete(t.overflow, ps.key)
	}
	t.live--
}

// size returns the number of live states.
func (t *pathTable) size() int { return t.live }

// each visits every live state in unspecified order; callers needing
// determinism sort keys (sortedKeys) or sort what they collect. Removing
// the currently visited state from within fn is allowed.
func (t *pathTable) each(fn func(ps *pathState)) {
	for _, ps := range t.states {
		if ps != nil {
			fn(ps)
		}
	}
	for _, ps := range t.overflow {
		fn(ps)
	}
}

// sortedKeys returns the live states' keys in sorted order, for
// deterministic emission.
func (t *pathTable) sortedKeys() []string {
	keys := make([]string, 0, t.live)
	t.each(func(ps *pathState) { keys = append(keys, ps.key) })
	sort.Strings(keys)
	return keys
}
