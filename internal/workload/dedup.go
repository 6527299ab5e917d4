package workload

import (
	"fmt"
	"sync"
)

// Dedup is a refcounted registry mapping canonical filter text to a single
// shared machine query plus the fan-out set of subscriptions riding on it.
// It is the sharing layer between a broker's subscribe path and the filter
// engine: the first subscription to a canonical filter compiles a machine
// query, later ones only bump the fan-out set, and the machine query is
// released only when the last subscription (and any boot-time pin) is gone.
//
// Entries are addressed by a stable uint64 key; a broker registers each
// entry under the engine's id for its filter (RegisterKey), which survives
// layer consolidation, so a match needs no translation to find its entry.
// Subscriptions are addressed by their own uint64 id so one owner can hold
// several subscriptions to the same filter.
//
// O is the subscription owner type (a broker connection, typically).
//
// Concurrency contract: every method takes the registry's lock, so each
// call is atomic on its own, but a key is only valid until the last
// subscription on it is released. The control-plane calls (Resolve,
// Register, RegisterKey, Pin, Subscribe, Unsubscribe, UnsubscribeOwner) must
// therefore be serialised by the caller, as the server does with its ctl
// mutex (Register also relies on it to pick its key before it locks):
// otherwise one goroutine's Unsubscribe can free the entry between another
// goroutine's Resolve and its Subscribe, which panics on the unknown key.
// Fanout, OwnerSubs and the read-only accessors may run concurrently with
// the control plane and with each other; Fanout takes a single read lock so
// the hot match path never blocks on subscribe churn for long.
type Dedup[O comparable] struct {
	mu      sync.RWMutex
	byCanon map[string]*dedupEntry[O]
	byKey   map[uint64]*dedupEntry[O]
	bySub   map[uint64]*dedupEntry[O]
	nextKey uint64
	nextSub uint64
	hits    uint64 // subscriptions that reused an already-compiled query
	subs    int    // live subscriptions across all entries
}

type dedupEntry[O comparable] struct {
	canon  string
	key    uint64
	shared bool // indexed in byCanon (false when dedup is disabled)
	pinned bool // boot/snapshot query: kept compiled with zero subscriptions
	subs   map[uint64]dedupSub[O]
}

type dedupSub[O comparable] struct {
	owner   O
	durable bool
}

// NewDedup returns an empty registry.
func NewDedup[O comparable]() *Dedup[O] {
	return &Dedup[O]{
		byCanon: make(map[string]*dedupEntry[O]),
		byKey:   make(map[uint64]*dedupEntry[O]),
		bySub:   make(map[uint64]*dedupEntry[O]),
	}
}

// Resolve returns the key of the already-registered shared entry for canon,
// if any.
func (d *Dedup[O]) Resolve(canon string) (uint64, bool) {
	d.mu.RLock()
	e, ok := d.byCanon[canon]
	d.mu.RUnlock()
	if !ok {
		return 0, false
	}
	return e.key, true
}

// Register creates a new entry for canon under the next key above every key
// registered so far and returns the key (see RegisterKey).
func (d *Dedup[O]) Register(canon string, shared bool) uint64 {
	return d.RegisterKey(d.nextKey, canon, shared)
}

// RegisterKey creates a new entry for canon under key, which must not be
// live, and returns the key. The caller compiles the machine query first and
// registers on success; a broker passes the engine's filter id, so the key
// is the id the engine reports. With shared=false the entry is not indexed
// by canonical text, so later subscriptions never coalesce onto it — the
// naive, dedup-disabled mode.
func (d *Dedup[O]) RegisterKey(key uint64, canon string, shared bool) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.byKey[key] != nil {
		panic(fmt.Sprintf("workload: RegisterKey on live key %d", key))
	}
	d.nextKey = max(d.nextKey, key+1)
	e := &dedupEntry[O]{canon: canon, key: key, shared: shared, subs: make(map[uint64]dedupSub[O])}
	d.byKey[key] = e
	if shared {
		d.byCanon[canon] = e
	}
	return key
}

// Pin marks the entry as a boot-time query that stays compiled (and keeps
// matching) even with zero subscriptions, mirroring pre-dedup broker
// behavior for InitialQueries and snapshot warm starts.
func (d *Dedup[O]) Pin(key uint64) {
	d.mu.Lock()
	if e := d.byKey[key]; e != nil {
		e.pinned = true
	}
	d.mu.Unlock()
}

// Subscribe attaches a subscription to the entry and returns its id. reused
// reports whether the entry already had subscriptions or a pin — i.e. the
// subscription rode on an existing compiled query (a dedup hit is counted
// only when the entry is shared).
func (d *Dedup[O]) Subscribe(key uint64, owner O, durable bool) (subID uint64, reused bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.byKey[key]
	if e == nil {
		panic(fmt.Sprintf("workload: Subscribe on unknown key %d", key))
	}
	reused = e.pinned || len(e.subs) > 0
	if reused && e.shared {
		d.hits++
	}
	subID = d.nextSub
	d.nextSub++
	e.subs[subID] = dedupSub[O]{owner: owner, durable: durable}
	d.bySub[subID] = e
	d.subs++
	return subID, reused
}

// Unsubscribe detaches subID, verifying it belongs to owner. last is true
// when the entry has no remaining subscriptions and no pin — the caller must
// then release the machine query; the entry is already removed.
func (d *Dedup[O]) Unsubscribe(subID uint64, owner O) (key uint64, last bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.bySub[subID]
	if e == nil {
		return 0, false, fmt.Errorf("unknown subscription id %d", subID)
	}
	if s := e.subs[subID]; s.owner != owner {
		return 0, false, fmt.Errorf("subscription id %d not owned by caller", subID)
	}
	d.dropSubLocked(e, subID)
	if len(e.subs) == 0 && !e.pinned {
		d.removeEntryLocked(e)
		return e.key, true, nil
	}
	return e.key, false, nil
}

// UnsubscribeOwner detaches every subscription held by owner (connection
// teardown) and returns the keys whose entries became empty and were
// removed — the caller releases those machine queries.
func (d *Dedup[O]) UnsubscribeOwner(owner O) (released []uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for subID, e := range d.bySub {
		if e.subs[subID].owner != owner {
			continue
		}
		d.dropSubLocked(e, subID)
		if len(e.subs) == 0 && !e.pinned {
			d.removeEntryLocked(e)
			released = append(released, e.key)
		}
	}
	return released
}

func (d *Dedup[O]) dropSubLocked(e *dedupEntry[O], subID uint64) {
	delete(e.subs, subID)
	delete(d.bySub, subID)
	d.subs--
}

func (d *Dedup[O]) removeEntryLocked(e *dedupEntry[O]) {
	delete(d.byKey, e.key)
	if e.shared && d.byCanon[e.canon] == e {
		delete(d.byCanon, e.canon)
	}
}

// Fanout visits every subscription attached to each key, under one read
// lock. keys may contain keys that no longer exist (a match computed on an
// older workload generation); those are skipped. The per-key pinned flag
// lets the caller count boot queries with no subscribers as matches, which
// is what the pre-dedup broker reported.
func (d *Dedup[O]) Fanout(keys []uint64, visit func(key uint64, pinned bool, nsubs int, subID uint64, owner O, durable bool)) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, key := range keys {
		e := d.byKey[key]
		if e == nil {
			continue
		}
		if len(e.subs) == 0 {
			if e.pinned {
				var zeroSub uint64
				var zeroOwner O
				visit(key, true, 0, zeroSub, zeroOwner, false)
			}
			continue
		}
		for subID, s := range e.subs {
			visit(key, e.pinned, len(e.subs), subID, s.owner, s.durable)
		}
	}
}

// SubscriptionsOn returns how many subscriptions are attached to the given
// keys: what a Fanout over them visits, less the subscriber-less pins. A
// caller sizes its fan-out buffers with it.
func (d *Dedup[O]) SubscriptionsOn(keys []uint64) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, key := range keys {
		if e := d.byKey[key]; e != nil {
			n += len(e.subs)
		}
	}
	return n
}

// OwnerSubs returns the subscription ids owner holds on the given keys,
// filtered to durable or ephemeral subscriptions.
func (d *Dedup[O]) OwnerSubs(keys []uint64, owner O, durable bool) []uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []uint64
	for _, key := range keys {
		e := d.byKey[key]
		if e == nil {
			continue
		}
		for subID, s := range e.subs {
			if s.owner == owner && s.durable == durable {
				out = append(out, subID)
			}
		}
	}
	return out
}

// SubCanon returns the canonical filter text behind a live subscription.
func (d *Dedup[O]) SubCanon(subID uint64) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	e := d.bySub[subID]
	if e == nil {
		return "", false
	}
	return e.canon, true
}

// UniqueQueries returns the number of live entries — compiled machine
// queries the registry is sharing.
func (d *Dedup[O]) UniqueQueries() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byKey)
}

// Subscriptions returns the number of live subscriptions across all entries.
func (d *Dedup[O]) Subscriptions() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.subs
}

// Hits returns the number of subscriptions that coalesced onto an
// already-compiled shared query.
func (d *Dedup[O]) Hits() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.hits
}

// Canons returns the canonical text of every live entry keyed by entry key.
// Used for workload-level analysis (subsumption metrics) and debugging.
func (d *Dedup[O]) Canons() map[uint64]string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[uint64]string, len(d.byKey))
	for k, e := range d.byKey {
		out[k] = e.canon
	}
	return out
}
