// Package store is the durable-storage layer of a replica: a Persister
// interface over the ordered facts a crashed replica needs to restart
// from local state instead of a peer snapshot transfer, plus two
// implementations — Memory (the historical in-process behavior, and the
// default everywhere determinism-pinned simulations run) and File (an
// fsync'd append-only WAL with CRC-framed records and torn-tail-tolerant
// recovery, plus atomically-written snapshot files).
//
// What is persisted is deliberately minimal and replica-local:
//
//   - every committed entry, appended BEFORE it is applied (write-ahead
//     discipline: a command visible in machine state is always on disk);
//   - applied-instance boundary marks (the fsync points — an entry is
//     durable once the boundary covering it was marked);
//   - the latest digest-stamped snapshot payload (the sm.EncodeTransfer
//     bytes: snapshot plus its retained dedup window), which makes
//     everything before its index disposable (TruncatePrefix).
//
// Recovery composes the newest valid snapshot with the WAL suffix past
// its index. The composition is verified by the sm layer on boot (the
// snapshot must re-encode to its digest, the suffix must be
// index-contiguous), so a corrupted store degrades into "restart from
// peers", never into silently wrong state — see sm.Boot and
// docs/persistence.md for the recovery invariants.
package store

import (
	"repro/internal/log"
	"repro/internal/types"
)

// Recovered is the durable state a Persister reconstructs on open: the
// newest valid snapshot payload (if any), the WAL entry suffix, and the
// highest durable applied-instance boundary.
type Recovered struct {
	// SnapPayload is the latest stamped snapshot transfer payload
	// (sm.EncodeTransfer bytes); nil if no snapshot was ever stamped.
	SnapPayload []byte
	// SnapIndex and SnapInstance are the stamped apply position of
	// SnapPayload (meaningless when SnapPayload is nil).
	SnapIndex    int
	SnapInstance types.Instance
	// Entries is the retained WAL suffix in append order. After a
	// TruncatePrefix(i) it holds only entries with Index >= i.
	Entries []log.Entry
	// Boundary is the highest instance boundary marked applied
	// (MarkApplied); instances [0, Boundary) were fully applied before
	// the crash. Entries past the boundary's commit point may follow in
	// Entries — a crash can land between an append and its boundary
	// mark, and recovery replays them anyway (applied ⊇ fsync'd).
	Boundary types.Instance
}

// Persister is durable storage for one replica. Implementations must be
// safe for concurrent use: the hosting runtime appends from its event
// loop while status endpoints may call Recover-independent accessors,
// and the contract suite (storetest.Contract) exercises concurrent
// AppendEntry + StampSnapshot under the race detector.
//
// Durability contract: AppendEntry and MarkApplied may buffer;
// MarkApplied, StampSnapshot and Sync must not return until everything
// written before them is durable (fsync'd, for file-backed stores). The
// write-ahead discipline lives in the caller (sm.Applier persists an
// entry before applying it and marks boundaries after each applied
// instance), so "durable prefix" always means "prefix covered by the
// last successful MarkApplied/Sync".
type Persister interface {
	// AppendEntry appends one committed entry to the durable log.
	AppendEntry(e log.Entry) error
	// MarkApplied records that instances [0, boundary) are fully applied
	// and makes every prior write durable.
	MarkApplied(boundary types.Instance) error
	// StampSnapshot durably records the snapshot payload covering
	// entries [0, index) and instances [0, instance), replacing any
	// previous snapshot. The payload is opaque to the store (the sm
	// layer encodes and re-validates it). It is immutable — the caller
	// never modifies it after the call — so the store may retain it
	// instead of copying it.
	StampSnapshot(index int, instance types.Instance, payload []byte) error
	// TruncatePrefix retires entries with Index < index from the durable
	// log; they are covered by a stamped snapshot.
	TruncatePrefix(index int) error
	// Recover reconstructs the durable state. It is called once, before
	// any writes, on a freshly opened store; file-backed stores repair a
	// torn tail here (truncate at the first corrupt record).
	Recover() (Recovered, error)
	// Sync forces everything written so far to durable media.
	Sync() error
	// Close releases resources; the store is unusable afterwards.
	Close() error
}
