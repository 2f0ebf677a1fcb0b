package store

import (
	"sync"

	"repro/internal/log"
	"repro/internal/types"
)

// Memory is the in-process Persister: it retains everything in RAM, so
// "durability" lasts exactly as long as the hosting process. It exists
// for two callers — simulated crash-restart runs, where the scenario
// engine keeps the Memory store alive across a replica's simulated
// power-off so restart-from-store is testable deterministically, and as
// the executable specification the File implementation is contract-
// tested against (storetest.Contract runs the same suite over both).
type Memory struct {
	mu       sync.Mutex
	entries  []log.Entry
	boundary types.Instance
	snap     []byte
	snapIdx  int
	snapInst types.Instance
	hasSnap  bool
}

var _ Persister = (*Memory)(nil)

// NewMemory builds an empty in-memory store.
func NewMemory() *Memory { return &Memory{} }

// AppendEntry implements Persister.
func (m *Memory) AppendEntry(e log.Entry) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = append(m.entries, e)
	return nil
}

// MarkApplied implements Persister.
func (m *Memory) MarkApplied(boundary types.Instance) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if boundary > m.boundary {
		m.boundary = boundary
	}
	return nil
}

// StampSnapshot implements Persister. It keeps payload itself, which the
// Persister contract makes immutable, rather than a copy.
func (m *Memory) StampSnapshot(index int, instance types.Instance, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snap = payload
	m.snapIdx, m.snapInst, m.hasSnap = index, instance, true
	if instance > m.boundary {
		m.boundary = instance
	}
	return nil
}

// TruncatePrefix implements Persister.
func (m *Memory) TruncatePrefix(index int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	trim := 0
	for trim < len(m.entries) && m.entries[trim].Index < index {
		trim++
	}
	if trim > 0 {
		rest := make([]log.Entry, len(m.entries)-trim)
		copy(rest, m.entries[trim:])
		m.entries = rest
	}
	return nil
}

// Recover implements Persister.
func (m *Memory) Recover() (Recovered, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := Recovered{
		Entries:  append([]log.Entry(nil), m.entries...),
		Boundary: m.boundary,
	}
	if m.hasSnap {
		r.SnapPayload = append([]byte(nil), m.snap...)
		r.SnapIndex, r.SnapInstance = m.snapIdx, m.snapInst
	}
	return r, nil
}

// Sync implements Persister (a no-op: RAM is as durable as it gets).
func (m *Memory) Sync() error { return nil }

// Close implements Persister. Deliberately a no-op that keeps the state:
// a simulated restart hands the same Memory to the fresh replica, whose
// Recover models the disk surviving the crash.
func (m *Memory) Close() error { return nil }
