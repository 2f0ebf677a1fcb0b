// Durable boot: restarting a replica from its own disk instead of its
// peers.
//
// Boot is the read side of the write-ahead discipline Config.Persist
// drives (append entries before applying, mark applied boundaries,
// stamp snapshots as transfer payloads). It recovers the store, installs
// the stamped snapshot through the SAME validation path a live peer
// transfer uses (digest round-trip, position sanity), re-applies the WAL
// suffix to the machine, and hands the ordering layer its resume
// position (log.Engine.Resume). After Boot the replica serves its
// pre-crash state — applied prefix ⊇ fsync'd prefix — without asking a
// peer for anything.
package sm

import (
	"fmt"

	"repro/internal/log"
	"repro/internal/store"
	"repro/internal/types"
)

// BootControl is the slice of the log engine Boot realigns.
// log.Engine implements it (Resume); it must not have Started yet.
type BootControl interface {
	Resume(boundary types.Instance, base int, retained []log.Entry) error
}

// BootStats describes what a durable boot recovered.
type BootStats struct {
	// HadSnapshot reports whether a stamped snapshot was restored.
	HadSnapshot bool
	// SnapIndex / SnapInstance are the restored snapshot's position
	// (zero when HadSnapshot is false).
	SnapIndex    int
	SnapInstance types.Instance
	// Replayed counts WAL entries re-applied past the snapshot.
	Replayed int
	// Boundary is the instance frontier handed to the engine: the
	// highest durably marked applied boundary.
	Boundary types.Instance
}

// Boot restores a replica from its durable store: Recover the medium,
// install the stamped snapshot (if any) into the applier, replay the
// WAL entry suffix into the machine, and Resume the log engine at the
// recovered boundary. Call it after constructing the applier and engine
// but before Engine.Start; a fresh (empty) medium is a no-op and the
// replica starts clean.
//
// The WAL may hold entries below the snapshot index (a crash that outran
// the truncate marker) — they are skipped — and entries at or past the
// recovered boundary (a crash between an entry's append and its boundary
// mark) — they ARE replayed and seed the engine's dedup, so the cluster's
// re-decision of their instance commits only the remainder. Applied
// therefore covers everything fsync'd, never less.
func Boot(p store.Persister, a *Applier, eng BootControl) (BootStats, error) {
	var st BootStats
	if p == nil || a == nil || eng == nil {
		return st, fmt.Errorf("sm: boot needs a Persister, an Applier and an engine")
	}
	rec, err := p.Recover()
	if err != nil {
		return st, err
	}
	if rec.SnapPayload == nil && len(rec.Entries) == 0 && rec.Boundary == 0 {
		return st, nil // fresh medium: nothing to restore
	}
	// The stamped payload is a full transfer frame (snapshot + retained
	// dedup window); install it exactly as a peer transfer would, against
	// the position it was stamped with.
	var combined []log.Entry
	base := 0
	if rec.SnapPayload != nil {
		s, retained, err := a.install(rec.SnapPayload, rec.SnapIndex, rec.SnapInstance, true)
		if err != nil {
			return st, fmt.Errorf("sm: boot install: %w", err)
		}
		st.HadSnapshot, st.SnapIndex, st.SnapInstance = true, s.Index, s.Instance
		combined = append(combined, retained...)
		base = s.Index - len(retained)
	}
	target := a.applied
	for _, e := range rec.Entries {
		if e.Index < a.applied {
			continue // below the snapshot: the crash outran a truncate marker
		}
		combined = append(combined, e)
		target++
	}
	if !st.HadSnapshot && len(combined) > 0 {
		base = combined[0].Index
	}
	if err := a.replay(rec.Entries, target); err != nil {
		return st, err
	}
	st.Replayed = target - st.SnapIndex
	st.Boundary = rec.Boundary
	if err := eng.Resume(rec.Boundary, base, combined); err != nil {
		return st, fmt.Errorf("sm: boot resume: %w", err)
	}
	return st, nil
}
