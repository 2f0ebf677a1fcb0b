// Package log implements the replicated-log engine: a pipeline of
// numbered Byzantine consensus instances — each one full execution of the
// BouzidMR15 algorithm (internal/core) — that totally orders a stream of
// client commands. Commands are batched (many commands per decided value)
// and instances are pipelined (up to Pipeline in flight), which turns the
// paper's single-shot primitive into a throughput-oriented ordering
// service.
//
// Design notes:
//
//   - Every instance runs the §7 ⊥-default validity variant (BotMode).
//     The m-valued feasibility bound n−t > m·t cannot hold when each
//     process proposes its own batch, so the log leans on the variant that
//     lifts it: an instance either decides some correct process's batch or
//     ⊥, which the log applies as a no-op.
//
//   - The intended client model is the classic BFT one (PBFT-style):
//     clients submit a command to every replica, so each replica's batch
//     proposal contains roughly the same uncommitted commands and any
//     decided batch makes progress. Commit deduplication makes overlapping
//     batches safe.
//
//   - The batch of instance i is a pure function of (pending command
//     set, i, Pipeline) — content-sorted lanes, see Engine.canonicalBatch
//     — never of arrival order or local decide timing: over real
//     transports the same commands reach each replica in a different
//     order, and replicas only make progress when they propose identical
//     batch encodings.
//
//   - All correct processes participate in every started instance, which
//     is what the per-instance termination proof needs. An instance
//     starts only when there is something to decide — a pending command
//     no own proposal covers — and the others get there by joining: a
//     message naming an instance makes its receiver propose in it
//     (Engine.demanded), and the CB[0] INIT that carries a proposal also
//     forwards its commands (Engine.learn). An idle cluster decides
//     nothing.
//
//   - Every instance's ECHO/READY traffic goes through one coalescing
//     relay (rb.Relay, docs/rb-coalescing.md): what a replica originates
//     before it runs out of input (at most a flush quantum), across all
//     in-flight instances, rides one vector frame per link.
//
// This file is the batch codec: how a slice of commands becomes the
// opaque value a consensus instance decides.
package log

import (
	"encoding/binary"
	"fmt"

	"repro/internal/types"
)

// batchMagic is the first byte of every encoded batch. It keeps batches
// disjoint from types.BotValue (which starts with 0x00) and gives decoders
// a cheap sanity check.
const batchMagic = 'B'

// MaxBatchCmds bounds the number of commands one batch may carry; decoders
// reject anything larger (Byzantine defense).
const MaxBatchCmds = 1 << 16

// EncodeBatch serializes commands into one consensus value:
// magic byte, then per command a u32 little-endian length and the bytes.
// An empty batch encodes to just the magic byte (the no-op proposal).
func EncodeBatch(cmds []types.Value) types.Value {
	size := 1
	for _, c := range cmds {
		size += 4 + len(c)
	}
	buf := make([]byte, 1, size)
	buf[0] = batchMagic
	var lenb [4]byte
	for _, c := range cmds {
		binary.LittleEndian.PutUint32(lenb[:], uint32(len(c)))
		buf = append(buf, lenb[:]...)
		buf = append(buf, c...)
	}
	return types.Value(buf)
}

// DecodeBatch parses an encoded batch. It is defensive: although consensus
// validity guarantees a decided non-⊥ value was proposed by a correct
// process, the log engine never trusts that an arbitrary value parses.
//
// The commands are substrings of v, sharing its bytes: a first pass
// validates and counts, so the result is the only allocation.
func DecodeBatch(v types.Value) ([]types.Value, error) {
	if len(v) < 1 || v[0] != batchMagic {
		return nil, fmt.Errorf("log: not a batch value (%d bytes)", len(v))
	}
	count := 0
	for off := 1; off < len(v); {
		if len(v)-off < 4 {
			return nil, fmt.Errorf("log: truncated command length (%d bytes left)", len(v)-off)
		}
		n := cmdLen(v, off)
		off += 4
		if uint64(n) > uint64(len(v)-off) {
			return nil, fmt.Errorf("log: command length %d exceeds remaining %d bytes", n, len(v)-off)
		}
		off += int(n)
		if count++; count > MaxBatchCmds {
			return nil, fmt.Errorf("log: batch exceeds %d commands", MaxBatchCmds)
		}
	}
	if count == 0 {
		return nil, nil
	}
	cmds := make([]types.Value, count)
	for i, off := 0, 1; i < count; i++ {
		n := int(cmdLen(v, off))
		cmds[i] = v[off+4 : off+4+n]
		off += 4 + n
	}
	return cmds, nil
}

// cmdLen reads the little-endian u32 length prefix at v[off:].
func cmdLen(v types.Value, off int) uint32 {
	return uint32(v[off]) | uint32(v[off+1])<<8 | uint32(v[off+2])<<16 | uint32(v[off+3])<<24
}
