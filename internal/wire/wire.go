// Package wire is the binary codec for protocol messages, used by the TCP
// transport (internal/netx) to run the consensus stack between real
// processes. The format is a fixed little-endian header followed by the
// value bytes:
//
//	offset  size  field
//	0       1     version (5)
//	1       1     kind     (proto.MsgKind)
//	2       1     module   (proto.Module)
//	3       1     flags    (bit 0: relay value present, i.e. not ⊥)
//	4       8     round    (int64)
//	12      4     origin   (int32)
//	16      8     instance (int64) — log-instance number
//	24      4     value length L (uint32, ≤ MaxValueLen)
//	28      L     value bytes
//
// There is one version. Every binary this repository ever built sends
// version 5, so Decode accepts version byte 5 and rejects every other
// value; a change to the layout or the vocabulary is a new version byte
// and a coordinated upgrade.
//
// Besides the consensus kinds the vocabulary covers the KV service's
// replica-to-replica command forwards (proto.MsgKVRequest, module
// proto.ModKV; proto.MsgKVResponse has no sender), the coalesced-relay
// carriers of the reliable-broadcast layer (proto.MsgRBVector /
// proto.MsgRBPull / proto.MsgRBPullResp, module proto.ModRBRelay — a
// vector frame's entry list rides in the value bytes, see
// rb.EncodeEntries and docs/rb-coalescing.md) and the replica-to-replica
// snapshot transfer (module proto.ModSnap). Every transfer travels as a
// manifest (proto.MsgSnapResponse) plus a stream of self-validating
// proto.MsgSnapChunk frames re-requested by proto.MsgSnapAck, so no
// state of any size meets the MaxValueLen frame bound — see sm's chunk
// codec and docs/persistence.md.
//
// Frames on the wire are length-prefixed by the transport; this package
// only encodes message bodies.
package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/proto"
	"repro/internal/types"
)

// Version is the codec version byte.
const Version = 5

// MaxValueLen bounds value payloads (1 MiB): a Byzantine peer must not be
// able to force unbounded allocations.
const MaxValueLen = 1 << 20

const headerLen = 28

const flagRelayValid = 1 << 0

// payload returns the value a message carries on the wire, without
// copying it: Encode copies it once, into the frame.
func payload(m proto.Message) (types.Value, error) {
	val := m.Val
	if m.Kind == proto.MsgEARelay {
		// Relay messages carry OptValue; Val must be empty.
		val = m.Opt.V
		if m.Opt.IsBot() {
			val = ""
		}
	}
	if len(val) > MaxValueLen {
		return "", fmt.Errorf("wire: value of %d bytes exceeds limit", len(val))
	}
	return val, nil
}

// Encode serializes m into a frame of its own: one allocation.
func Encode(m proto.Message) ([]byte, error) {
	val, err := payload(m)
	if err != nil {
		return nil, err
	}
	if m.Instance < 0 {
		return nil, fmt.Errorf("wire: negative instance %d", m.Instance)
	}
	buf := make([]byte, headerLen+len(val))
	buf[0] = Version
	buf[1] = byte(m.Kind)
	buf[2] = byte(m.Tag.Mod)
	if m.Kind == proto.MsgEARelay && !m.Opt.IsBot() {
		buf[3] |= flagRelayValid
	}
	binary.LittleEndian.PutUint64(buf[4:], uint64(m.Tag.Round))
	binary.LittleEndian.PutUint32(buf[12:], uint32(int32(m.Origin)))
	binary.LittleEndian.PutUint64(buf[16:], uint64(m.Instance))
	binary.LittleEndian.PutUint32(buf[24:], uint32(len(val)))
	copy(buf[headerLen:], val)
	return buf, nil
}

// Decode parses a message body. It validates ranges defensively: the
// bytes may come from a Byzantine peer.
func Decode(b []byte) (proto.Message, error) {
	var m proto.Message
	if len(b) < 1 {
		return m, fmt.Errorf("wire: short message (%d bytes)", len(b))
	}
	if b[0] != Version {
		return m, fmt.Errorf("wire: unsupported version %d", b[0])
	}
	if len(b) < headerLen {
		return m, fmt.Errorf("wire: short message (%d bytes)", len(b))
	}
	kind := proto.MsgKind(b[1])
	if kind < proto.MsgRBInit || kind > proto.MsgDecide {
		return m, fmt.Errorf("wire: invalid kind %d", b[1])
	}
	mod := proto.Module(b[2])
	if mod < proto.ModConsCB0 || mod > proto.ModRBRelay {
		return m, fmt.Errorf("wire: invalid module %d", b[2])
	}
	round := int64(binary.LittleEndian.Uint64(b[4:]))
	if round < 0 {
		return m, fmt.Errorf("wire: negative round %d", round)
	}
	origin := int32(binary.LittleEndian.Uint32(b[12:]))
	if origin < 0 {
		return m, fmt.Errorf("wire: negative origin %d", origin)
	}
	instance := int64(binary.LittleEndian.Uint64(b[16:]))
	if instance < 0 {
		return m, fmt.Errorf("wire: negative instance %d", instance)
	}
	vlen := binary.LittleEndian.Uint32(b[24:])
	if vlen > MaxValueLen {
		return m, fmt.Errorf("wire: value length %d exceeds limit", vlen)
	}
	if len(b) != headerLen+int(vlen) {
		return m, fmt.Errorf("wire: length mismatch: header says %d, frame has %d", vlen, len(b)-headerLen)
	}
	// Flag hygiene: only the relay-validity bit exists, and only relay
	// frames may set it. Anything else is a forged or corrupted frame —
	// and silently ignoring junk bits would also break the decode→encode
	// canonicality the fuzz harness pins.
	if kind == proto.MsgEARelay {
		if b[3]&^flagRelayValid != 0 {
			return m, fmt.Errorf("wire: unknown flags %#x", b[3])
		}
	} else if b[3] != 0 {
		return m, fmt.Errorf("wire: unknown flags %#x for %v", b[3], kind)
	}
	m.Kind = kind
	m.Tag = proto.Tag{Mod: mod, Round: types.Round(round)}
	m.Instance = types.Instance(instance)
	m.Origin = types.ProcID(origin)
	val := string(b[headerLen:])
	if kind == proto.MsgEARelay {
		if b[3]&flagRelayValid != 0 {
			m.Opt = types.Some(types.Value(val))
		} else {
			if vlen != 0 {
				return m, fmt.Errorf("wire: ⊥ relay with %d value bytes", vlen)
			}
			m.Opt = types.Bot
		}
	} else {
		m.Val = types.Value(val)
	}
	return m, nil
}
