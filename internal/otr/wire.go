// Wire encoding of OneThirdRule round messages for the live runtime
// (internal/live). Living here keeps the payload type unexported: the
// codec is the only sanctioned view of it outside the algorithm.

package otr

import (
	"encoding/binary"
	"fmt"

	"heardof/internal/core"
)

// Wire-format tags. Tag 0 is the null message (a process that "sends
// nothing relevant"): it still travels, because being heard — even with
// a null payload — is membership in HO(p, r).
const (
	wireNil      = 0
	wireEstimate = 1
)

// WireCodec encodes OneThirdRule messages: one tag byte, then the
// estimate as a zigzag varint. It satisfies the live runtime's Codec
// interface structurally.
type WireCodec struct{}

// Encode serializes m.
func (WireCodec) Encode(m core.Message) ([]byte, error) {
	switch v := m.(type) {
	case nil:
		return []byte{wireNil}, nil
	case message:
		return binary.AppendVarint([]byte{wireEstimate}, int64(v.X)), nil
	default:
		return nil, fmt.Errorf("otr: cannot encode foreign payload %T", m)
	}
}

// Names reports the estimate a message carries, so the batch it stands
// for rides with it: a process decides on the estimates it hears, and one
// whose batch travelled apart from them could be decided without its
// contents. Every process sends its estimate every round, so this ships a
// proposal up to n times a round — the price of "decided ⇒ held".
func (WireCodec) Names(m core.Message) (core.Value, bool) {
	if v, ok := m.(message); ok {
		return v.X, true
	}
	return 0, false
}

// Decode parses an Encode result.
func (WireCodec) Decode(b []byte) (core.Message, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("otr: empty wire message")
	}
	switch b[0] {
	case wireNil:
		return nil, nil
	case wireEstimate:
		x, n := binary.Varint(b[1:])
		if n <= 0 {
			return nil, fmt.Errorf("otr: truncated estimate")
		}
		return message{X: core.Value(x)}, nil
	default:
		return nil, fmt.Errorf("otr: unknown wire tag %d", b[0])
	}
}
