// Wire encoding of LastVoting round messages for the live runtime
// (internal/live). The codec lives with the algorithm so the four phase
// payload types stay unexported; everything is one tag byte plus zigzag
// varints: a fault-free slot is two rounds (vote, ack) of a few bytes
// per process on the wire.

package lastvoting

import (
	"encoding/binary"
	"fmt"

	"heardof/internal/core"
)

// Wire-format tags. Tag 0 is the null message — most LastVoting rounds
// send nothing relevant from most processes (only the coordinator speaks
// in vote and decide rounds), but the null still travels: being heard is
// membership in HO(p, r), and round progress is visible to peers.
const (
	wireNil      = 0
	wireEstimate = 1
	wireVote     = 2
	wireAck      = 3
	wireDecide   = 4
)

// WireCodec encodes LastVoting messages. It satisfies the live runtime's
// Codec interface structurally.
type WireCodec struct{}

// Encode serializes m.
func (WireCodec) Encode(m core.Message) ([]byte, error) {
	switch v := m.(type) {
	case nil:
		return []byte{wireNil}, nil
	case estimateMsg:
		b := binary.AppendVarint([]byte{wireEstimate}, int64(v.X))
		return binary.AppendVarint(b, int64(v.TS)), nil
	case voteMsg:
		return binary.AppendVarint([]byte{wireVote}, int64(v.V)), nil
	case ackMsg:
		return []byte{wireAck}, nil
	case decideMsg:
		return binary.AppendVarint([]byte{wireDecide}, int64(v.V)), nil
	default:
		return nil, fmt.Errorf("lastvoting: cannot encode foreign payload %T", m)
	}
}

// Names reports the value m names, whose batch contents ride the
// message's envelope in the live runtime: the estimate's x, the vote (in
// phase 1 its ack, which is the vote again) and the decision. The null
// message and the ack name nothing.
//
//holint:hotpath
func (WireCodec) Names(m core.Message) (core.Value, bool) {
	switch v := m.(type) {
	case estimateMsg:
		return v.X, true
	case voteMsg:
		return v.V, true
	case decideMsg:
		return v.V, true
	}
	return 0, false
}

// Decode parses an Encode result.
func (WireCodec) Decode(b []byte) (core.Message, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("lastvoting: empty wire message")
	}
	rest := b[1:]
	one := func() (int64, error) {
		v, n := binary.Varint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("lastvoting: truncated payload for tag %d", b[0])
		}
		rest = rest[n:]
		return v, nil
	}
	switch b[0] {
	case wireNil:
		return nil, nil
	case wireEstimate:
		x, err := one()
		if err != nil {
			return nil, err
		}
		ts, err := one()
		if err != nil {
			return nil, err
		}
		return estimateMsg{X: core.Value(x), TS: core.Round(ts)}, nil
	case wireVote:
		v, err := one()
		if err != nil {
			return nil, err
		}
		return voteMsg{V: core.Value(v)}, nil
	case wireAck:
		return ackMsg{}, nil
	case wireDecide:
		v, err := one()
		if err != nil {
			return nil, err
		}
		return decideMsg{V: core.Value(v)}, nil
	default:
		return nil, fmt.Errorf("lastvoting: unknown wire tag %d", b[0])
	}
}
