// Canonical snapshot encoding of State: varint/uvarint fields, maps
// sorted by key, byte fields length-prefixed. Deterministic so equal
// states encode equal (snapshot files of converged replicas differ
// only in their proposer-local fields).

package wal

import (
	"encoding/binary"
	"errors"
	"sort"
)

// appendState encodes st after dst.
func appendState(dst []byte, st *State) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(st.Log)))
	for _, bid := range st.Log {
		dst = binary.AppendVarint(dst, bid)
	}
	dst = binary.AppendUvarint(dst, uint64(st.Committed))

	clients := make([]uint64, 0, len(st.HWM))
	for c := range st.HWM {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	dst = binary.AppendUvarint(dst, uint64(len(clients)))
	for _, c := range clients {
		dst = binary.AppendUvarint(dst, c)
		dst = binary.AppendUvarint(dst, st.HWM[c])
	}

	dst = binary.AppendVarint(dst, st.BatchSeq)

	bids := make([]int64, 0, len(st.Batches))
	for bid := range st.Batches {
		bids = append(bids, bid)
	}
	sort.Slice(bids, func(i, j int) bool { return bids[i] < bids[j] })
	dst = binary.AppendUvarint(dst, uint64(len(bids)))
	for _, bid := range bids {
		dst = binary.AppendVarint(dst, bid)
		dst = appendBytes(dst, st.Batches[bid])
	}

	slots := make([]uint64, 0, len(st.Decided))
	for s := range st.Decided {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	dst = binary.AppendUvarint(dst, uint64(len(slots)))
	for _, s := range slots {
		dst = binary.AppendUvarint(dst, s)
		dst = binary.AppendVarint(dst, st.Decided[s])
	}

	slots = slots[:0]
	for s := range st.Votes {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	dst = binary.AppendUvarint(dst, uint64(len(slots)))
	for _, s := range slots {
		dst = binary.AppendUvarint(dst, s)
		dst = appendBytes(dst, st.Votes[s])
	}
	dst = appendBytes(dst, st.AppState)
	return dst
}

// decodeState parses an appendState encoding into st (whose maps must
// be non-nil). The Tail and AppSlots fields are recovery-side only and
// not part of the encoding.
func decodeState(b []byte, st *State) error {
	nlog, n := binary.Uvarint(b)
	if n <= 0 || nlog > maxRecord {
		return errors.New("corrupt snapshot: log length")
	}
	b = b[n:]
	st.Log = make([]int64, 0, nlog)
	for i := uint64(0); i < nlog; i++ {
		bid, m := binary.Varint(b)
		if m <= 0 {
			return errors.New("corrupt snapshot: log entry")
		}
		b = b[m:]
		st.Log = append(st.Log, bid)
	}
	committed, n := binary.Uvarint(b)
	if n <= 0 {
		return errors.New("corrupt snapshot: committed")
	}
	b = b[n:]
	st.Committed = int(committed)

	nhwm, n := binary.Uvarint(b)
	if n <= 0 || nhwm > maxRecord {
		return errors.New("corrupt snapshot: hwm count")
	}
	b = b[n:]
	for i := uint64(0); i < nhwm; i++ {
		client, m1 := binary.Uvarint(b)
		if m1 <= 0 {
			return errors.New("corrupt snapshot: hwm client")
		}
		seq, m2 := binary.Uvarint(b[m1:])
		if m2 <= 0 {
			return errors.New("corrupt snapshot: hwm seq")
		}
		b = b[m1+m2:]
		st.HWM[client] = seq
	}

	batchSeq, n := binary.Varint(b)
	if n <= 0 {
		return errors.New("corrupt snapshot: batchSeq")
	}
	b = b[n:]
	st.BatchSeq = batchSeq

	nbatch, n := binary.Uvarint(b)
	if n <= 0 || nbatch > maxRecord {
		return errors.New("corrupt snapshot: batch count")
	}
	b = b[n:]
	for i := uint64(0); i < nbatch; i++ {
		bid, m := binary.Varint(b)
		if m <= 0 || bid == 0 {
			return errors.New("corrupt snapshot: batch id")
		}
		b = b[m:]
		var contents []byte
		var err error
		contents, b, err = takeBytes(b)
		if err != nil {
			return errors.New("corrupt snapshot: batch contents")
		}
		st.Batches[bid] = contents
	}

	ndec, n := binary.Uvarint(b)
	if n <= 0 || ndec > maxRecord {
		return errors.New("corrupt snapshot: decided count")
	}
	b = b[n:]
	for i := uint64(0); i < ndec; i++ {
		slot, m1 := binary.Uvarint(b)
		if m1 <= 0 || slot == 0 {
			return errors.New("corrupt snapshot: decided slot")
		}
		bid, m2 := binary.Varint(b[m1:])
		if m2 <= 0 {
			return errors.New("corrupt snapshot: decided bid")
		}
		b = b[m1+m2:]
		st.Decided[slot] = bid
	}

	nvotes, n := binary.Uvarint(b)
	if n <= 0 || nvotes > maxRecord {
		return errors.New("corrupt snapshot: vote count")
	}
	b = b[n:]
	var err error
	for i := uint64(0); i < nvotes; i++ {
		slot, m := binary.Uvarint(b)
		if m <= 0 || slot == 0 {
			return errors.New("corrupt snapshot: vote slot")
		}
		if st.Votes[slot], b, err = takeBytes(b[m:]); err != nil {
			return errors.New("corrupt snapshot: vote state")
		}
	}
	st.AppState, b, err = takeBytes(b)
	if err != nil {
		return errors.New("corrupt snapshot: app state")
	}
	if len(b) != 0 {
		return errors.New("corrupt snapshot: trailing bytes")
	}
	return nil
}

// appendBytes length-prefixes v onto dst (nil encodes as empty).
func appendBytes(dst, v []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// takeBytes decodes one length-prefixed field, returning a copy and
// the rest of b.
func takeBytes(b []byte) ([]byte, []byte, error) {
	n, m := binary.Uvarint(b)
	if m <= 0 || n > maxRecord || uint64(len(b)-m) < n {
		return nil, nil, errors.New("bad length prefix")
	}
	var out []byte
	if n > 0 {
		out = append([]byte(nil), b[m:m+int(n)]...)
	}
	return out, b[m+int(n):], nil
}
