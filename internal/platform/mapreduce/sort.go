package mapreduce

import (
	"bytes"
	"slices"
)

// entry locates one serialized record for the sort without holding a
// pointer: its value is bufs[buf][off:off+n] of the buffers the sort is
// given. Sorting entries moves 24 plain bytes per swap, where sorting
// Records would move a slice header under GC write barriers.
type entry struct {
	key int64
	off int
	n   uint32
	buf uint32
}

// value returns the entry's value bytes, capped so that an append by
// the receiver cannot overwrite the next record.
func (e entry) value(bufs [][]byte) []byte {
	end := e.off + int(e.n)
	return bufs[e.buf][e.off:end:end]
}

// sortEntries orders es by key, then by value bytes (the Hadoop
// sort-shuffle order), and returns the sorted entries, which occupy the
// front of either es or tmp; cap(tmp) must be at least len(es).
//
// Keys are ordered by a stable LSD radix sort over the sign-flipped key,
// one pass per byte, skipping every byte that all keys share (vertex
// keys rarely need more than three passes). Each run of equal keys is
// then ordered bytewise by value.
func sortEntries(es, tmp []entry, bufs [][]byte) []entry {
	if len(es) < 2 {
		return es
	}
	var hist [8][256]int
	for _, e := range es {
		k := flipSign(e.key)
		for b := range hist {
			hist[b][byte(k>>(8*b))]++
		}
	}
	src, dst := es, tmp[:len(es)]
	first := flipSign(es[0].key)
	for b := range hist {
		h := &hist[b]
		if h[byte(first>>(8*b))] == len(es) {
			continue // every key has this byte
		}
		sum := 0
		for d, cnt := range h {
			h[d] = sum
			sum += cnt
		}
		for _, e := range src {
			d := byte(flipSign(e.key) >> (8 * b))
			dst[h[d]] = e
			h[d]++
		}
		src, dst = dst, src
	}

	byValue := func(a, b entry) int { return bytes.Compare(a.value(bufs), b.value(bufs)) }
	for i := 0; i < len(src); {
		j := i + 1
		for j < len(src) && src[j].key == src[i].key {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(src[i:j], byValue)
		}
		i = j
	}
	return src
}

// flipSign maps int64 order onto uint64 order.
func flipSign(k int64) uint64 { return uint64(k) ^ 1<<63 }
