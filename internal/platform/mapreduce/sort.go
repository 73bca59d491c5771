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

// sortByKey orders es by key and keeps the order of entries with equal
// keys (the Hadoop shuffle sort, which orders keys only), and returns
// the sorted entries, which occupy the front of either es or tmp;
// cap(tmp) must be at least len(es).
//
// It is a stable LSD radix sort over the sign-flipped key, one
// histogram and one scatter pass per byte in which the keys differ. A
// first pass ORs each key's XOR with the first key, so a byte that all
// keys share costs nothing (vertex keys rarely differ in more than
// three bytes).
func sortByKey(es, tmp []entry) []entry {
	if len(es) < 2 {
		return es
	}
	first := es[0].key
	var diff uint64
	for _, e := range es {
		diff |= uint64(e.key ^ first)
	}
	src, dst := es, tmp[:len(es)]
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue // every key has this byte
		}
		var h [256]int
		for _, e := range src {
			h[byte(flipSign(e.key)>>shift)]++
		}
		sum := 0
		for d, cnt := range h {
			h[d] = sum
			sum += cnt
		}
		for _, e := range src {
			d := byte(flipSign(e.key) >> shift)
			dst[h[d]] = e
			h[d]++
		}
		src, dst = dst, src
	}
	return src
}

// sortEntries orders es by key, then by value bytes, the canonical
// order of a job's output, and returns the sorted entries as sortByKey
// does. Each run of equal keys that sortByKey leaves is ordered
// bytewise by value.
func sortEntries(es, tmp []entry, bufs [][]byte) []entry {
	src := sortByKey(es, tmp)
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
