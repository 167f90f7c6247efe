// Package storage models the node's I/O stack from scratch: a 7200 rpm
// hard disk with seek and rotational mechanics, a write-back page cache
// with an elevator (LBA-sorting) write-back daemon, and an extent-based
// filesystem with pluggable allocation policies. The paper's Table III
// (fio), its read/write stage powers (Fig 6, Table II), and its §V-D
// data-reorganization hypothetical all fall out of this stack.
package storage

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/units"
)

// Range is a half-open interval [Start, End) of disk byte offsets.
type Range struct {
	Start, End units.Bytes
}

// Len returns the range length.
func (r Range) Len() units.Bytes { return r.End - r.Start }

// Empty reports whether the range covers no bytes.
func (r Range) Empty() bool { return r.End <= r.Start }

// Overlaps reports whether r and s share any byte.
func (r Range) Overlaps(s Range) bool { return r.Start < s.End && s.Start < r.End }

// Contains reports whether r fully covers s.
func (r Range) Contains(s Range) bool { return r.Start <= s.Start && s.End <= r.End }

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Start, r.End) }

// RangeSet is a set of byte offsets stored as sorted, non-overlapping,
// non-adjacent ranges. It backs the page cache's cached/dirty tracking,
// where Table III's random writes leave over 65,000 ranges live.
// The zero value is an empty, ready-to-use set.
//
// The ranges live in a list of sorted chunks, each non-empty and
// shorter than chunkCap; read in order, the chunks are the set's
// maximal ranges. An operation finds its chunk by binary search over
// the chunks' last ranges, then edits that chunk in place, so no
// operation moves more than one chunk's worth of ranges. A chunk is
// split in half when an edit fills it and dropped when one empties it;
// only those edits touch the chunk list. The split-off half is
// allocated at chunkCap, so later edits of it never reallocate. The
// byte total and range count are kept running, so Bytes, Len and Empty
// are O(1).
type RangeSet struct {
	chunks [][]Range
	n      int
	bytes  units.Bytes
}

// chunkCap is the capacity a split-off chunk is allocated with. An edit
// grows a chunk by at most one range, and a chunk that reaches chunkCap
// is split in half.
const chunkCap = 256

// Len returns the number of maximal ranges in the set.
func (s *RangeSet) Len() int { return s.n }

// Bytes returns the total number of bytes covered.
func (s *RangeSet) Bytes() units.Bytes { return s.bytes }

// Empty reports whether the set covers no bytes.
func (s *RangeSet) Empty() bool { return s.n == 0 }

// First returns the lowest range in the set; ok is false when the set
// is empty.
func (s *RangeSet) First() (r Range, ok bool) {
	if s.n == 0 {
		return Range{}, false
	}
	return s.chunks[0][0], true
}

// Clear removes all ranges.
func (s *RangeSet) Clear() {
	clear(s.chunks)
	s.chunks = s.chunks[:0]
	s.n, s.bytes = 0, 0
}

// Clone returns an independent copy of the set.
func (s *RangeSet) Clone() *RangeSet {
	c := &RangeSet{chunks: make([][]Range, len(s.chunks)), n: s.n, bytes: s.bytes}
	for i, ch := range s.chunks {
		c.chunks[i] = slices.Clone(ch)
	}
	return c
}

// A position (c, i) names range i of chunk c. Positions are kept
// normalized: i < len(s.chunks[c]), or c == len(s.chunks) and i == 0
// for the position past the last range.

// firstEndAfter returns the position of the first range whose End is
// greater than off (the first range that could overlap or follow off).
func (s *RangeSet) firstEndAfter(off units.Bytes) (c, i int) {
	c = sort.Search(len(s.chunks), func(c int) bool {
		ch := s.chunks[c]
		return ch[len(ch)-1].End > off
	})
	if c == len(s.chunks) {
		return c, 0
	}
	ch := s.chunks[c]
	return c, sort.Search(len(ch), func(i int) bool { return ch[i].End > off })
}

// next returns the position after (c, i).
func (s *RangeSet) next(c, i int) (int, int) {
	if i++; i == len(s.chunks[c]) {
		return c + 1, 0
	}
	return c, i
}

// splice replaces the ranges from position (c, i) up to (ec, ei),
// exclusive, with the first k ranges of repl, keeping the byte total
// and count current. The replacements go where the window began, so
// the edit touches only the window's first and last chunks and drops
// the whole chunks between them.
func (s *RangeSet) splice(c, i, ec, ei int, repl [2]Range, k int) {
	for _, r := range repl[:k] {
		s.bytes += r.Len()
	}
	s.n += k
	if c == len(s.chunks) {
		// An insertion past the last range appends to the last chunk.
		if c == 0 {
			s.chunks = append(s.chunks, nil)
		}
		c = len(s.chunks) - 1
		i = len(s.chunks[c])
		ec, ei = c, i
	}
	if c == ec {
		s.drop(s.chunks[c][i:ei])
		s.chunks[c] = slices.Replace(s.chunks[c], i, ei, repl[:k]...)
	} else {
		s.drop(s.chunks[c][i:])
		s.chunks[c] = slices.Replace(s.chunks[c], i, len(s.chunks[c]), repl[:k]...)
		for _, ch := range s.chunks[c+1 : ec] {
			s.drop(ch)
		}
		if ec < len(s.chunks) {
			s.drop(s.chunks[ec][:ei])
			s.chunks[ec] = slices.Delete(s.chunks[ec], 0, ei)
		}
		s.chunks = slices.Delete(s.chunks, c+1, ec)
	}
	switch ch := s.chunks[c]; {
	case len(ch) == 0:
		s.chunks = slices.Delete(s.chunks, c, c+1)
	case len(ch) >= chunkCap:
		h := len(ch) / 2
		hi := make([]Range, len(ch)-h, chunkCap)
		copy(hi, ch[h:])
		s.chunks[c] = ch[:h]
		s.chunks = slices.Insert(s.chunks, c+1, hi)
	}
}

// drop takes ranges leaving the set out of the byte total and count.
func (s *RangeSet) drop(rs []Range) {
	for _, r := range rs {
		s.bytes -= r.Len()
	}
	s.n -= len(rs)
}

// Add inserts [r.Start, r.End), merging with overlapping or adjacent
// ranges. Empty ranges are ignored.
func (s *RangeSet) Add(r Range) {
	if r.Empty() {
		return
	}
	// The window of existing ranges that touch [Start-0, End+0]
	// (adjacency merges too, hence End >= r.Start and Start <= r.End).
	c, i := s.firstEndAfter(r.Start - 1)
	ec, ei := c, i
	for ec < len(s.chunks) {
		cur := s.chunks[ec][ei]
		if cur.Start > r.End {
			break
		}
		r.Start, r.End = min(r.Start, cur.Start), max(r.End, cur.End)
		ec, ei = s.next(ec, ei)
	}
	s.splice(c, i, ec, ei, [2]Range{r}, 1)
}

// Remove deletes [r.Start, r.End) from the set, splitting ranges that
// straddle the boundary. Only the first and last overlapped ranges can
// leave fragments behind.
func (s *RangeSet) Remove(r Range) {
	if r.Empty() {
		return
	}
	c, i := s.firstEndAfter(r.Start)
	ec, ei := c, i
	var lo, hi units.Bytes
	for ec < len(s.chunks) {
		cur := s.chunks[ec][ei]
		if cur.Start >= r.End {
			break
		}
		if ec == c && ei == i {
			lo = cur.Start
		}
		hi = cur.End
		ec, ei = s.next(ec, ei)
	}
	if ec == c && ei == i {
		return // nothing overlaps
	}
	var frags [2]Range
	k := 0
	for _, f := range [2]Range{{lo, r.Start}, {r.End, hi}} {
		if !f.Empty() {
			frags[k] = f
			k++
		}
	}
	s.splice(c, i, ec, ei, frags, k)
}

// Contains reports whether every byte of r is in the set.
func (s *RangeSet) Contains(r Range) bool {
	if r.Empty() {
		return true
	}
	c, i := s.firstEndAfter(r.Start)
	return c < len(s.chunks) && s.chunks[c][i].Contains(r)
}

// Intersect returns the portions of r covered by the set, in order.
func (s *RangeSet) Intersect(r Range) []Range {
	var out []Range
	if r.Empty() {
		return out
	}
	for c, i := s.firstEndAfter(r.Start); c < len(s.chunks); c, i = s.next(c, i) {
		cur := s.chunks[c][i]
		if cur.Start >= r.End {
			break
		}
		out = append(out, Range{max(cur.Start, r.Start), min(cur.End, r.End)})
	}
	return out
}

// Gaps returns the portions of r NOT covered by the set, in order.
func (s *RangeSet) Gaps(r Range) []Range {
	var out []Range
	if r.Empty() {
		return out
	}
	pos := r.Start
	for c, i := s.firstEndAfter(r.Start); c < len(s.chunks); c, i = s.next(c, i) {
		cur := s.chunks[c][i]
		if cur.Start >= r.End {
			break
		}
		if cur.Start > pos {
			out = append(out, Range{pos, cur.Start})
		}
		pos = cur.End
	}
	if pos < r.End {
		out = append(out, Range{pos, r.End})
	}
	return out
}

// TakeFrom removes and returns up to budget bytes of ranges from the
// set, scanning upward from offset 'from' and wrapping around — the
// elevator sweep order used by the write-back daemon. The final range
// may be split to honor the budget exactly.
func (s *RangeSet) TakeFrom(from units.Bytes, budget units.Bytes) []Range {
	if budget <= 0 || s.n == 0 {
		return nil
	}
	c, i := s.firstEndAfter(from)
	taken := s.sweep(nil, c, i, len(s.chunks), 0, &budget)
	up := len(taken)
	taken = s.sweep(taken, 0, 0, c, i, &budget)
	// Each sweep took a run of consecutive ranges, so one Remove per
	// sweep clears it (the gaps between them are not in the set).
	if up > 0 {
		s.Remove(Range{taken[0].Start, taken[up-1].End})
	}
	if len(taken) > up {
		s.Remove(Range{taken[up].Start, taken[len(taken)-1].End})
	}
	// Sweep order is ascending from 'from', wrapping: ranges at or above
	// 'from' first, then those below it. Only the upward sweep's first
	// range can start below 'from' (it straddles it), and it sorts after
	// every wrapped range, all of which lie below it.
	if up > 0 && taken[0].Start < from {
		first := taken[0]
		copy(taken, taken[1:])
		taken[len(taken)-1] = first
	}
	return taken
}

// sweep appends the ranges from position (c, i) up to (ec, ei),
// exclusive, to taken until the budget runs out, cutting the last one
// short to fit.
func (s *RangeSet) sweep(taken []Range, c, i, ec, ei int, budget *units.Bytes) []Range {
	for (c != ec || i != ei) && *budget > 0 {
		r := s.chunks[c][i]
		if r.Len() > *budget {
			r.End = r.Start + *budget
		}
		taken = append(taken, r)
		*budget -= r.Len()
		c, i = s.next(c, i)
	}
	return taken
}
