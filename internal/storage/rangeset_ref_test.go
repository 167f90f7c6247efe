package storage

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/units"
)

// refRangeSet is RangeSet as written before the chunked layout: one flat
// sorted slice, an O(n) byte total and a memmove per insert. It is kept
// verbatim as the oracle for TestRangeSetMatchesReference, except for
// its name and the min/max builtins in place of min64/max64.
//
// refRangeSet is a set of byte offsets stored as sorted, non-overlapping,
// non-adjacent ranges. It backs the page cache's cached/dirty tracking.
// The zero value is an empty, ready-to-use set.
type refRangeSet struct {
	ranges []Range
}

// Len returns the number of maximal ranges in the set.
func (s *refRangeSet) Len() int { return len(s.ranges) }

// Bytes returns the total number of bytes covered.
func (s *refRangeSet) Bytes() units.Bytes {
	var n units.Bytes
	for _, r := range s.ranges {
		n += r.Len()
	}
	return n
}

// Ranges returns the maximal ranges in ascending order. The slice is
// owned by the set; callers must not modify it.
func (s *refRangeSet) Ranges() []Range { return s.ranges }

// Empty reports whether the set covers no bytes.
func (s *refRangeSet) Empty() bool { return len(s.ranges) == 0 }

// Clear removes all ranges.
func (s *refRangeSet) Clear() { s.ranges = s.ranges[:0] }

// Clone returns an independent copy of the set.
func (s *refRangeSet) Clone() *refRangeSet {
	c := &refRangeSet{ranges: make([]Range, len(s.ranges))}
	copy(c.ranges, s.ranges)
	return c
}

// firstAtOrAfter returns the index of the first range whose End is
// greater than off (the first range that could overlap or follow off).
func (s *refRangeSet) firstAtOrAfter(off units.Bytes) int {
	return sort.Search(len(s.ranges), func(i int) bool {
		return s.ranges[i].End > off
	})
}

// Add inserts [r.Start, r.End), merging with overlapping or adjacent
// ranges. Empty ranges are ignored.
func (s *refRangeSet) Add(r Range) {
	if r.Empty() {
		return
	}
	// Find the window of existing ranges that touch [Start-0, End+0]
	// (adjacency merges too, hence <=).
	i := sort.Search(len(s.ranges), func(i int) bool {
		return s.ranges[i].End >= r.Start
	})
	j := i
	for j < len(s.ranges) && s.ranges[j].Start <= r.End {
		if s.ranges[j].Start < r.Start {
			r.Start = s.ranges[j].Start
		}
		if s.ranges[j].End > r.End {
			r.End = s.ranges[j].End
		}
		j++
	}
	if i == j {
		s.ranges = append(s.ranges, Range{})
		copy(s.ranges[i+1:], s.ranges[i:])
		s.ranges[i] = r
		return
	}
	s.ranges[i] = r
	s.ranges = append(s.ranges[:i+1], s.ranges[j:]...)
}

// Remove deletes [r.Start, r.End) from the set, splitting ranges that
// straddle the boundary. It edits the range slice in place: only the
// first and last overlapped ranges can leave fragments behind, so a
// removal is a bounded window rewrite plus one tail move, never a copy
// of the whole set (this sits under every page-cache write-back).
func (s *refRangeSet) Remove(r Range) {
	if r.Empty() {
		return
	}
	i := s.firstAtOrAfter(r.Start)
	j := i
	for j < len(s.ranges) && s.ranges[j].Start < r.End {
		j++
	}
	if i == j {
		return // nothing overlaps
	}
	// Every range in [i, j) overlaps r. Fragments survive only at the
	// window edges.
	left := Range{s.ranges[i].Start, r.Start}
	right := Range{r.End, s.ranges[j-1].End}
	frags := 0
	if !left.Empty() {
		frags++
	}
	if !right.Empty() {
		frags++
	}
	switch d := (j - i) - frags; {
	case d < 0:
		// One range splits into two: open one slot at j.
		s.ranges = append(s.ranges, Range{})
		copy(s.ranges[j+1:], s.ranges[j:])
	case d > 0:
		s.ranges = append(s.ranges[:i+frags], s.ranges[j:]...)
	}
	k := i
	if !left.Empty() {
		s.ranges[k] = left
		k++
	}
	if !right.Empty() {
		s.ranges[k] = right
	}
}

// Contains reports whether every byte of r is in the set.
func (s *refRangeSet) Contains(r Range) bool {
	if r.Empty() {
		return true
	}
	i := s.firstAtOrAfter(r.Start)
	return i < len(s.ranges) && s.ranges[i].Contains(r)
}

// Intersect returns the portions of r covered by the set, in order.
func (s *refRangeSet) Intersect(r Range) []Range {
	var out []Range
	if r.Empty() {
		return out
	}
	for i := s.firstAtOrAfter(r.Start); i < len(s.ranges); i++ {
		cur := s.ranges[i]
		if cur.Start >= r.End {
			break
		}
		seg := Range{max(cur.Start, r.Start), min(cur.End, r.End)}
		if !seg.Empty() {
			out = append(out, seg)
		}
	}
	return out
}

// Gaps returns the portions of r NOT covered by the set, in order.
func (s *refRangeSet) Gaps(r Range) []Range {
	var out []Range
	if r.Empty() {
		return out
	}
	pos := r.Start
	for _, seg := range s.Intersect(r) {
		if seg.Start > pos {
			out = append(out, Range{pos, seg.Start})
		}
		pos = seg.End
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
func (s *refRangeSet) TakeFrom(from units.Bytes, budget units.Bytes) []Range {
	if budget <= 0 || len(s.ranges) == 0 {
		return nil
	}
	var taken []Range
	start := s.firstAtOrAfter(from)
	n := len(s.ranges)
	for k := 0; k < n && budget > 0; k++ {
		r := s.ranges[(start+k)%n]
		if r.Len() > budget {
			r = Range{r.Start, r.Start + budget}
		}
		taken = append(taken, r)
		budget -= r.Len()
	}
	for _, r := range taken {
		s.Remove(r)
	}
	// Keep the sweep order ascending-from-'from' even after wrap.
	sort.Slice(taken, func(i, j int) bool {
		ai, aj := taken[i].Start >= from, taken[j].Start >= from
		if ai != aj {
			return ai
		}
		return taken[i].Start < taken[j].Start
	})
	return taken
}

// TestRangeSetMatchesReference drives the chunked RangeSet and the flat
// reference through the same seeded random operation sequences and
// requires every result to agree, plus Bytes, Len and First after every
// operation and the full range list and chunk layout periodically. Each
// sequence grows the set to thousands of live ranges, so merges and
// removals span chunk boundaries, then drains it so chunks empty.
func TestRangeSetMatchesReference(t *testing.T) {
	var grew, shrank bool
	maxChunks := 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, ref := &RangeSet{}, &refRangeSet{}
		const universe = 1 << 22
		// randRange is mostly short ranges, sometimes one spanning
		// hundreds of live ranges.
		randRange := func() Range {
			start := units.Bytes(rng.Intn(universe))
			n := units.Bytes(rng.Intn(64))
			if rng.Intn(400) == 0 {
				n = units.Bytes(rng.Intn(universe / 64))
			}
			return Range{start, start + n}
		}
		const ops = 40000
		for op := 0; op < ops; op++ {
			chunks := len(got.chunks)
			// Each block of 10,000 ops grows the set for 8,000, then
			// drains it with removals and large elevator takes.
			grow := op%10000 < 8000
			switch k := rng.Intn(100); {
			case k < 60 && grow, k < 10:
				r := randRange()
				got.Add(r)
				ref.Add(r)
			case k < 70 && grow, k < 55:
				r := randRange()
				got.Remove(r)
				ref.Remove(r)
			case k < 65:
				from := units.Bytes(rng.Intn(universe))
				budget := units.Bytes(rng.Intn(4096)) - 16
				if !grow && rng.Intn(4) == 0 {
					budget = units.Bytes(rng.Intn(universe / 8))
				}
				if a, b := got.TakeFrom(from, budget), ref.TakeFrom(from, budget); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d op %d: TakeFrom(%d, %d) = %v, reference %v", seed, op, from, budget, a, b)
				}
			case k < 75:
				r := randRange()
				if a, b := got.Intersect(r), ref.Intersect(r); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d op %d: Intersect(%v) = %v, reference %v", seed, op, r, a, b)
				}
			case k < 85:
				r := randRange()
				if a, b := got.Gaps(r), ref.Gaps(r); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d op %d: Gaps(%v) = %v, reference %v", seed, op, r, a, b)
				}
			case k < 98:
				r := randRange()
				if a, b := got.Contains(r), ref.Contains(r); a != b {
					t.Fatalf("seed %d op %d: Contains(%v) = %v, reference %v", seed, op, r, a, b)
				}
			case k < 99:
				// Continue on the clone and mutate the original: the
				// clone must not see it.
				c := got.Clone()
				got.Add(Range{0, universe})
				got = c
				ref = ref.Clone()
			default:
				if rng.Intn(200) == 0 {
					got.Clear()
					ref.Clear()
				}
			}
			if a, b := got.Bytes(), ref.Bytes(); a != b {
				t.Fatalf("seed %d op %d: Bytes = %d, reference %d", seed, op, a, b)
			}
			if a, b := got.Len(), ref.Len(); a != b {
				t.Fatalf("seed %d op %d: Len = %d, reference %d", seed, op, a, b)
			}
			if a, ok := got.First(); ok != !ref.Empty() || ok && a != ref.Ranges()[0] {
				t.Fatalf("seed %d op %d: First = %v, %v; reference %v", seed, op, a, ok, ref.Ranges())
			}
			if op%97 == 0 || op == ops-1 {
				checkChunks(t, got, ref)
			}
			grew = grew || len(got.chunks) > chunks
			shrank = shrank || len(got.chunks) < chunks
			maxChunks = max(maxChunks, len(got.chunks))
		}
	}
	// The sequences must have exercised what the chunked layout adds.
	if !grew || !shrank || maxChunks < 12 {
		t.Errorf("chunk coverage too thin: split %v, dropped %v, max %d chunks", grew, shrank, maxChunks)
	}
}

// checkChunks compares the full range list with the reference and checks
// the chunk layout: every chunk non-empty and below chunkCap, and the
// running totals equal to a recount.
func checkChunks(t *testing.T, got *RangeSet, ref *refRangeSet) {
	t.Helper()
	if a, b := got.Ranges(), ref.Ranges(); len(a)+len(b) > 0 && !reflect.DeepEqual(a, b) {
		t.Fatalf("ranges diverge from reference:\n got %v\nwant %v", a, b)
	}
	var n int
	var bytes units.Bytes
	for i, ch := range got.chunks {
		if len(ch) == 0 || len(ch) >= chunkCap {
			t.Fatalf("chunk %d holds %d ranges, want 1..%d", i, len(ch), chunkCap-1)
		}
		n += len(ch)
		for _, r := range ch {
			bytes += r.Len()
		}
	}
	if n != got.n || bytes != got.bytes {
		t.Fatalf("running totals %d ranges / %d bytes, recount %d / %d", got.n, got.bytes, n, bytes)
	}
}
