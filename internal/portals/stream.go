package portals

// Stream lets numbered arrivals through exactly once and in number order:
// the "counter for messages" software support a network that does not
// order messages needs. It keeps a base — every number at or below it has
// been let through — and holds early arrivals above it until the gap
// below them closes. Numbers compare by signed distance from the base, so
// a stream that straddles 2^64 keeps working. The zero Stream expects 1
// next.
//
// The relay dedups and reassembles each link's RSeq stream with it, core
// gates each origin's ordered operations, and a buddy applies each
// replica's versions in order.
type Stream[T any] struct {
	base uint64
	held map[uint64]T
}

// Seen reports whether seq was let through or is held.
func (s *Stream[T]) Seen(seq uint64) bool {
	if int64(seq-s.base) <= 0 {
		return true
	}
	_, ok := s.held[seq]
	return ok
}

// Offer lets seq through when it is next and holds v under it otherwise,
// reporting whether seq went through. The arrivals a let-through releases
// come out of Next. Callers check Seen first.
func (s *Stream[T]) Offer(seq uint64, v T) bool {
	if seq == s.base+1 {
		s.base = seq
		return true
	}
	if s.held == nil {
		s.held = make(map[uint64]T)
	}
	s.held[seq] = v
	return false
}

// Next lets the held arrival after the base through, if there is one.
func (s *Stream[T]) Next() (v T, ok bool) {
	if v, ok = s.held[s.base+1]; ok {
		delete(s.held, s.base+1)
		s.base++
	}
	return v, ok
}

// Base is the last number let through.
func (s *Stream[T]) Base() uint64 { return s.base }

// Held counts the arrivals waiting for a gap below them to close.
func (s *Stream[T]) Held() int { return len(s.held) }
