package ident

// Bits is a growable bitset, the columnar replacement for the
// map[netip.Addr]bool flag maps the substrate used to keep (rounding
// interfaces, traceroute-derived interfaces). The zero
// value is ready to use; Set grows on demand.
type Bits struct {
	words []uint64
}

// Set sets bit i, growing the set as needed.
func (b *Bits) Set(i uint32) {
	w := int(i >> 6)
	if w >= len(b.words) {
		b.grow(w + 1)
	}
	b.words[w] |= 1 << (i & 63)
}

// Clear clears bit i (a no-op beyond the current size).
func (b *Bits) Clear(i uint32) {
	w := int(i >> 6)
	if w < len(b.words) {
		b.words[w] &^= 1 << (i & 63)
	}
}

// Get reports bit i (false beyond the current size).
func (b *Bits) Get(i uint32) bool {
	w := int(i >> 6)
	return w < len(b.words) && b.words[w]&(1<<(i&63)) != 0
}

// Reset clears every bit, keeping the backing array.
func (b *Bits) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// CopyFrom makes b an exact copy of src, reusing b's capacity.
func (b *Bits) CopyFrom(src *Bits) {
	if cap(b.words) < len(src.words) {
		b.words = make([]uint64, len(src.words))
	} else {
		b.words = b.words[:len(src.words)]
	}
	copy(b.words, src.words)
}

func (b *Bits) grow(words int) {
	if cap(b.words) >= words {
		old := len(b.words)
		b.words = b.words[:words]
		for i := old; i < words; i++ {
			b.words[i] = 0
		}
		return
	}
	next := make([]uint64, words, words+words/2+4)
	copy(next, b.words)
	b.words = next
}
