package snapshot

import (
	"fmt"
	"net/netip"
)

// Cols is a column group under construction, in encode order. Every
// persisted row codec (internal/registry membership, internal/pingsim
// aggregates, the internal/worldfile sections) appends to one.
type Cols []Column

// U32 appends a u32 column.
func (c *Cols) U32(name string, v []uint32) {
	*c = append(*c, Column{Name: name, Kind: KindU32, U32: v})
}

// U64 appends a u64 column.
func (c *Cols) U64(name string, v []uint64) {
	*c = append(*c, Column{Name: name, Kind: KindU64, U64: v})
}

// F64 appends an f64 column.
func (c *Cols) F64(name string, v []float64) {
	*c = append(*c, Column{Name: name, Kind: KindF64, F64: v})
}

// U8 appends a u8 column.
func (c *Cols) U8(name string, v []uint8) {
	*c = append(*c, Column{Name: name, Kind: KindU8, U8: v})
}

// Addr appends an address column (no zero addresses; see PackedAddrs).
func (c *Cols) Addr(name string, v []netip.Addr) {
	*c = append(*c, Column{Name: name, Kind: KindAddr, Addr: v})
}

// Str appends a string column.
func (c *Cols) Str(name string, v []string) {
	*c = append(*c, Column{Name: name, Kind: KindString, Str: v})
}

// PackedAddrs appends addresses that may include the zero netip.Addr
// (which KindAddr cannot carry: non-responding traceroute hops, VPs
// whose management address assignment failed) as a u8 column of
// AppendAddr records, length zero meaning the zero Addr.
func (c *Cols) PackedAddrs(name string, v []netip.Addr) {
	b := make([]uint8, 0, len(v)*5)
	for _, a := range v {
		b = AppendAddr(b, a)
	}
	c.U8(name, b)
}

// PackedIPv4 appends IPv4 words (0 for the zero Addr) in the wire form
// of PackedAddrs, without building an address per element.
func (c *Cols) PackedIPv4(name string, v []uint32) {
	b := make([]uint8, 0, len(v)*5)
	for _, w := range v {
		if w == 0 {
			b = append(b, 0)
			continue
		}
		b = append(b, 4, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	}
	c.U8(name, b)
}

// Reader reads a decoded column group by name. Errors are sticky: the
// first missing column, kind mismatch, ragged row group or failed
// check is kept in Err and every later read returns nil, so decoders
// read a block top to bottom and check Err once.
type Reader struct {
	cols map[string]*Column
	err  error
}

func newReader(cols []Column) *Reader {
	r := &Reader{cols: make(map[string]*Column, len(cols))}
	for i := range cols {
		r.cols[cols[i].Name] = &cols[i]
	}
	return r
}

// Err returns the first failure, nil if every read so far succeeded.
func (r *Reader) Err() error { return r.err }

// Failf records a failure unless one is already recorded.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *Reader) col(name string, kind Kind) *Column {
	if r.err != nil {
		return nil
	}
	c := r.cols[name]
	if c == nil {
		r.Failf("missing column %q", name)
		return nil
	}
	if c.Kind != kind {
		r.Failf("column %q has kind %d, want %d", name, c.Kind, kind)
		return nil
	}
	return c
}

// U32 returns the named u32 column.
func (r *Reader) U32(name string) []uint32 {
	if c := r.col(name, KindU32); c != nil {
		return c.U32
	}
	return nil
}

// U64 returns the named u64 column.
func (r *Reader) U64(name string) []uint64 {
	if c := r.col(name, KindU64); c != nil {
		return c.U64
	}
	return nil
}

// F64 returns the named f64 column.
func (r *Reader) F64(name string) []float64 {
	if c := r.col(name, KindF64); c != nil {
		return c.F64
	}
	return nil
}

// U8 returns the named u8 column: a read-only view of the decoded
// image, valid while it is (see Column).
func (r *Reader) U8(name string) []uint8 {
	if c := r.col(name, KindU8); c != nil {
		return c.U8
	}
	return nil
}

// Addr returns the named address column.
func (r *Reader) Addr(name string) []netip.Addr {
	if c := r.col(name, KindAddr); c != nil {
		return c.Addr
	}
	return nil
}

// Str returns the named string column.
func (r *Reader) Str(name string) []string {
	if c := r.col(name, KindString); c != nil {
		return c.Str
	}
	return nil
}

// Rows checks that the named columns exist and are parallel, and
// returns their shared row count (0 after a failure).
func (r *Reader) Rows(names ...string) int {
	n := -1
	for _, name := range names {
		if r.err != nil {
			return 0
		}
		c := r.cols[name]
		if c == nil {
			r.Failf("missing column %q", name)
			return 0
		}
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			r.Failf("column %q has %d rows, %q has %d", name, c.Len(), names[0], n)
			return 0
		}
	}
	return max(n, 0)
}

// FlatLen checks a flat list column against its count column: a
// list-valued field is stored as a "<name>.n" count per row plus one
// flat "<name>" column holding every row's values in order.
func (r *Reader) FlatLen(counts []uint32, flat string) {
	if r.err != nil {
		return
	}
	sum := 0
	for _, n := range counts {
		sum += int(n)
	}
	if c := r.cols[flat]; c == nil {
		r.Failf("missing column %q", flat)
	} else if c.Len() != sum {
		r.Failf("column %q has %d values, counts sum to %d", flat, c.Len(), sum)
	}
}

// PackedAddrs returns the n addresses of a column written by
// Cols.PackedAddrs.
func (r *Reader) PackedAddrs(name string, n int) []netip.Addr {
	b := r.U8(name)
	if r.err != nil {
		return nil
	}
	out := make([]netip.Addr, n)
	for i := range out {
		if len(b) == 0 {
			r.Failf("column %q exhausted at address %d of %d", name, i, n)
			return nil
		}
		l := int(b[0])
		b = b[1:]
		if l > len(b) {
			r.Failf("column %q address %d claims %d bytes, %d remain", name, i, l, len(b))
			return nil
		}
		if l == 0 {
			continue // the zero Addr
		}
		a, ok := netip.AddrFromSlice(b[:l])
		if !ok {
			r.Failf("column %q address %d has bad length %d", name, i, l)
			return nil
		}
		out[i] = a
		b = b[l:]
	}
	if len(b) != 0 {
		r.Failf("column %q has %d trailing bytes after %d addresses", name, len(b), n)
		return nil
	}
	return out
}

// PackedIPv4 returns the n addresses of a column written by
// Cols.PackedAddrs or Cols.PackedIPv4 as IPv4 words, 0 for the zero
// Addr, in one allocation. An address of any other family fails the
// read: callers use it for columns that hold IPv4 alone.
func (r *Reader) PackedIPv4(name string, n int) []uint32 {
	b := r.U8(name)
	if r.err != nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		if len(b) == 0 {
			r.Failf("column %q exhausted at address %d of %d", name, i, n)
			return nil
		}
		switch l := int(b[0]); {
		case l == 0:
			b = b[1:] // the zero Addr
		case l != 4:
			r.Failf("column %q address %d has length %d, want an IPv4 address", name, i, l)
			return nil
		case len(b) < 5:
			r.Failf("column %q address %d claims 4 bytes, %d remain", name, i, len(b)-1)
			return nil
		default:
			w := uint32(b[1])<<24 | uint32(b[2])<<16 | uint32(b[3])<<8 | uint32(b[4])
			if w == 0 {
				r.Failf("column %q address %d is 0.0.0.0, which the word form cannot carry", name, i)
				return nil
			}
			out[i] = w
			b = b[5:]
		}
	}
	if len(b) != 0 {
		r.Failf("column %q has %d trailing bytes after %d addresses", name, len(b), n)
		return nil
	}
	return out
}
