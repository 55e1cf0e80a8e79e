// Package snapshot persists the engine's columnar state: a snapshot
// file is a small manifest header followed by named, typed columns —
// the columns themselves (interface addresses, ASNs, IXP ids, port
// capacities, campaign overrides), not the object graph they back
// (DESIGN.md §9/§10: strings and maps live at the edges; durable state
// is flat arrays).
//
// File layout (little-endian):
//
//	magic "RPISNP01" | u32 format version | u64 seq | u64 fingerprint
//	u32 #columns | column... | u32 CRC32C(everything before)
//
// and each column is
//
//	u16 name length | name | u8 kind | u32 #values | packed values
//
// A snapshot is published atomically: written to a .tmp name, fsynced,
// renamed into place, directory fsynced. Readers validate the trailing
// checksum over the whole file before trusting anything, so a torn or
// bit-rotted snapshot is skipped (recovery falls back to the previous
// one plus a longer log replay), never half-loaded.
//
// The package also holds the column plumbing every persisted format
// shares: Cols builds a column group, Reader reads one by name with
// kind and row-count checks, and ByteReader is the bounds-checked
// byte reader under snapshot files, column groups and WAL records.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/netip"
	"sort"
	"strconv"
	"strings"

	"rpeer/internal/wal"
)

// Magic identifies a snapshot file.
const Magic = "RPISNP01"

// FormatVersion is the current snapshot format.
const FormatVersion = 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrInvalid marks a snapshot file that failed validation (bad magic,
// bad checksum, truncated, unknown column kind). Wrapped errors carry
// detail.
var ErrInvalid = errors.New("snapshot: invalid snapshot file")

// Kind tags a column's element type.
type Kind uint8

// Column kinds.
const (
	KindU32 Kind = iota + 1
	KindU64
	KindF64
	KindU8
	// KindAddr packs netip addresses as len-prefixed bytes (4 or 16).
	KindAddr
	// KindString packs strings as u16-len-prefixed UTF-8.
	KindString
)

// Column is one named, typed value column. Exactly the field matching
// Kind is populated. A decoded u8 column is a read-only view of the
// image it was decoded from: decoders read it while they decode and
// keep nothing of it, or the image would stay live with it.
type Column struct {
	Name string
	Kind Kind
	U32  []uint32
	U64  []uint64
	F64  []float64
	U8   []uint8
	Addr []netip.Addr
	Str  []string
}

// Len returns the column's value count.
func (c *Column) Len() int {
	switch c.Kind {
	case KindU32:
		return len(c.U32)
	case KindU64:
		return len(c.U64)
	case KindF64:
		return len(c.F64)
	case KindU8:
		return len(c.U8)
	case KindAddr:
		return len(c.Addr)
	case KindString:
		return len(c.Str)
	}
	return 0
}

// Snap is one decoded snapshot: a manifest (sequence number plus the
// base-world fingerprint it extends) and its columns.
type Snap struct {
	// Seq is the engine delta sequence the snapshot captures: a
	// recovery that loads it replays only log records with seq > Seq.
	Seq uint64
	// Fingerprint identifies the base inputs the columns patch; Open
	// refuses to marry a snapshot to a different world.
	Fingerprint uint64
	Columns     Cols
}

// Add appends a column.
func (s *Snap) Add(c Column) { s.Columns = append(s.Columns, c) }

// Reader returns a named reader over the snapshot's columns.
func (s *Snap) Reader() *Reader { return newReader(s.Columns) }

// Col returns the named column, or nil.
func (s *Snap) Col(name string) *Column {
	for i := range s.Columns {
		if s.Columns[i].Name == name {
			return &s.Columns[i]
		}
	}
	return nil
}

// Encode serializes the snapshot with its trailing checksum.
func (s *Snap) Encode() []byte {
	b := make([]byte, 0, 1024)
	b = append(b, Magic...)
	b = binary.LittleEndian.AppendUint32(b, FormatVersion)
	b = binary.LittleEndian.AppendUint64(b, s.Seq)
	b = binary.LittleEndian.AppendUint64(b, s.Fingerprint)
	b = appendColumns(b, s.Columns)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// appendColumns appends a column group: a u32 column count, then the
// columns.
func appendColumns(b []byte, cols []Column) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cols)))
	for i := range cols {
		b = appendColumn(b, &cols[i])
	}
	return b
}

func appendColumn(b []byte, c *Column) []byte {
	b = AppendStr(b, c.Name)
	b = append(b, byte(c.Kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(c.Len()))
	switch c.Kind {
	case KindU32:
		for _, v := range c.U32 {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
	case KindU64:
		for _, v := range c.U64 {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	case KindF64:
		for _, v := range c.F64 {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	case KindU8:
		b = append(b, c.U8...)
	case KindAddr:
		for _, a := range c.Addr {
			b = AppendAddr(b, a)
		}
	case KindString:
		for _, v := range c.Str {
			b = AppendStr(b, v)
		}
	}
	return b
}

// AppendAddr appends an address as a u8 length (4 or 16; 0 for the
// zero Addr) and its raw bytes.
func AppendAddr(b []byte, a netip.Addr) []byte {
	raw := a.AsSlice()
	b = append(b, byte(len(raw)))
	return append(b, raw...)
}

// AppendStr appends a string as a u16 length and its bytes.
func AppendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// EncodeColumns serializes a bare column group — u32 column count
// followed by the columns in the snapshot wire encoding — without the
// snapshot header or trailing checksum. Containers that frame and
// checksum their own sections (internal/worldfile) embed column groups
// this way.
func EncodeColumns(cols []Column) []byte {
	return appendColumns(make([]byte, 0, 1024), cols)
}

// ReadColumns decodes a column group written by EncodeColumns and
// returns a reader over it. The whole payload must be consumed;
// trailing garbage is an error.
func ReadColumns(data []byte) (*Reader, error) {
	d := NewByteReader(data)
	cols, err := readColumns(d)
	if err != nil {
		return nil, err
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after column group", ErrInvalid, d.Len())
	}
	return newReader(cols), nil
}

// readColumns reads a column group off d.
func readColumns(d *ByteReader) ([]Column, error) {
	nCols := int(d.U32())
	cols := make([]Column, 0, min(nCols, d.Len()))
	for i := 0; i < nCols && d.err == nil; i++ {
		c, err := decodeColumn(d)
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, d.err)
	}
	return cols, nil
}

// decodeColumn parses one column off the reader. Kind errors are
// returned directly; length errors surface through d.Err.
func decodeColumn(d *ByteReader) (Column, error) {
	c := Column{}
	c.Name = d.Str()
	c.Kind = Kind(d.U8())
	n := int(d.U32())
	if n > d.Len() && d.err == nil {
		// Every value takes at least one byte: a count past the end is
		// truncation, caught before it sizes an allocation.
		d.err = io.ErrUnexpectedEOF
	}
	if d.err != nil {
		return c, nil
	}
	switch c.Kind {
	case KindU32:
		c.U32 = make([]uint32, n)
		for j := range c.U32 {
			c.U32[j] = d.U32()
		}
	case KindU64:
		c.U64 = make([]uint64, n)
		for j := range c.U64 {
			c.U64[j] = d.U64()
		}
	case KindF64:
		c.F64 = make([]float64, n)
		for j := range c.F64 {
			c.F64[j] = math.Float64frombits(d.U64())
		}
	case KindU8:
		b := d.Take(n)
		c.U8 = b[:n:n]
	case KindAddr:
		c.Addr = make([]netip.Addr, n)
		for j := range c.Addr {
			c.Addr[j] = d.Addr()
		}
	case KindString:
		c.Str = make([]string, n)
		for j := range c.Str {
			c.Str[j] = d.Str()
		}
	default:
		return c, fmt.Errorf("%w: unknown column kind %d", ErrInvalid, c.Kind)
	}
	return c, nil
}

// Decode parses and validates a snapshot file image.
func Decode(data []byte) (*Snap, error) {
	if len(data) < len(Magic)+4+8+8+4+4 {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrInvalid, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrInvalid)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrInvalid)
	}
	d := &ByteReader{b: body[len(Magic):]}
	ver := d.U32()
	if ver > FormatVersion {
		return nil, fmt.Errorf("%w: format v%d newer than supported v%d", ErrInvalid, ver, FormatVersion)
	}
	s := &Snap{Seq: d.U64(), Fingerprint: d.U64()}
	cols, err := readColumns(d)
	if err != nil {
		return nil, err
	}
	s.Columns = cols
	return s, nil
}

// ByteReader is a bounds-checked little-endian reader over one
// encoded image (a snapshot, a column group, a WAL record). Errors are
// sticky: the first short read or malformed address is kept in Err
// and every later read returns a zero value.
type ByteReader struct {
	b   []byte
	err error
}

// NewByteReader reads b from its start.
func NewByteReader(b []byte) *ByteReader { return &ByteReader{b: b} }

// Err returns the first read error, nil if every read so far fit.
func (d *ByteReader) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *ByteReader) Len() int { return len(d.b) }

// Take returns the next n bytes (aliasing the image), or nil when
// fewer remain.
func (d *ByteReader) Take(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.b) {
		if d.err == nil {
			d.err = io.ErrUnexpectedEOF
		}
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// U8 reads one byte.
func (d *ByteReader) U8() uint8 {
	b := d.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *ByteReader) u16() uint16 {
	b := d.Take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *ByteReader) U32() uint32 {
	b := d.Take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *ByteReader) U64() uint64 {
	b := d.Take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Addr reads an address written by AppendAddr; the zero Addr is an
// error (only 4- and 16-byte addresses are valid here).
func (d *ByteReader) Addr() netip.Addr {
	raw := d.Take(int(d.U8()))
	a, ok := netip.AddrFromSlice(raw)
	if !ok && d.err == nil {
		d.err = fmt.Errorf("bad address of %d bytes", len(raw))
	}
	return a
}

// Str reads a string written by AppendStr.
func (d *ByteReader) Str() string { return string(d.Take(int(d.u16()))) }

// ---------------------------------------------------------------------------
// Directory layout

const (
	filePrefix = "snap-"
	fileSuffix = ".rpisnap"
)

// FileName returns the published name of a snapshot at seq.
func FileName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", filePrefix, seq, fileSuffix)
}

// seqOf parses a published snapshot file name.
func seqOf(name string) (uint64, bool) {
	if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, filePrefix), fileSuffix)
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Write publishes a snapshot into dir under its seq-derived name
// through wal.WriteFileAtomic: on any error nothing is published.
func Write(fsys wal.FS, dir string, s *Snap) (string, error) {
	final := dir + "/" + FileName(s.Seq)
	if err := wal.WriteFileAtomic(fsys, final, s.Encode()); err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	return final, nil
}

// Entry is one published snapshot found in a directory.
type Entry struct {
	Name string
	Seq  uint64
}

// List returns the published snapshots in dir, newest (highest seq)
// first. Tmp leftovers and foreign files are ignored.
func List(fsys wal.FS, dir string) ([]Entry, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, n := range names {
		if seq, ok := seqOf(n); ok {
			out = append(out, Entry{Name: n, Seq: seq})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out, nil
}

// Load reads and validates one snapshot file.
func Load(fsys wal.FS, dir, name string) (*Snap, error) {
	f, err := fsys.Open(dir + "/" + name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Latest loads the newest valid snapshot in dir whose seq is <= maxSeq
// (use ^uint64(0) for "any"). Invalid snapshots are skipped — recovery
// prefers an older good snapshot plus more log replay over trusting
// damaged columns — and their names are reported in skipped. ok is
// false when no valid snapshot exists.
func Latest(fsys wal.FS, dir string, maxSeq uint64) (s *Snap, name string, skipped []string, ok bool, err error) {
	entries, err := List(fsys, dir)
	if err != nil {
		return nil, "", nil, false, err
	}
	for _, e := range entries {
		if e.Seq > maxSeq {
			continue
		}
		snap, lerr := Load(fsys, dir, e.Name)
		if lerr != nil {
			skipped = append(skipped, fmt.Sprintf("%s (%v)", e.Name, lerr))
			continue
		}
		return snap, e.Name, skipped, true, nil
	}
	return nil, "", skipped, false, nil
}
