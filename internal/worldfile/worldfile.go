// Package worldfile is the binary columnar world interchange format:
// one .rpw file carries a complete inference input bundle (world,
// merged registry dataset, colocation database, ping campaign in folded
// aggregate form, traceroute corpus, speed model, seed), so world
// generation is paid once per world — by cmd/rpi-gen — and every
// serving process (rpi-serve, rpi-bot, the scaling benchmarks) loads it
// back in seconds with one large read and column slicing.
//
// File layout (little-endian):
//
//	magic "RPWFILE1" | u32 format version | u64 fingerprint | u32 #sections
//	section...
//
// and each section is
//
//	u16 name length | name | u32 payload length | payload | u32 CRC32C(payload)
//
// — the same Castagnoli checksum discipline as internal/wal frames and
// internal/snapshot files. Section payloads are column groups in the
// internal/snapshot wire encoding (except "config", which is a small
// JSON document). Rows that other formats persist too go through the
// one codec each: the dataset section's membership rows are
// registry.Dataset.AppendMembership, and the ping section is
// pingsim.EncodeCampaign, whose aggregate rows are the ones engine
// snapshots write for the override overlay. The header fingerprint is core.Fingerprint of the
// decoded bundle, recomputed and compared at load time, so a file
// cannot silently impersonate a different (seed, scale) world — and a
// loaded bundle is pinned byte-identical to in-process generation by
// TestWorldFileRoundTrip.
//
// Decoding validates every section checksum before trusting a byte and
// every cross-column reference after; any failure is a typed error
// (ErrInvalid, ErrVersion, ErrFingerprint), never a panic or a silently
// partial world.
package worldfile

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"rpeer/internal/core"
	"rpeer/internal/netsim"
	"rpeer/internal/par"
	"rpeer/internal/pingsim"
	"rpeer/internal/snapshot"
	"rpeer/internal/wal"
)

// Magic identifies a world file.
const Magic = "RPWFILE1"

// FormatVersion is the world file format this build reads and writes.
// World files are regenerable, so there is no reader for older
// versions: any other version fails with ErrVersion. Version 2 moved
// the dataset membership and the ping aggregates onto the row codecs
// engine snapshots share.
const FormatVersion = 2

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Typed failure modes. All decode errors wrap exactly one of these, so
// callers can distinguish corruption from version skew from a
// wrong-world file with errors.Is.
var (
	// ErrInvalid marks a corrupt or truncated file: bad magic, a
	// section checksum mismatch, a malformed column, or a dangling
	// cross-column reference.
	ErrInvalid = errors.New("worldfile: invalid world file")
	// ErrVersion marks a file written by another format version.
	ErrVersion = errors.New("worldfile: unsupported format version")
	// ErrFingerprint marks a structurally valid file whose content does
	// not hash to the fingerprint stamped in its header — a tampered
	// header or a bundle that is not what it claims to be.
	ErrFingerprint = errors.New("worldfile: fingerprint mismatch")
)

// Section names. Order in the file is fixed (the encode order below),
// but the decoder indexes by name and does not rely on it.
const (
	secConfig  = "config"
	secWorld   = "world"
	secDataset = "dataset"
	secColo    = "colo"
	secPing    = "ping"
	secPaths   = "paths"
	secMeta    = "meta"
)

// Encode serialises a complete input bundle into the .rpw wire form.
// The bundle's ping campaign is folded: per-interface aggregates (with
// any override overlay already applied) are written, raw per-VP
// measurements are not — see pingsim.EncodeCampaign for what a decoded
// campaign answers.
func Encode(in core.Inputs) ([]byte, error) {
	if in.World == nil || in.Dataset == nil || in.Colo == nil || in.Ping == nil {
		return nil, fmt.Errorf("worldfile: encode needs a complete input bundle (world, dataset, colo, ping)")
	}
	cfg, err := json.Marshal(in.World.Cfg)
	if err != nil {
		return nil, fmt.Errorf("worldfile: encode config: %w", err)
	}
	var ping snapshot.Cols
	pingsim.EncodeCampaign(&ping, in.Ping)
	sections := []section{
		{secConfig, cfg},
		{secWorld, encodeWorld(in.World)},
		{secDataset, encodeDataset(in.Dataset)},
		{secColo, encodeColo(in.Colo)},
		{secPing, snapshot.EncodeColumns(ping)},
		{secPaths, encodePaths(in.Paths)},
		{secMeta, encodeMeta(in)},
	}

	size := len(Magic) + 4 + 8 + 4
	for _, s := range sections {
		size += 2 + len(s.name) + 4 + len(s.payload) + 4
	}
	b := make([]byte, 0, size)
	b = append(b, Magic...)
	b = binary.LittleEndian.AppendUint32(b, FormatVersion)
	b = binary.LittleEndian.AppendUint64(b, core.Fingerprint(in))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sections)))
	for _, s := range sections {
		b = snapshot.AppendStr(b, s.name)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.payload)))
		b = append(b, s.payload...)
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(s.payload, castagnoli))
	}
	return b, nil
}

type section struct {
	name    string
	payload []byte
}

// Decode parses and validates a world file image, reassembling the
// full input bundle. Section payloads are sliced out of data without
// copying; the caller must not mutate data afterwards.
func Decode(data []byte) (core.Inputs, error) {
	payloads, fp, err := splitSections(data)
	if err != nil {
		return core.Inputs{}, err
	}
	// The world section decodes against the config section (a small
	// JSON document; every other section is a column group).
	var cfg netsim.Config
	raw, ok := payloads[secConfig]
	if !ok {
		return core.Inputs{}, fmt.Errorf("%w: missing section %q", ErrInvalid, secConfig)
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return core.Inputs{}, fmt.Errorf("%w: section %q: %v", ErrInvalid, secConfig, err)
	}
	// The sections decode concurrently: each step writes only its own
	// fields of in. Errors report as a serial decode would: the first
	// failing section in section order.
	var in core.Inputs
	steps := []struct {
		name string
		dec  func(*snapshot.Reader) error
	}{
		{secWorld, func(rd *snapshot.Reader) (err error) {
			in.World, err = decodeWorld(cfg, rd)
			return err
		}},
		{secDataset, func(rd *snapshot.Reader) (err error) {
			in.Dataset, err = decodeDataset(rd)
			return err
		}},
		{secColo, func(rd *snapshot.Reader) (err error) {
			in.Colo, err = decodeColo(rd)
			return err
		}},
		{secPing, func(rd *snapshot.Reader) error {
			in.Ping = pingsim.DecodeCampaign(rd)
			return rd.Err()
		}},
		{secPaths, func(rd *snapshot.Reader) (err error) {
			in.Paths, err = decodePaths(rd)
			return err
		}},
		{secMeta, func(rd *snapshot.Reader) error { return decodeMeta(rd, &in) }},
	}
	errs := make([]error, len(steps))
	par.Do(0, len(steps), 1, func(i, _ int) {
		step := steps[i]
		p, ok := payloads[step.name]
		if !ok {
			errs[i] = fmt.Errorf("%w: missing section %q", ErrInvalid, step.name)
			return
		}
		rd, err := snapshot.ReadColumns(p)
		if err == nil {
			err = step.dec(rd)
		}
		if err != nil {
			errs[i] = fmt.Errorf("%w: section %q: %v", ErrInvalid, step.name, err)
		}
	})
	for _, err := range errs {
		if err != nil {
			return core.Inputs{}, err
		}
	}
	if got := core.Fingerprint(in); got != fp {
		return core.Inputs{}, fmt.Errorf("%w: header says %016x, content hashes to %016x", ErrFingerprint, fp, got)
	}
	return in, nil
}

// splitSections validates the container framing and returns the
// checksum-verified payload of each section (zero-copy slices of data)
// plus the header fingerprint.
func splitSections(data []byte) (map[string][]byte, uint64, error) {
	headerLen := len(Magic) + 4 + 8 + 4
	if len(data) < headerLen {
		return nil, 0, fmt.Errorf("%w: %d bytes is too short", ErrInvalid, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrInvalid)
	}
	off := len(Magic)
	ver := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if ver != FormatVersion {
		return nil, 0, fmt.Errorf("%w: file is v%d, this build reads v%d (regenerate it with rpi-gen)", ErrVersion, ver, FormatVersion)
	}
	fp := binary.LittleEndian.Uint64(data[off:])
	off += 8
	nSections := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	payloads := make(map[string][]byte, nSections)
	for i := 0; i < nSections; i++ {
		if off+2 > len(data) {
			return nil, 0, fmt.Errorf("%w: truncated in section %d header", ErrInvalid, i)
		}
		nameLen := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+nameLen+4 > len(data) {
			return nil, 0, fmt.Errorf("%w: truncated in section %d name", ErrInvalid, i)
		}
		name := string(data[off : off+nameLen])
		off += nameLen
		payloadLen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if payloadLen < 0 || off+payloadLen+4 > len(data) {
			return nil, 0, fmt.Errorf("%w: section %q truncated (%d payload bytes claimed, %d remain)",
				ErrInvalid, name, payloadLen, len(data)-off)
		}
		payload := data[off : off+payloadLen]
		off += payloadLen
		sum := binary.LittleEndian.Uint32(data[off:])
		off += 4
		if crc32.Checksum(payload, castagnoli) != sum {
			return nil, 0, fmt.Errorf("%w: section %q checksum mismatch", ErrInvalid, name)
		}
		if _, dup := payloads[name]; dup {
			return nil, 0, fmt.Errorf("%w: duplicate section %q", ErrInvalid, name)
		}
		payloads[name] = payload
	}
	if off != len(data) {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes after last section", ErrInvalid, len(data)-off)
	}
	return payloads, fp, nil
}

// Write publishes the bundle to path through wal.WriteFileAtomic, so
// a crash mid-write never leaves a half world behind the final name.
func Write(fsys wal.FS, path string, in core.Inputs) error {
	b, err := Encode(in)
	if err != nil {
		return err
	}
	if err := wal.WriteFileAtomic(fsys, path, b); err != nil {
		return fmt.Errorf("worldfile: %w", err)
	}
	return nil
}

// WriteFile is Write over the real filesystem.
func WriteFile(path string, in core.Inputs) error {
	return Write(wal.OS(), path, in)
}

// Load reads a world file with one large read and decodes it.
func Load(path string) (core.Inputs, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return core.Inputs{}, fmt.Errorf("worldfile: read %s: %w", path, err)
	}
	in, err := Decode(data)
	if err != nil {
		return core.Inputs{}, fmt.Errorf("worldfile: load %s: %w", path, err)
	}
	return in, nil
}
