package core

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"sort"

	"rpeer/internal/pingsim"
	"rpeer/internal/snapshot"
)

// This file is the bridge between the live context and the durable
// column format (internal/snapshot). The full engine state is huge but
// almost all of it is regenerable: the world, the colo database, the
// traceroute corpus and the base ping campaign are deterministic
// functions of the base inputs. Only the delta-mutable slice needs to
// be durable:
//
//   - registry membership (IfaceIXP / IfaceASN / Ports) — churned by
//     joins and leaves;
//   - the cumulative ping override overlay — layered by re-campaigns.
//
// DumpColumns captures exactly that slice as flat columns, and
// RestoreInputs patches it back over freshly regenerated base inputs.
// The round-trip contract (proved by TestPersistRoundTrip and the rpi
// recovery tests) is that a context built over RestoreInputs(base,
// DumpColumns()) produces byte-identical reports to the context that
// was dumped — it leans on the engine's existing determinism contract
// (post-Apply state ≡ cold rebuild over Inputs()).

// Fingerprint hashes the identifying characteristics of base inputs:
// the seed, the prefix plane, the advertised minimum ports, the
// vantage-point roster and the corpus size. Snapshots and WAL segments
// carry it so that recovery refuses to marry durable state to a
// different world (same directory, different -seed/-scale flags).
// It is not a content hash of the full inputs — it fingerprints the
// generator configuration those inputs are a deterministic function
// of.
func Fingerprint(in Inputs) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	u64(uint64(in.Seed))
	if ds := in.Dataset; ds != nil {
		prefixes := make([]string, 0, len(ds.PrefixIXP))
		for p, name := range ds.PrefixIXP {
			prefixes = append(prefixes, p.String()+"="+name)
		}
		sort.Strings(prefixes)
		u64(uint64(len(prefixes)))
		for _, s := range prefixes {
			str(s)
		}
		mins := make([]string, 0, len(ds.MinPort))
		for name, mbps := range ds.MinPort {
			mins = append(mins, fmt.Sprintf("%s=%d", name, mbps))
		}
		sort.Strings(mins)
		u64(uint64(len(mins)))
		for _, s := range mins {
			str(s)
		}
	}
	if in.Ping != nil {
		u64(uint64(len(in.Ping.VPs)))
		for _, vp := range in.Ping.VPs {
			u64(uint64(vp.ID))
			str(vp.SrcIP.String())
		}
	}
	u64(uint64(in.Paths.Len()))
	return h.Sum64()
}

// DumpColumns captures the delta-mutable slice of the context's state
// as snapshot columns, through the row codecs every persisted format
// shares: registry membership (Dataset.AppendMembership) and the ping
// override overlay (pingsim.AppendAggCols). The caller (the rpi
// persistence layer) stamps Seq and Fingerprint on the returned Snap.
// Rows are in natural-key order, so the same engine state always dumps
// byte-identical columns.
//
// DumpColumns must not run concurrently with Apply; the rpi engine
// serializes them behind its lock.
func (c *Context) DumpColumns() *snapshot.Snap {
	s := &snapshot.Snap{}
	c.in.Dataset.AppendMembership(&s.Columns)
	var overlay []pingsim.AggRow
	if c.in.Ping != nil {
		overlay = c.in.Ping.OverlayRows()
	}
	pingsim.AppendAggCols(&s.Columns, overlay)
	return s
}

// RestoreInputs patches the delta-mutable columns of a snapshot over
// regenerated base inputs, returning the Inputs a post-delta context
// would report via Inputs(). The base dataset is cloned, never
// mutated; base.Ping gains the persisted override overlay.
//
// Column-level integrity (checksums, truncation) is the snapshot
// decoder's job; RestoreInputs validates cross-column referential
// integrity — name-table indexes in range, vantage-point ids known to
// the base campaign — because a snapshot from a different world can be
// internally consistent yet reference entities the base lacks.
func RestoreInputs(base Inputs, s *snapshot.Snap) (Inputs, error) {
	if base.Dataset == nil {
		return Inputs{}, fmt.Errorf("core: restore needs base dataset")
	}
	rd := s.Reader()
	ds := base.Dataset.Clone()
	ds.ReadMembership(rd)
	overlay := pingsim.ReadAggCols(rd, base.Ping.VP)
	if err := rd.Err(); err != nil {
		return Inputs{}, fmt.Errorf("core: snapshot: %w", err)
	}
	base.Dataset = ds
	if len(overlay) > 0 {
		if base.Ping == nil {
			return Inputs{}, fmt.Errorf("core: snapshot carries %d ping overrides but base has no campaign", len(overlay))
		}
		ov := make(map[netip.Addr]pingsim.IfaceAgg, len(overlay))
		for _, row := range overlay {
			ov[row.Iface] = *row.Agg
		}
		base.Ping = base.Ping.WithOverrides(ov)
	}
	return base, nil
}
