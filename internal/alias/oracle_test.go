package alias

import (
	"math"
	"net/netip"
	"sort"

	"rpeer/internal/rng"
)

// This file keeps the sample-series resolver the probe plane replaced,
// as the equivalence oracle: every interface is probed into a slice of
// (time, id) samples, and resolution runs the MBT over merged sample
// slices. The plane must produce exactly its clusters.

// sample is one (time, unwrapped-id) observation.
type sample struct {
	t  float64
	id uint16
}

type oracleSeries struct {
	samples []sample
	vel     float64
	velOK   bool
}

func oracleSampleSeries(p *Prober, iface netip.Addr, rounds int, spacing, offset float64) []sample {
	rid, ok := p.w.RouterOf(iface)
	if !ok {
		return nil
	}
	r := p.w.Router(rid)
	if !p.usableCounter(r) {
		return nil
	}
	lo, hi := addrWords(iface)
	base := rng.Key2(p.seed, lo, hi)
	out := make([]sample, 0, rounds)
	for i := 0; i < rounds; i++ {
		t := float64(i)*spacing + offset
		ht := rng.Mix(base, math.Float64bits(t))
		if float64(rng.Mix(ht, 0x5A)>>11)/(1<<53) < p.NoReplyProb {
			continue
		}
		jitter := float64(rng.Mix(ht, 0x33)>>11) / (1 << 53)
		v := float64(r.IPIDInit) + r.IPIDRate*t + jitter*3
		out = append(out, sample{t, uint16(uint64(v) % 65536)})
	}
	return out
}

func oracleVelocity(s []sample) (rate float64, ok bool) {
	if len(s) < 5 {
		return 0, false
	}
	var sx, sy, sxx, sxy float64
	offset := 0.0
	prev := float64(s[0].id)
	for i, smp := range s {
		cur := float64(smp.id)
		if i > 0 && cur < prev {
			offset += 65536
		}
		prev = cur
		v := cur + offset
		sx += smp.t
		sy += v
		sxx += smp.t * smp.t
		sxy += smp.t * v
	}
	n := float64(len(s))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, false
	}
	return (n*sxy - sx*sy) / den, true
}

func oracleMBT(sa, sb *oracleSeries) bool {
	a, b := sa.samples, sb.samples
	if len(a) < 5 || len(b) < 5 {
		return false
	}
	if !sa.velOK || !sb.velOK {
		return false
	}
	va, vb := sa.vel, sb.vel
	if math.Abs(va-vb) > 0.05*math.Max(va, vb)+2 {
		return false
	}
	rate := (va + vb) / 2
	i, j := 0, 0
	var prev sample
	for i < len(a) || j < len(b) {
		var cur sample
		if j >= len(b) || (i < len(a) && a[i].t <= b[j].t) {
			cur = a[i]
			i++
		} else {
			cur = b[j]
			j++
		}
		if i+j > 1 {
			dt := cur.t - prev.t
			expect := rate * dt
			diff := float64(cur.id) - float64(prev.id)
			if diff < 0 {
				diff += 65536
			}
			if math.Abs(diff-expect) > 0.35*expect+25 {
				return false
			}
		}
		prev = cur
	}
	return true
}

// oracleResolve is the replaced Resolver.Resolve (30 rounds, 10 s
// spacing), minus its per-address memo, which never changed a result.
func oracleResolve(p *Prober, mode Mode, ifaces []netip.Addr) [][]netip.Addr {
	const rounds, spacing = 30, 10.0
	sorted := append([]netip.Addr(nil), ifaces...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	dedup := sorted[:0]
	for i, ip := range sorted {
		if i == 0 || ip != sorted[i-1] {
			dedup = append(dedup, ip)
		}
	}
	sorted = dedup

	series := make([]*oracleSeries, len(sorted))
	for i, ip := range sorted {
		lo, hi := addrWords(ip)
		offset := float64(rng.Key3(p.seed, lo, hi, 0x0f)%7) * (spacing / 7)
		s := &oracleSeries{samples: oracleSampleSeries(p, ip, rounds, spacing, offset)}
		s.vel, s.velOK = oracleVelocity(s.samples)
		series[i] = s
	}

	parent := make([]int32, len(sorted))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for i := 0; i < len(sorted); i++ {
		si := series[i]
		if !si.velOK {
			continue
		}
		for j := i + 1; j < len(sorted); j++ {
			sj := series[j]
			if !sj.velOK || find(int32(i)) == find(int32(j)) {
				continue
			}
			va, vb := si.vel, sj.vel
			if math.Abs(va-vb) > 0.10*math.Max(va, vb)+5 {
				continue
			}
			switch mode {
			case ModePrecision:
				if oracleMBT(si, sj) {
					union(int32(i), int32(j))
				}
			case ModeCoverage:
				if oracleMBT(si, sj) || math.Abs(va-vb) < 0.02*math.Max(va, vb)+1 {
					union(int32(i), int32(j))
				}
			}
		}
	}

	groups := make(map[int32][]netip.Addr, len(sorted))
	var roots []int32
	for i, ip := range sorted {
		root := find(int32(i))
		if _, ok := groups[root]; !ok {
			roots = append(roots, root)
		}
		groups[root] = append(groups[root], ip)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	out := make([][]netip.Addr, 0, len(roots))
	for _, root := range roots {
		out = append(out, groups[root])
	}
	return out
}
