package worldfile

import (
	"cmp"
	"fmt"
	"math"
	"net/netip"
	"sort"

	"rpeer/internal/core"
	"rpeer/internal/geo"
	"rpeer/internal/ip4"
	"rpeer/internal/netsim"
	"rpeer/internal/registry"
	"rpeer/internal/snapshot"
	"rpeer/internal/traix"
)

// This file maps the world, dataset, colo, paths and meta components
// of an input bundle to and from their sections' column groups; the
// ping section is pingsim's campaign codec, and the dataset section's
// membership rows are the registry codec engine snapshots share.
// Encoding is deterministic: map-backed data is emitted in sorted
// natural-key order, slice-backed data in slice order (which
// generation fixes), so the same bundle always encodes byte-identical.
// Decoding validates every cross-column length and reference through
// the snapshot.Reader; Decode reports every failure as ErrInvalid —
// the checksum layer has already run, so anything caught here is a
// malformed writer, not bit rot.

// ---------------------------------------------------------------------------
// world

// ixp.flags / as.flags bits.
const (
	ixpFlagResellers = 1 << 0
	ixpFlagLG        = 1 << 1
	ixpFlagWideArea  = 1 << 2

	asFlagReseller = 1 << 0
)

func encodeWorld(w *netsim.World) []byte { return snapshot.EncodeColumns(worldCols(w)) }

// worldCols lays the world out as the world section's columns.
func worldCols(w *netsim.World) snapshot.Cols {
	p := w.Parts()
	var c snapshot.Cols

	// Cities.
	n := len(p.Cities)
	cityName := make([]string, n)
	cityCountry := make([]string, n)
	cityLat := make([]float64, n)
	cityLon := make([]float64, n)
	cityWeight := make([]float64, n)
	for i, ct := range p.Cities {
		cityName[i], cityCountry[i] = ct.Name, ct.Country
		cityLat[i], cityLon[i], cityWeight[i] = ct.Loc.Lat, ct.Loc.Lon, ct.Weight
	}
	c.Str("city.name", cityName)
	c.Str("city.country", cityCountry)
	c.F64("city.lat", cityLat)
	c.F64("city.lon", cityLon)
	c.F64("city.weight", cityWeight)

	// Facilities.
	n = len(p.Facilities)
	facID := make([]uint32, n)
	facName := make([]string, n)
	facCity := make([]string, n)
	facCountry := make([]string, n)
	facLat := make([]float64, n)
	facLon := make([]float64, n)
	for i, f := range p.Facilities {
		facID[i] = uint32(f.ID)
		facName[i], facCity[i], facCountry[i] = f.Name, f.City, f.Country
		facLat[i], facLon[i] = f.Loc.Lat, f.Loc.Lon
	}
	c.U32("fac.id", facID)
	c.Str("fac.name", facName)
	c.Str("fac.city", facCity)
	c.Str("fac.country", facCountry)
	c.F64("fac.lat", facLat)
	c.F64("fac.lon", facLon)

	// IXPs.
	n = len(p.IXPs)
	ixpID := make([]uint32, n)
	ixpName := make([]string, n)
	ixpLAN := make([]string, n)
	ixpMgmt := make([]string, n)
	ixpRS := make([]netip.Addr, n)
	ixpMinPort := make([]uint32, n)
	ixpFed := make([]uint32, n)
	ixpAtlas := make([]uint32, n)
	ixpFlags := make([]uint8, n)
	ixpFacN := make([]uint32, n)
	var ixpFac []uint32
	ixpPortN := make([]uint32, n)
	var ixpPort []uint32
	for i, ix := range p.IXPs {
		ixpID[i] = uint32(ix.ID)
		ixpName[i] = ix.Name
		ixpLAN[i] = ix.PeeringLAN.String()
		ixpMgmt[i] = ix.MgmtLAN.String()
		ixpRS[i] = ix.RouteServer
		ixpMinPort[i] = uint32(ix.MinPortMbps)
		ixpFed[i] = uint32(ix.FederationID)
		ixpAtlas[i] = uint32(ix.AtlasProbes)
		var fl uint8
		if ix.AllowsResellers {
			fl |= ixpFlagResellers
		}
		if ix.HasLG {
			fl |= ixpFlagLG
		}
		if ix.WideArea {
			fl |= ixpFlagWideArea
		}
		ixpFlags[i] = fl
		ixpFacN[i] = uint32(len(ix.Facilities))
		for _, f := range ix.Facilities {
			ixpFac = append(ixpFac, uint32(f))
		}
		ixpPortN[i] = uint32(len(ix.PortOptionsMbps))
		for _, mbps := range ix.PortOptionsMbps {
			ixpPort = append(ixpPort, uint32(mbps))
		}
	}
	c.U32("ixp.id", ixpID)
	c.Str("ixp.name", ixpName)
	c.Str("ixp.lan", ixpLAN)
	c.Str("ixp.mgmt", ixpMgmt)
	c.Addr("ixp.rs", ixpRS)
	c.U32("ixp.minport", ixpMinPort)
	c.U32("ixp.fed", ixpFed)
	c.U32("ixp.atlas", ixpAtlas)
	c.U8("ixp.flags", ixpFlags)
	c.U32("ixp.facs.n", ixpFacN)
	c.U32("ixp.facs", ixpFac)
	c.U32("ixp.portopts.n", ixpPortN)
	c.U32("ixp.portopts", ixpPort)

	// ASes (sorted ASN order via Parts).
	n = len(p.ASes)
	asASN := make([]uint32, n)
	asName := make([]string, n)
	asCountry := make([]string, n)
	asHomeCity := make([]string, n)
	asHomeLat := make([]float64, n)
	asHomeLon := make([]float64, n)
	asTraffic := make([]float64, n)
	asTier := make([]uint8, n)
	asFlags := make([]uint8, n)
	asFacN := make([]uint32, n)
	var asFac []uint32
	asProvN := make([]uint32, n)
	var asProv []uint32
	asPopN := make([]uint32, n)
	var asPop []uint32
	for i, as := range p.ASes {
		asASN[i] = uint32(as.ASN)
		asName[i], asCountry[i], asHomeCity[i] = as.Name, as.Country, as.HomeCity
		asHomeLat[i], asHomeLon[i] = as.HomeLoc.Lat, as.HomeLoc.Lon
		asTraffic[i] = as.TrafficMbps
		asTier[i] = uint8(as.Tier)
		if as.IsReseller {
			asFlags[i] |= asFlagReseller
		}
		asFacN[i] = uint32(len(as.Facilities))
		for _, f := range as.Facilities {
			asFac = append(asFac, uint32(f))
		}
		asProvN[i] = uint32(len(as.Providers))
		for _, pr := range as.Providers {
			asProv = append(asProv, uint32(pr))
		}
		asPopN[i] = uint32(len(as.ResellerPOPs))
		for _, f := range as.ResellerPOPs {
			asPop = append(asPop, uint32(f))
		}
	}
	c.U32("as.asn", asASN)
	c.Str("as.name", asName)
	c.Str("as.country", asCountry)
	c.Str("as.homecity", asHomeCity)
	c.F64("as.homelat", asHomeLat)
	c.F64("as.homelon", asHomeLon)
	c.F64("as.traffic", asTraffic)
	c.U8("as.tier", asTier)
	c.U8("as.flags", asFlags)
	c.U32("as.facs.n", asFacN)
	c.U32("as.facs", asFac)
	c.U32("as.providers.n", asProvN)
	c.U32("as.providers", asProv)
	c.U32("as.pops.n", asPopN)
	c.U32("as.pops", asPop)

	// Routers (sorted ID order via Parts).
	n = len(p.Routers)
	rtrID := make([]uint32, n)
	rtrOwner := make([]uint32, n)
	rtrFac := make([]uint32, n)
	rtrLat := make([]float64, n)
	rtrLon := make([]float64, n)
	rtrIPIDInit := make([]uint32, n)
	rtrIPIDRate := make([]float64, n)
	rtrIfaceN := make([]uint32, n)
	var rtrIface []netip.Addr
	rtrIXPN := make([]uint32, n)
	var rtrIXP []uint32
	for i, r := range p.Routers {
		rtrID[i] = uint32(r.ID)
		rtrOwner[i] = uint32(r.Owner)
		rtrFac[i] = uint32(int32(r.Facility))
		rtrLat[i], rtrLon[i] = r.Loc.Lat, r.Loc.Lon
		rtrIPIDInit[i] = r.IPIDInit
		rtrIPIDRate[i] = r.IPIDRate
		rtrIfaceN[i] = uint32(len(r.Ifaces))
		for _, ip := range r.Ifaces {
			rtrIface = append(rtrIface, ip4.Addr(ip))
		}
		rtrIXPN[i] = uint32(len(r.IXPs))
		for _, x := range r.IXPs {
			rtrIXP = append(rtrIXP, uint32(x))
		}
	}
	c.U32("rtr.id", rtrID)
	c.U32("rtr.owner", rtrOwner)
	c.U32("rtr.fac", rtrFac)
	c.F64("rtr.lat", rtrLat)
	c.F64("rtr.lon", rtrLon)
	c.U32("rtr.ipidinit", rtrIPIDInit)
	c.F64("rtr.ipidrate", rtrIPIDRate)
	c.U32("rtr.ifaces.n", rtrIfaceN)
	c.Addr("rtr.ifaces", rtrIface)
	c.U32("rtr.ixps.n", rtrIXPN)
	c.U32("rtr.ixps", rtrIXP)

	// Members.
	n = len(p.Members)
	memASN := make([]uint32, n)
	memIXP := make([]uint32, n)
	memIface := make([]netip.Addr, n)
	memRouter := make([]uint32, n)
	memPort := make([]uint32, n)
	memKind := make([]uint8, n)
	memReseller := make([]uint32, n)
	memViaFed := make([]uint32, n)
	for i, m := range p.Members {
		memASN[i] = uint32(m.ASN)
		memIXP[i] = uint32(m.IXP)
		memIface[i] = m.Iface
		memRouter[i] = uint32(m.Router)
		memPort[i] = uint32(m.PortMbps)
		memKind[i] = uint8(m.Kind)
		memReseller[i] = uint32(m.Reseller)
		memViaFed[i] = uint32(int32(m.ViaFed))
	}
	c.U32("mem.asn", memASN)
	c.U32("mem.ixp", memIXP)
	c.Addr("mem.iface", memIface)
	c.U32("mem.router", memRouter)
	c.U32("mem.port", memPort)
	c.U8("mem.kind", memKind)
	c.U32("mem.reseller", memReseller)
	c.U32("mem.viafed", memViaFed)

	// Private links.
	n = len(p.Private)
	privA := make([]uint32, n)
	privB := make([]uint32, n)
	privAIface := make([]netip.Addr, n)
	privBIface := make([]netip.Addr, n)
	privFac := make([]uint32, n)
	for i, pl := range p.Private {
		privA[i] = uint32(pl.A)
		privB[i] = uint32(pl.B)
		privAIface[i] = ip4.Addr(pl.AIface)
		privBIface[i] = ip4.Addr(pl.BIface)
		privFac[i] = uint32(int32(pl.Facility))
	}
	c.U32("priv.a", privA)
	c.U32("priv.b", privB)
	c.Addr("priv.aiface", privAIface)
	c.Addr("priv.biface", privBIface)
	c.U32("priv.fac", privFac)

	// Resellers.
	resellers := make([]uint32, len(p.Resellers))
	for i, asn := range p.Resellers {
		resellers[i] = uint32(asn)
	}
	c.U32("reseller.asn", resellers)

	// Infrastructure prefixes, in sorted-ASN order (Parts order).
	var pfxASN []uint32
	var pfxStr []string
	for _, as := range p.ASes {
		for _, pfx := range p.Prefixes[as.ASN] {
			pfxASN = append(pfxASN, uint32(as.ASN))
			pfxStr = append(pfxStr, pfx.String())
		}
	}
	c.U32("pfx.asn", pfxASN)
	c.Str("pfx.prefix", pfxStr)

	return c
}

// decodeWorld rebuilds the world from its section. A location that is
// not a coordinate (NaN, infinite, or off the WGS-84 domain) fails the
// decode: every distance from it would be NaN, and the feasibility
// rings would drop memberships without an error.
func decodeWorld(cfg netsim.Config, d *snapshot.Reader) (*netsim.World, error) {
	parts := netsim.WorldParts{Cfg: cfg, Prefixes: make(map[netsim.ASN][]netip.Prefix)}

	n := d.Rows("city.name", "city.country", "city.lat", "city.lon", "city.weight")
	cityName, cityCountry := d.Str("city.name"), d.Str("city.country")
	cityLat, cityLon, cityWeight := d.F64("city.lat"), d.F64("city.lon"), d.F64("city.weight")
	if d.Err() == nil {
		parts.Cities = make([]netsim.City, n)
		for i := range parts.Cities {
			parts.Cities[i] = netsim.City{
				Name: cityName[i], Country: cityCountry[i],
				Loc:    geo.Point{Lat: cityLat[i], Lon: cityLon[i]},
				Weight: cityWeight[i],
			}
			if c := &parts.Cities[i]; !c.Loc.Valid() {
				return nil, fmt.Errorf("city %q location %v is not a coordinate", c.Name, c.Loc)
			}
		}
	}

	n = d.Rows("fac.id", "fac.name", "fac.city", "fac.country", "fac.lat", "fac.lon")
	facID, facName, facCity := d.U32("fac.id"), d.Str("fac.name"), d.Str("fac.city")
	facCountry, facLat, facLon := d.Str("fac.country"), d.F64("fac.lat"), d.F64("fac.lon")
	if d.Err() == nil {
		parts.Facilities = make([]*netsim.Facility, n)
		for i := range parts.Facilities {
			parts.Facilities[i] = &netsim.Facility{
				ID: netsim.FacilityID(int32(facID[i])), Name: facName[i],
				City: facCity[i], Country: facCountry[i],
				Loc: geo.Point{Lat: facLat[i], Lon: facLon[i]},
			}
			if f := parts.Facilities[i]; !f.Loc.Valid() {
				return nil, fmt.Errorf("facility %q location %v is not a coordinate", f.Name, f.Loc)
			}
		}
	}

	n = d.Rows("ixp.id", "ixp.name", "ixp.lan", "ixp.mgmt", "ixp.rs", "ixp.minport",
		"ixp.fed", "ixp.atlas", "ixp.flags", "ixp.facs.n", "ixp.portopts.n")
	d.FlatLen(d.U32("ixp.facs.n"), "ixp.facs")
	d.FlatLen(d.U32("ixp.portopts.n"), "ixp.portopts")
	if d.Err() == nil {
		ixpID, ixpName := d.U32("ixp.id"), d.Str("ixp.name")
		ixpLAN, ixpMgmt, ixpRS := d.Str("ixp.lan"), d.Str("ixp.mgmt"), d.Addr("ixp.rs")
		ixpMinPort, ixpFed, ixpAtlas := d.U32("ixp.minport"), d.U32("ixp.fed"), d.U32("ixp.atlas")
		ixpFlags := d.U8("ixp.flags")
		facN, fac := d.U32("ixp.facs.n"), d.U32("ixp.facs")
		portN, port := d.U32("ixp.portopts.n"), d.U32("ixp.portopts")
		facOff, portOff := 0, 0
		parts.IXPs = make([]*netsim.IXP, n)
		for i := range parts.IXPs {
			lan, err := netip.ParsePrefix(ixpLAN[i])
			if err != nil {
				return nil, fmt.Errorf("IXP %q peering LAN %q: %v", ixpName[i], ixpLAN[i], err)
			}
			mgmt, err := netip.ParsePrefix(ixpMgmt[i])
			if err != nil {
				return nil, fmt.Errorf("IXP %q mgmt LAN %q: %v", ixpName[i], ixpMgmt[i], err)
			}
			ix := &netsim.IXP{
				ID: netsim.IXPID(int32(ixpID[i])), Name: ixpName[i],
				PeeringLAN: lan, MgmtLAN: mgmt, RouteServer: ixpRS[i],
				MinPortMbps:     int(ixpMinPort[i]),
				FederationID:    int(ixpFed[i]),
				AtlasProbes:     int(ixpAtlas[i]),
				AllowsResellers: ixpFlags[i]&ixpFlagResellers != 0,
				HasLG:           ixpFlags[i]&ixpFlagLG != 0,
				WideArea:        ixpFlags[i]&ixpFlagWideArea != 0,
			}
			for j := 0; j < int(facN[i]); j++ {
				ix.Facilities = append(ix.Facilities, netsim.FacilityID(int32(fac[facOff+j])))
			}
			facOff += int(facN[i])
			for j := 0; j < int(portN[i]); j++ {
				ix.PortOptionsMbps = append(ix.PortOptionsMbps, int(port[portOff+j]))
			}
			portOff += int(portN[i])
			parts.IXPs[i] = ix
		}
	}

	n = d.Rows("as.asn", "as.name", "as.country", "as.homecity", "as.homelat",
		"as.homelon", "as.traffic", "as.tier", "as.flags", "as.facs.n",
		"as.providers.n", "as.pops.n")
	d.FlatLen(d.U32("as.facs.n"), "as.facs")
	d.FlatLen(d.U32("as.providers.n"), "as.providers")
	d.FlatLen(d.U32("as.pops.n"), "as.pops")
	if d.Err() == nil {
		asASN, asName, asCountry := d.U32("as.asn"), d.Str("as.name"), d.Str("as.country")
		asHomeCity, asHomeLat, asHomeLon := d.Str("as.homecity"), d.F64("as.homelat"), d.F64("as.homelon")
		asTraffic, asTier, asFlags := d.F64("as.traffic"), d.U8("as.tier"), d.U8("as.flags")
		facN, fac := d.U32("as.facs.n"), d.U32("as.facs")
		provN, prov := d.U32("as.providers.n"), d.U32("as.providers")
		popN, pop := d.U32("as.pops.n"), d.U32("as.pops")
		facOff, provOff, popOff := 0, 0, 0
		parts.ASes = make([]*netsim.AS, n)
		for i := range parts.ASes {
			as := &netsim.AS{
				ASN: netsim.ASN(asASN[i]), Name: asName[i], Country: asCountry[i],
				HomeCity:    asHomeCity[i],
				HomeLoc:     geo.Point{Lat: asHomeLat[i], Lon: asHomeLon[i]},
				TrafficMbps: asTraffic[i],
				Tier:        int(asTier[i]),
				IsReseller:  asFlags[i]&asFlagReseller != 0,
			}
			if !as.HomeLoc.Valid() {
				return nil, fmt.Errorf("AS%d home location %v is not a coordinate", as.ASN, as.HomeLoc)
			}
			for j := 0; j < int(facN[i]); j++ {
				as.Facilities = append(as.Facilities, netsim.FacilityID(int32(fac[facOff+j])))
			}
			facOff += int(facN[i])
			for j := 0; j < int(provN[i]); j++ {
				as.Providers = append(as.Providers, netsim.ASN(prov[provOff+j]))
			}
			provOff += int(provN[i])
			for j := 0; j < int(popN[i]); j++ {
				as.ResellerPOPs = append(as.ResellerPOPs, netsim.FacilityID(int32(pop[popOff+j])))
			}
			popOff += int(popN[i])
			parts.ASes[i] = as
		}
	}

	n = d.Rows("rtr.id", "rtr.owner", "rtr.fac", "rtr.lat", "rtr.lon",
		"rtr.ipidinit", "rtr.ipidrate", "rtr.ifaces.n", "rtr.ixps.n")
	d.FlatLen(d.U32("rtr.ifaces.n"), "rtr.ifaces")
	d.FlatLen(d.U32("rtr.ixps.n"), "rtr.ixps")
	if d.Err() == nil {
		rtrID, rtrOwner, rtrFac := d.U32("rtr.id"), d.U32("rtr.owner"), d.U32("rtr.fac")
		rtrLat, rtrLon := d.F64("rtr.lat"), d.F64("rtr.lon")
		rtrInit, rtrRate := d.U32("rtr.ipidinit"), d.F64("rtr.ipidrate")
		ifaceN, iface := d.U32("rtr.ifaces.n"), d.Addr("rtr.ifaces")
		ixpN, ixp := d.U32("rtr.ixps.n"), d.U32("rtr.ixps")
		words, err := ipv4Words("router", iface)
		if err != nil {
			return nil, err
		}
		ifaceOff, ixpOff := 0, 0
		parts.Routers = make([]*netsim.Router, n)
		for i := range parts.Routers {
			r := &netsim.Router{
				ID: netsim.RouterID(int32(rtrID[i])), Owner: netsim.ASN(rtrOwner[i]),
				Facility: netsim.FacilityID(int32(rtrFac[i])),
				Loc:      geo.Point{Lat: rtrLat[i], Lon: rtrLon[i]},
				IPIDInit: rtrInit[i], IPIDRate: rtrRate[i],
			}
			if !r.Loc.Valid() {
				return nil, fmt.Errorf("router %d location %v is not a coordinate", r.ID, r.Loc)
			}
			r.Ifaces = words[ifaceOff : ifaceOff+int(ifaceN[i])]
			ifaceOff += int(ifaceN[i])
			for j := 0; j < int(ixpN[i]); j++ {
				r.IXPs = append(r.IXPs, netsim.IXPID(int32(ixp[ixpOff+j])))
			}
			ixpOff += int(ixpN[i])
			parts.Routers[i] = r
		}
	}

	n = d.Rows("mem.asn", "mem.ixp", "mem.iface", "mem.router", "mem.port",
		"mem.kind", "mem.reseller", "mem.viafed")
	if d.Err() == nil {
		memASN, memIXP, memIface := d.U32("mem.asn"), d.U32("mem.ixp"), d.Addr("mem.iface")
		memRouter, memPort, memKind := d.U32("mem.router"), d.U32("mem.port"), d.U8("mem.kind")
		memReseller, memViaFed := d.U32("mem.reseller"), d.U32("mem.viafed")
		parts.Members = make([]*netsim.Member, n)
		for i := range parts.Members {
			parts.Members[i] = &netsim.Member{
				ASN: netsim.ASN(memASN[i]), IXP: netsim.IXPID(int32(memIXP[i])),
				Iface: memIface[i], Router: netsim.RouterID(int32(memRouter[i])),
				PortMbps: int(memPort[i]), Kind: netsim.ConnKind(memKind[i]),
				Reseller: netsim.ASN(memReseller[i]),
				ViaFed:   netsim.IXPID(int32(memViaFed[i])),
			}
		}
	}

	n = d.Rows("priv.a", "priv.b", "priv.aiface", "priv.biface", "priv.fac")
	if d.Err() == nil {
		privA, privB := d.U32("priv.a"), d.U32("priv.b")
		privAI, errA := ipv4Words("private link", d.Addr("priv.aiface"))
		privBI, errB := ipv4Words("private link", d.Addr("priv.biface"))
		if err := cmp.Or(errA, errB); err != nil {
			return nil, err
		}
		privFac := d.U32("priv.fac")
		parts.Private = make([]netsim.PrivateLink, n)
		for i := range parts.Private {
			parts.Private[i] = netsim.PrivateLink{
				A: netsim.RouterID(int32(privA[i])), B: netsim.RouterID(int32(privB[i])),
				AIface: privAI[i], BIface: privBI[i],
				Facility: netsim.FacilityID(int32(privFac[i])),
			}
		}
	}

	for _, asn := range d.U32("reseller.asn") {
		parts.Resellers = append(parts.Resellers, netsim.ASN(asn))
	}

	n = d.Rows("pfx.asn", "pfx.prefix")
	if d.Err() == nil {
		pfxASN, pfxStr := d.U32("pfx.asn"), d.Str("pfx.prefix")
		for i := 0; i < n; i++ {
			pfx, err := netip.ParsePrefix(pfxStr[i])
			if err != nil {
				return nil, fmt.Errorf("AS%d prefix %q: %v", pfxASN[i], pfxStr[i], err)
			}
			asn := netsim.ASN(pfxASN[i])
			parts.Prefixes[asn] = append(parts.Prefixes[asn], pfx)
		}
	}

	if d.Err() != nil {
		return nil, d.Err()
	}
	return netsim.FromParts(parts)
}

// ---------------------------------------------------------------------------
// dataset

// The dataset section is the registry membership (the iface and port
// rows engine snapshots carry, through the same codec) plus the rest
// of the merged dataset: the prefix plane (sorted by prefix string)
// and the advertised minimum ports (sorted by IXP name), both naming
// their IXP directly, and the per-source stats in stored (preference)
// order.
func encodeDataset(ds *registry.Dataset) []byte {
	var c snapshot.Cols
	ds.AppendMembership(&c)

	pfxs := make([]netip.Prefix, 0, len(ds.PrefixIXP))
	for p := range ds.PrefixIXP {
		pfxs = append(pfxs, p)
	}
	sort.Slice(pfxs, func(i, j int) bool { return pfxs[i].String() < pfxs[j].String() })
	pfxStr := make([]string, len(pfxs))
	pfxIXP := make([]string, len(pfxs))
	for i, p := range pfxs {
		pfxStr[i], pfxIXP[i] = p.String(), ds.PrefixIXP[p]
	}
	c.Str("ds.pfx.prefix", pfxStr)
	c.Str("ds.pfx.ixp", pfxIXP)

	minIXP := make([]string, 0, len(ds.MinPort))
	for name := range ds.MinPort {
		minIXP = append(minIXP, name)
	}
	sort.Strings(minIXP)
	minMbps := make([]uint64, len(minIXP))
	for i, name := range minIXP {
		minMbps[i] = uint64(ds.MinPort[name])
	}
	c.Str("ds.minport.ixp", minIXP)
	c.U64("ds.minport.mbps", minMbps)

	n := len(ds.Stats)
	stSrc := make([]uint8, n)
	stPfx, stUPfx, stCPfx := make([]uint32, n), make([]uint32, n), make([]uint32, n)
	stIf, stUIf, stCIf := make([]uint32, n), make([]uint32, n), make([]uint32, n)
	for i, st := range ds.Stats {
		stSrc[i] = uint8(st.Source)
		stPfx[i], stUPfx[i], stCPfx[i] = uint32(st.Prefixes), uint32(st.UniquePrefixes), uint32(st.ConflictPrefixes)
		stIf[i], stUIf[i], stCIf[i] = uint32(st.Interfaces), uint32(st.UniqueInterfaces), uint32(st.ConflictInterfaces)
	}
	c.U8("ds.stats.src", stSrc)
	c.U32("ds.stats.pfx", stPfx)
	c.U32("ds.stats.upfx", stUPfx)
	c.U32("ds.stats.cpfx", stCPfx)
	c.U32("ds.stats.if", stIf)
	c.U32("ds.stats.uif", stUIf)
	c.U32("ds.stats.cif", stCIf)

	return snapshot.EncodeColumns(c)
}

func decodeDataset(d *snapshot.Reader) (*registry.Dataset, error) {
	ds := &registry.Dataset{
		PrefixIXP: make(map[netip.Prefix]string),
		MinPort:   make(map[string]int),
	}
	ds.ReadMembership(d)

	n := d.Rows("ds.pfx.prefix", "ds.pfx.ixp")
	pfxStr, pfxIXP := d.Str("ds.pfx.prefix"), d.Str("ds.pfx.ixp")
	nMin := d.Rows("ds.minport.ixp", "ds.minport.mbps")
	minIXP, minMbps := d.Str("ds.minport.ixp"), d.U64("ds.minport.mbps")
	nStats := d.Rows("ds.stats.src", "ds.stats.pfx", "ds.stats.upfx", "ds.stats.cpfx",
		"ds.stats.if", "ds.stats.uif", "ds.stats.cif")
	src := d.U8("ds.stats.src")
	pfx, upfx, cpfx := d.U32("ds.stats.pfx"), d.U32("ds.stats.upfx"), d.U32("ds.stats.cpfx")
	ifs, uif, cif := d.U32("ds.stats.if"), d.U32("ds.stats.uif"), d.U32("ds.stats.cif")
	if d.Err() != nil {
		return nil, d.Err()
	}
	for i := 0; i < n; i++ {
		p, err := netip.ParsePrefix(pfxStr[i])
		if err != nil {
			return nil, fmt.Errorf("dataset prefix %q: %v", pfxStr[i], err)
		}
		ds.PrefixIXP[p] = pfxIXP[i]
	}
	for i := 0; i < nMin; i++ {
		ds.MinPort[minIXP[i]] = int(minMbps[i])
	}
	ds.Stats = make([]registry.SourceStats, nStats)
	for i := range ds.Stats {
		ds.Stats[i] = registry.SourceStats{
			Source:   registry.Source(src[i]),
			Prefixes: int(pfx[i]), UniquePrefixes: int(upfx[i]), ConflictPrefixes: int(cpfx[i]),
			Interfaces: int(ifs[i]), UniqueInterfaces: int(uif[i]), ConflictInterfaces: int(cif[i]),
		}
	}
	return ds, nil
}

// ---------------------------------------------------------------------------
// colo

func encodeColo(colo *registry.ColoDB) []byte {
	var c snapshot.Cols

	asns := make([]netsim.ASN, 0, len(colo.ASFacilities))
	for asn := range colo.ASFacilities {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	asASN := make([]uint32, len(asns))
	asN := make([]uint32, len(asns))
	var asFac []uint32
	for i, asn := range asns {
		asASN[i] = uint32(asn)
		facs := colo.ASFacilities[asn]
		asN[i] = uint32(len(facs))
		for _, f := range facs {
			asFac = append(asFac, uint32(f))
		}
	}
	c.U32("colo.as.asn", asASN)
	c.U32("colo.as.n", asN)
	c.U32("colo.as.fac", asFac)

	ixps := make([]string, 0, len(colo.IXPFacilities))
	for name := range colo.IXPFacilities {
		ixps = append(ixps, name)
	}
	sort.Strings(ixps)
	ixpN := make([]uint32, len(ixps))
	var ixpFac []uint32
	for i, name := range ixps {
		facs := colo.IXPFacilities[name]
		ixpN[i] = uint32(len(facs))
		for _, f := range facs {
			ixpFac = append(ixpFac, uint32(f))
		}
	}
	c.Str("colo.ixp.name", ixps)
	c.U32("colo.ixp.n", ixpN)
	c.U32("colo.ixp.fac", ixpFac)

	return snapshot.EncodeColumns(c)
}

// facilityID converts a colo column value to a facility ID, failing
// the read for one no int32 ID can hold (it would turn negative).
func facilityID(d *snapshot.Reader, v uint32) netsim.FacilityID {
	if v > math.MaxInt32 {
		d.Failf("colo facility ID %d out of range", v)
	}
	return netsim.FacilityID(int32(v))
}

func decodeColo(d *snapshot.Reader) (*registry.ColoDB, error) {
	colo := &registry.ColoDB{
		ASFacilities:  make(map[netsim.ASN][]netsim.FacilityID),
		IXPFacilities: make(map[string][]netsim.FacilityID),
	}

	n := d.Rows("colo.as.asn", "colo.as.n")
	d.FlatLen(d.U32("colo.as.n"), "colo.as.fac")
	if d.Err() == nil {
		asns, counts, fac := d.U32("colo.as.asn"), d.U32("colo.as.n"), d.U32("colo.as.fac")
		off := 0
		for i := 0; i < n; i++ {
			// Present-with-no-facilities stays a nil slice, matching
			// what registry.BuildColo produces for such entries.
			var facs []netsim.FacilityID
			if counts[i] > 0 {
				facs = make([]netsim.FacilityID, int(counts[i]))
				for j := range facs {
					facs[j] = facilityID(d, fac[off+j])
				}
			}
			off += int(counts[i])
			colo.ASFacilities[netsim.ASN(asns[i])] = facs
		}
	}

	n = d.Rows("colo.ixp.name", "colo.ixp.n")
	d.FlatLen(d.U32("colo.ixp.n"), "colo.ixp.fac")
	if d.Err() == nil {
		names, counts, fac := d.Str("colo.ixp.name"), d.U32("colo.ixp.n"), d.U32("colo.ixp.fac")
		off := 0
		for i := 0; i < n; i++ {
			var facs []netsim.FacilityID
			if counts[i] > 0 {
				facs = make([]netsim.FacilityID, int(counts[i]))
				for j := range facs {
					facs[j] = facilityID(d, fac[off+j])
				}
			}
			off += int(counts[i])
			colo.IXPFacilities[names[i]] = facs
		}
	}

	if d.Err() != nil {
		return nil, d.Err()
	}
	return colo, nil
}

// ---------------------------------------------------------------------------
// paths

func encodePaths(paths traix.Paths) []byte {
	var c snapshot.Cols
	n := paths.Len()
	src := make([]uint32, n)
	hopN := make([]uint32, n)
	for i := 0; i < n; i++ {
		src[i] = uint32(paths.Src[i])
		lo, hi := paths.Hops(i)
		hopN[i] = uint32(hi - lo)
	}
	c.U32("path.src", src)
	c.PackedIPv4("path.dst", paths.Dst)
	c.U32("path.hops.n", hopN)
	c.PackedIPv4("hop.ip", paths.Hop)
	c.F64("hop.rtt", paths.RTT)
	return snapshot.EncodeColumns(c)
}

// decodePaths decodes the corpus straight into its columns: one
// allocation per column, whatever the path count. The corpus is IPv4:
// an address of another family fails the section.
func decodePaths(d *snapshot.Reader) (traix.Paths, error) {
	n := d.Rows("path.src", "path.hops.n")
	src, hopN := d.U32("path.src"), d.U32("path.hops.n")
	d.FlatLen(hopN, "hop.rtt")
	rtt := d.F64("hop.rtt")
	if len(rtt) > math.MaxInt32 {
		d.Failf("%d hops overflow the int32 hop offsets", len(rtt))
	}
	dst := d.PackedIPv4("path.dst", n)
	hop := d.PackedIPv4("hop.ip", len(rtt))
	if d.Err() != nil {
		return traix.Paths{}, d.Err()
	}
	p := traix.Paths{Src: make([]netsim.ASN, n), Dst: dst, Hop: hop, RTT: rtt}
	if n > 0 {
		p.Off = make([]int32, n+1)
	}
	for i := 0; i < n; i++ {
		p.Src[i] = netsim.ASN(src[i])
		p.Off[i+1] = p.Off[i] + int32(hopN[i])
	}
	return p, nil
}

// ---------------------------------------------------------------------------
// meta

func encodeMeta(in core.Inputs) []byte {
	var c snapshot.Cols
	c.U64("seed", []uint64{uint64(in.Seed)})
	c.F64("speed", []float64{in.Speed.VMaxKmPerMs, in.Speed.A, in.Speed.B})
	return snapshot.EncodeColumns(c)
}

func decodeMeta(d *snapshot.Reader, in *core.Inputs) error {
	seed := d.U64("seed")
	speed := d.F64("speed")
	if d.Err() != nil {
		return d.Err()
	}
	if len(seed) != 1 || len(speed) != 3 {
		return fmt.Errorf("meta section has %d seed and %d speed values", len(seed), len(speed))
	}
	in.Seed = int64(seed[0])
	in.Speed = geo.SpeedModel{VMaxKmPerMs: speed[0], A: speed[1], B: speed[2]}
	for _, v := range speed {
		if math.IsNaN(v) {
			return fmt.Errorf("NaN speed-model parameter")
		}
	}
	return nil
}

// ipv4Words converts a decoded interface column to the IPv4 words the
// world holds; an address of any other family fails the section.
func ipv4Words(what string, addrs []netip.Addr) ([]uint32, error) {
	words := make([]uint32, len(addrs))
	for i, a := range addrs {
		if !a.Is4() {
			return nil, fmt.Errorf("%s interface %d (%v) is not an IPv4 address", what, i, a)
		}
		words[i] = ip4.U32(a)
	}
	return words, nil
}
