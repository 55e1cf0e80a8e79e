package traix

// KeyAdds returns a copy of the rule-3 keys re-settled candidates
// gained since the index was last built, as (key, candidate) pairs in
// their stored order.
func (c *Corpus) KeyAdds() [][2]uint64 {
	out := make([][2]uint64, len(c.keyAdds))
	for i, e := range c.keyAdds {
		out[i] = [2]uint64{e.key, uint64(e.cand)}
	}
	return out
}
