package core

import (
	"sort"
)

// DefaultBaselineThresholdMs is the remoteness threshold of Castro et
// al. (CoNEXT 2014): members with RTTmin above 10 ms are inferred
// remote, everything measured below it local.
const DefaultBaselineThresholdMs = 10.0

// ixpNames lists the IXPs of the merged dataset, deterministically.
func ixpNames(in Inputs) []string {
	seen := make(map[string]bool)
	var names []string
	for _, name := range in.Dataset.PrefixIXP {
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
