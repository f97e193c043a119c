// Package alias implements the may-alias analysis that HCC relies on, as a
// ladder of five cumulative precision tiers mirroring Figure 2 of the
// HELIX-RC paper:
//
//	TierBase  — VLLPA-like: Andersen-style, flow- and field-insensitive
//	TierFlow  — + flow-sensitive register tracking
//	TierPath  — + path-based naming (field paths, exact constant offsets)
//	TierType  — + data-type and type-cast incompatibility
//	TierLib   — + standard-library call effect summaries
//
// The analysis is a genuine whole-program points-to computation over the
// IR's allocation sites (globals and OpAlloc instructions), not a lookup
// table: raising the tier monotonically removes may-alias pairs.
package alias

import "helixrc/internal/ir"

// SiteSet is a set of allocation sites, with a dedicated universal element
// for "could point anywhere" (lost track of the pointer).
type SiteSet struct {
	Universal bool
	sites     map[ir.Site]struct{}
}

// NewSiteSet returns an empty set.
func NewSiteSet() *SiteSet { return &SiteSet{sites: map[ir.Site]struct{}{}} }

// Universe returns the universal set.
func Universe() *SiteSet { return &SiteSet{Universal: true} }

// Add inserts a site; it reports whether the set changed.
func (s *SiteSet) Add(site ir.Site) bool {
	if s.Universal {
		return false
	}
	if _, ok := s.sites[site]; ok {
		return false
	}
	s.sites[site] = struct{}{}
	return true
}

// AddAll unions other into s, reporting change.
func (s *SiteSet) AddAll(other *SiteSet) bool {
	if other == nil {
		return false
	}
	if s.Universal {
		return false
	}
	if other.Universal {
		s.Universal = true
		s.sites = nil
		return true
	}
	changed := false
	for site := range other.sites {
		if s.Add(site) {
			changed = true
		}
	}
	return changed
}

// MakeUniversal widens the set, reporting change.
func (s *SiteSet) MakeUniversal() bool {
	if s.Universal {
		return false
	}
	s.Universal = true
	s.sites = nil
	return true
}

// Empty reports whether the set has no sites and is not universal.
func (s *SiteSet) Empty() bool { return !s.Universal && len(s.sites) == 0 }

// Len returns the site count (0 for universal).
func (s *SiteSet) Len() int { return len(s.sites) }

// Has reports membership.
func (s *SiteSet) Has(site ir.Site) bool {
	if s.Universal {
		return true
	}
	_, ok := s.sites[site]
	return ok
}

// Single returns the set's only site, if it has exactly one.
func (s *SiteSet) Single() (ir.Site, bool) {
	if s.Universal || len(s.sites) != 1 {
		return 0, false
	}
	for site := range s.sites {
		return site, true
	}
	return 0, false
}

// Sites returns the members (nil for universal).
func (s *SiteSet) Sites() []ir.Site {
	out := make([]ir.Site, 0, len(s.sites))
	for site := range s.sites {
		out = append(out, site)
	}
	return out
}

// Clone returns a copy.
func (s *SiteSet) Clone() *SiteSet {
	if s.Universal {
		return Universe()
	}
	c := NewSiteSet()
	for site := range s.sites {
		c.sites[site] = struct{}{}
	}
	return c
}

// subsetOf reports whether every site of s is in t.
func (s *SiteSet) subsetOf(t *SiteSet) bool {
	if t.Universal {
		return true
	}
	if s.Universal || len(s.sites) > len(t.sites) {
		return false
	}
	for site := range s.sites {
		if _, ok := t.sites[site]; !ok {
			return false
		}
	}
	return true
}

// Intersects reports whether two sets could name the same site. An empty
// set means the analysis lost track of the pointer entirely, which must be
// treated as universal for soundness.
func Intersects(a, b *SiteSet) bool {
	if a == nil || b == nil {
		return true
	}
	au := a.Universal || a.Empty()
	bu := b.Universal || b.Empty()
	if au || bu {
		return true
	}
	// Iterate the smaller set.
	small, big := a, b
	if len(b.sites) < len(a.sites) {
		small, big = b, a
	}
	for site := range small.sites {
		if _, ok := big.sites[site]; ok {
			return true
		}
	}
	return false
}
