package alias

import (
	"sync"

	"helixrc/internal/cfg"
	"helixrc/internal/ir"
)

// Tier selects analysis precision. Tiers are cumulative, matching the
// extension ladder in Figure 2 of the paper.
type Tier int

// Precision tiers, in increasing order.
const (
	TierBase Tier = iota // VLLPA-like baseline
	TierFlow             // + flow sensitivity
	TierPath             // + path-based location naming
	TierType             // + data type / cast information
	TierLib              // + library call semantics
)

// Tiers lists all tiers in order, for sweeps.
var Tiers = []Tier{TierBase, TierFlow, TierPath, TierType, TierLib}

// String names the tier like the paper's figure.
func (t Tier) String() string {
	switch t {
	case TierBase:
		return "VLLPA"
	case TierFlow:
		return "+flow sensitive"
	case TierPath:
		return "+path based"
	case TierType:
		return "+data type"
	case TierLib:
		return "+lib calls"
	default:
		return "unknown"
	}
}

// Desc is what the analysis knows about one memory access at its program
// point.
type Desc struct {
	Pts *SiteSet
	// Exact means the access provably touches word Off of Site.
	Exact bool
	Site  ir.Site
	Off   int64
}

// Analysis is a solved may-alias query structure for one program at one
// tier: a view of a Solution (Solution.At), which it shares with every
// other tier's view. It is only read once built, so concurrent queries
// are safe.
type Analysis struct {
	Prog *ir.Program
	Tier Tier

	and *andersen
	// desc maps memory-instruction UID to its access descriptor.
	desc map[int32]*Desc
	// memInfo caches per-UID static metadata.
	typeOf map[int32]ir.TypeID
	pathOf map[int32]string
}

// New solves the points-to problem for prog at the given tier. The program
// must already have UIDs assigned. It is Solve(prog).At(tier); to query
// several tiers of one program, solve once and take each tier's view.
func New(prog *ir.Program, tier Tier) *Analysis {
	return Solve(prog).At(tier)
}

// Solution is the points-to solution of one program, shared by every
// tier: the flow-insensitive Andersen solve, then per-access descriptors
// from one of two passes — flow-insensitive for TierBase, flow-sensitive
// for every tier above, which differ only in what MayAlias and
// EffectOfCall answer. Each pass runs on first use. A Solution is safe
// for concurrent use and never changes once a pass completes.
type Solution struct {
	prog *ir.Program
	and  *andersen
	// typeOf and pathOf hold every memory instruction's declared type
	// and access path, by UID.
	typeOf map[int32]ir.TypeID
	pathOf map[int32]string
	// insensitive and flow run their pass once and return its
	// descriptors by UID.
	insensitive, flow func() map[int32]*Desc
}

// Solve solves the flow-insensitive points-to problem for prog, which
// must already have UIDs assigned. Its per-tier views (At) share it.
func Solve(prog *ir.Program) *Solution {
	s := &Solution{
		prog:   prog,
		and:    solveAndersen(prog),
		typeOf: map[int32]ir.TypeID{},
		pathOf: map[int32]string{},
	}
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op.IsMem() {
					s.typeOf[in.UID] = in.Type
					s.pathOf[in.UID] = in.Path
				}
			}
		}
	}
	s.insensitive = sync.OnceValue(func() map[int32]*Desc {
		desc := map[int32]*Desc{}
		for _, f := range prog.Funcs {
			s.and.insensitivePass(f, desc)
		}
		return desc
	})
	s.flow = sync.OnceValue(func() map[int32]*Desc {
		desc := map[int32]*Desc{}
		for _, f := range prog.Funcs {
			s.and.flowPass(f, cfg.New(f), desc)
		}
		return desc
	})
	return s
}

// At returns the solution's view at tier, running the pass the tier
// reads if no earlier view did.
func (s *Solution) At(tier Tier) *Analysis {
	desc := s.insensitive
	if tier >= TierFlow {
		desc = s.flow
	}
	return &Analysis{Prog: s.prog, Tier: tier, and: s.and, desc: desc(), typeOf: s.typeOf, pathOf: s.pathOf}
}

// insensitivePass records flow-insensitive descriptors for f's memory
// ops into desc.
func (a *andersen) insensitivePass(f *ir.Function, desc map[int32]*Desc) {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.Op.IsMem() {
				continue
			}
			desc[in.UID] = &Desc{Pts: a.valPts(f, in.A).Clone()}
		}
	}
}

// DescOf returns the access descriptor for a memory instruction UID.
func (a *Analysis) DescOf(uid int32) *Desc { return a.desc[uid] }

// MayAlias reports whether two memory instructions (by UID) may touch the
// same word, under the analysis tier.
func (a *Analysis) MayAlias(u1, u2 int32) bool {
	d1, d2 := a.desc[u1], a.desc[u2]
	if d1 == nil || d2 == nil {
		return true // unknown access: be conservative
	}
	if !Intersects(d1.Pts, d2.Pts) {
		return false
	}
	if a.Tier >= TierPath {
		// Exact disjoint words of the same object never alias.
		if d1.Exact && d2.Exact && (d1.Site != d2.Site || d1.Off != d2.Off) {
			return false
		}
		// Distinct access paths name distinct runtime locations.
		p1, p2 := a.pathOf[u1], a.pathOf[u2]
		if p1 != "" && p2 != "" && p1 != p2 {
			return false
		}
	}
	if a.Tier >= TierType {
		t1, t2 := a.typeOf[u1], a.typeOf[u2]
		if t1 != ir.TypeAny && t2 != ir.TypeAny && t1 != t2 {
			return false
		}
	}
	return true
}

// CallEffect describes how a call instruction may interact with memory for
// dependence purposes at this tier.
type CallEffect struct {
	Reads  bool
	Writes bool
	// ArgSites restricts the effect to these sites; nil means any memory.
	ArgSites *SiteSet
}

// EffectOfCall summarizes a call's memory behaviour. Below TierLib every
// external call is a full clobber (the paper's pre-extension behaviour);
// at TierLib the Extern summaries prune effects. Direct calls are always
// analyzed from their bodies, so they report no intrinsic effect here.
func (a *Analysis) EffectOfCall(f *ir.Function, in *ir.Instr) (CallEffect, bool) {
	if in.Op != ir.OpCall || in.Extern == nil {
		return CallEffect{}, false
	}
	if a.Tier < TierLib {
		return CallEffect{Reads: true, Writes: true}, true
	}
	ext := in.Extern
	if !ext.ReadsMem && !ext.WritesMem {
		return CallEffect{}, true
	}
	eff := CallEffect{Reads: ext.ReadsMem, Writes: ext.WritesMem}
	if ext.ArgsOnly {
		eff.ArgSites = NewSiteSet()
		for _, arg := range in.Args {
			eff.ArgSites.AddAll(a.and.valPts(f, arg))
		}
	}
	return eff, true
}
