// Package interp executes IR functionally: a flat word-addressed memory, a
// per-thread Context that steps one instruction at a time (so timing models
// can drive it cycle by cycle), a whole-program Runner, and a profiler that
// collects the dynamic statistics the HELIX-RC evaluation depends on
// (iteration lengths, dependence distances, consumer fan-out, and the
// ground-truth dependence oracle used to score the alias analysis tiers).
package interp

import (
	"fmt"

	"helixrc/internal/ir"
)

// Memory is a flat, word-addressed store. Addresses are indices of 64-bit
// words; the zero page is reserved so address 0 is never valid data.
//
// Only the written extent is backed: words[i] holds address lo+i, and
// every address outside [lo, lo+len(words)) reads 0. Programs place their
// globals at a high fixed base (ir.NewProgram), so backing from address 0
// would allocate and zero megabytes no program touches.
type Memory struct {
	words []int64
	lo    int64
	arena int64
}

// NewMemory returns a memory initialized with the program's globals and an
// allocation arena starting after them. It backs exactly the static data
// extent, [first global, ArenaBase()); the arena grows on first store.
func NewMemory(p *ir.Program) *Memory {
	m := &Memory{arena: p.ArenaBase()}
	if len(p.Globals) > 0 {
		lo := p.ArenaBase()
		for _, g := range p.Globals {
			lo = min(lo, g.Addr)
		}
		m.lo = lo
		m.words = make([]int64, p.ArenaBase()-lo)
	}
	for _, g := range p.Globals {
		for i, v := range g.Init {
			m.Store(g.Addr+int64(i), v)
		}
	}
	return m
}

// grow extends the backed extent to cover addr (addr >= 0).
func (m *Memory) grow(addr int64) {
	m.words, m.lo = growExtent(m.words, m.lo, addr)
}

// growExtent extends s, which backs the addresses [lo, lo+len(s)), to
// cover addr (addr >= 0), doubling upward past the top or downward
// below lo (never below address 0). It returns the new slice and base.
func growExtent[T any](s []T, lo, addr int64) ([]T, int64) {
	n := int64(len(s))
	if n == 0 {
		lo = addr
	}
	hi := lo + n
	size := max(n, 1024)
	if addr >= hi {
		for lo+size <= addr {
			size *= 2
		}
		ns := make([]T, size)
		copy(ns, s)
		return ns, lo
	}
	for hi-size > addr {
		size *= 2
	}
	nlo := max(0, hi-size)
	ns := make([]T, hi-nlo)
	copy(ns[lo-nlo:], s)
	return ns, nlo
}

// Load reads the word at addr. Negative addresses panic: they indicate a
// compiler or workload bug, not a recoverable condition.
func (m *Memory) Load(addr int64) int64 {
	if i := uint64(addr - m.lo); i < uint64(len(m.words)) {
		return m.words[i]
	}
	if addr < 0 {
		panic(fmt.Sprintf("interp: load from negative address %d", addr))
	}
	return 0
}

// Store writes the word at addr.
func (m *Memory) Store(addr, v int64) {
	if i := uint64(addr - m.lo); i < uint64(len(m.words)) {
		m.words[i] = v
		return
	}
	if addr < 0 {
		panic(fmt.Sprintf("interp: store to negative address %d", addr))
	}
	m.grow(addr)
	m.words[addr-m.lo] = v
}

// Alloc reserves size words from the arena and returns the base address.
func (m *Memory) Alloc(size int64) int64 {
	base := m.arena
	m.arena += size
	return base
}

// ArenaNext returns the next arena address (useful for tests).
func (m *Memory) ArenaNext() int64 { return m.arena }

// Snapshot copies a memory range for equality checks in tests.
func (m *Memory) Snapshot(base, size int64) []int64 {
	out := make([]int64, size)
	for i := int64(0); i < size; i++ {
		out[i] = m.Load(base + i)
	}
	return out
}
