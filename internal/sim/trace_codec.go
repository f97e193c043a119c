package sim

// Versioned binary serialization of Trace and Result for the disk tier
// of the artifact store (internal/artifact). The format is deliberately
// dumb: a magic + format-version header, fixed-width little-endian
// fields, length-prefixed sections in struct order, and a trailing
// SHA-256 self-checksum over everything before it. Decoding is total —
// any truncation, bit flip, or version mismatch returns an error and
// the caller treats it as a cache miss, never as a failure. Encoding is
// deterministic: the same trace always produces the same bytes, so a
// re-recorded artifact overwrites its disk entry with identical
// content.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"helixrc/internal/ir"
)

// TraceFormatVersion is the Trace codec's format version; bump on any
// layout change (decoders reject other versions).
const TraceFormatVersion = 1

// ResultFormatVersion is the Result codec's format version.
const ResultFormatVersion = 1

const (
	traceMagic  = "HTRC"
	resultMagic = "HRES"
)

var errCodec = errors.New("sim: corrupt or incompatible encoded artifact")

// enc is a little-endian append-only buffer.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) i32(v int32)  { e.u32(uint32(v)) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// seal appends the self-checksum and returns the finished buffer.
func (e *enc) seal() []byte {
	sum := sha256.Sum256(e.b)
	return append(e.b, sum[:]...)
}

// dec is a bounds-checked little-endian reader. The first failed read
// latches err; subsequent reads return zeros.
type dec struct {
	b   []byte
	off int
	err error
}

// open verifies the trailing checksum and the magic+version header,
// returning a reader positioned after the header.
func open(data []byte, magic string, version uint32) *dec {
	if len(data) < sha256.Size {
		return &dec{err: errCodec}
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	want := sha256.Sum256(body)
	if string(sum) != string(want[:]) {
		return &dec{err: errCodec}
	}
	d := &dec{b: body}
	if string(d.take(len(magic))) != magic {
		d.err = errCodec
	}
	if v := d.u32(); d.err == nil && v != version {
		d.err = fmt.Errorf("%w: format version %d, want %d", errCodec, v, version)
	}
	return d
}

func (d *dec) take(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		if d.err == nil {
			d.err = errCodec
		}
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) i32() int32 { return int32(d.u32()) }

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *dec) i64() int64 { return int64(d.u64()) }

func (d *dec) bool() bool { return d.u8() != 0 }

// count reads a section length and sanity-checks it against the bytes
// remaining (each element takes at least elemBytes), so a corrupt
// header can never drive a giant allocation.
func (d *dec) count(elemBytes int) int {
	n := d.u32()
	if d.err == nil && int(n) > (len(d.b)-d.off)/elemBytes+1 {
		d.err = errCodec
		return 0
	}
	return int(n)
}

// done checks the reader consumed the body exactly.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return errCodec
	}
	return nil
}

// encodedTraceSize computes the exact sealed size of EncodeTrace's
// output, so encoding is a single allocation. Keep in lockstep with the
// writes below (the encode test asserts the sizes agree).
func encodedTraceSize(t *Trace) int {
	n := len(traceMagic) + 4 + 4*8 // header + cores/maxRegs/retValue/instrs
	n += 6 * 4                     // the six section counts
	n += 37 * len(t.metas)
	for i := range t.metas {
		n += 4 * len(t.metas[i].more)
	}
	n += 8 * (len(t.runs) + len(t.addrs) + len(t.slots) + len(t.events))
	for i := range t.loops {
		lp := &t.loops[i]
		n += 25 + 8*len(lp.iters) + 12*(len(lp.liveIns)+len(lp.lastVals))
	}
	return n + sha256.Size
}

// EncodeTrace serializes a trace for the disk tier.
func EncodeTrace(t *Trace) ([]byte, error) {
	e := &enc{b: make([]byte, 0, encodedTraceSize(t))}
	e.b = append(e.b, traceMagic...)
	e.u32(TraceFormatVersion)
	e.u64(uint64(t.cores))
	e.u64(uint64(t.maxRegs))
	e.i64(t.retValue)
	e.i64(t.instrs)

	e.u32(uint32(len(t.metas)))
	for i := range t.metas {
		m := &t.metas[i]
		e.i64(m.lat)
		e.i32(int32(m.dst))
		e.i32(int32(m.lastVal))
		e.i32(m.seg)
		e.u8(uint8(m.cls))
		e.bool(m.isStore)
		e.bool(m.branches)
		e.bool(m.added)
		e.u8(m.nuses)
		e.i32(int32(m.uses[0]))
		e.i32(int32(m.uses[1]))
		e.u32(uint32(len(m.more)))
		for _, r := range m.more {
			e.i32(int32(r))
		}
	}
	e.u32(uint32(len(t.runs)))
	for _, r := range t.runs {
		e.u32(r.off)
		e.u32(r.n)
	}
	e.u32(uint32(len(t.addrs)))
	for _, a := range t.addrs {
		e.i64(a)
	}
	e.u32(uint32(len(t.slots)))
	for _, s := range t.slots {
		e.u64(s)
	}
	e.u32(uint32(len(t.events)))
	for _, ev := range t.events {
		e.i32(ev.runs)
		e.i32(ev.loop)
	}
	e.u32(uint32(len(t.loops)))
	for i := range t.loops {
		lp := &t.loops[i]
		e.i32(lp.numSegs)
		e.i32(lp.numSlots)
		e.i32(lp.numRegs)
		e.bool(lp.counted)
		e.u32(uint32(len(lp.iters)))
		for _, it := range lp.iters {
			e.i32(it.status)
			e.i32(it.runs)
		}
		encRegVals(e, lp.liveIns)
		encRegVals(e, lp.lastVals)
	}
	return e.seal(), nil
}

// Digest identifies a trace by content: the SHA-256 of its canonical
// EncodeTrace body, which is the checksum EncodeTrace seals it with.
// Traces with equal digests retime identically under every Config,
// whether they were recorded or decoded from a tier.
func (t *Trace) Digest() [sha256.Size]byte {
	data, _ := EncodeTrace(t)
	return [sha256.Size]byte(data[len(data)-sha256.Size:])
}

func encRegVals(e *enc, rv []regVal) {
	e.u32(uint32(len(rv)))
	for _, v := range rv {
		e.i32(v.reg)
		e.i64(v.val)
	}
}

// DecodeTrace deserializes a trace. Any corruption (checksum,
// truncation, malformed section), format-version mismatch, or structure
// the replay engine cannot walk (see walkable) returns an error —
// callers degrade to re-recording.
func DecodeTrace(data []byte) (*Trace, error) {
	d := open(data, traceMagic, TraceFormatVersion)
	t := &Trace{}
	t.cores = int(d.u64())
	t.maxRegs = int(d.u64())
	t.retValue = d.i64()
	t.instrs = d.i64()

	if n := d.count(37); n > 0 {
		t.metas = make([]instrMeta, n)
		for i := range t.metas {
			m := &t.metas[i]
			m.lat = d.i64()
			m.dst = ir.Reg(d.i32())
			m.lastVal = ir.Reg(d.i32())
			m.seg = d.i32()
			m.cls = mClass(d.u8())
			m.isStore = d.bool()
			m.branches = d.bool()
			m.added = d.bool()
			m.nuses = d.u8()
			m.uses[0] = ir.Reg(d.i32())
			m.uses[1] = ir.Reg(d.i32())
			if more := d.count(4); more > 0 {
				m.more = make([]ir.Reg, more)
				for j := range m.more {
					m.more[j] = ir.Reg(d.i32())
				}
			}
		}
	}
	if n := d.count(8); n > 0 {
		t.runs = make([]blockRun, n)
		for i := range t.runs {
			t.runs[i] = blockRun{off: d.u32(), n: d.u32()}
		}
	}
	if n := d.count(8); n > 0 {
		t.addrs = make([]int64, n)
		for i := range t.addrs {
			t.addrs[i] = d.i64()
		}
	}
	if n := d.count(8); n > 0 {
		t.slots = make([]uint64, n)
		for i := range t.slots {
			t.slots[i] = d.u64()
		}
	}
	if n := d.count(8); n > 0 {
		t.events = make([]traceEvent, n)
		for i := range t.events {
			t.events[i] = traceEvent{runs: d.i32(), loop: d.i32()}
		}
	}
	if n := d.count(25); n > 0 {
		t.loops = make([]loopTrace, n)
		for i := range t.loops {
			lp := &t.loops[i]
			lp.numSegs = d.i32()
			lp.numSlots = d.i32()
			lp.numRegs = d.i32()
			lp.counted = d.bool()
			if iters := d.count(8); iters > 0 {
				lp.iters = make([]iterTrace, iters)
				for j := range lp.iters {
					lp.iters[j] = iterTrace{status: d.i32(), runs: d.i32()}
				}
			}
			lp.liveIns = decRegVals(d)
			lp.lastVals = decRegVals(d)
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	if !walkable(t) {
		return nil, errCodec
	}
	return t, nil
}

// Caps on the trace fields that size replay state. Every recorded SPEC
// analogue has maxRegs and numRegs <= 95 and numSegs <= 3, and the CLIs
// accept at most 1,024 cores. Under these caps one replay lane of an
// accepted trace allocates at most 8 MB of loop scoreboards (cores x
// numRegs x 8 bytes) and 1 MB of ring signal tables (numSegs x cores x
// 16 bytes).
const (
	maxTraceCores = 1024
	maxTraceRegs  = 1024
	maxTraceSegs  = 64
)

// walkable reports whether the replay engine can walk t without
// indexing outside a slice: the caps above hold, every block-run lies
// inside metas, the events reference each loop exactly once and in
// order, the span and iteration run counts are non-negative and cover
// runs exactly, the memory operations need at most len(addrs)
// addresses, and every class, register and segment index fits what it
// indexes. Replay consumes runs in this order, and fails a loop whose
// iterations do not match its schedule before reading past them.
func walkable(t *Trace) bool {
	if t.cores < 1 || t.cores > maxTraceCores || t.maxRegs < 0 || t.maxRegs > maxTraceRegs {
		return false
	}
	w := traceWalk{t: t}
	next := 0 // the loop the next loop event must reference
	for _, ev := range t.events {
		if !w.span(ev.runs, t.maxRegs, -1) {
			return false
		}
		if ev.loop == -1 {
			continue
		}
		if int(ev.loop) != next || next >= len(t.loops) {
			return false
		}
		next++
		lp := &t.loops[ev.loop]
		if lp.numRegs < 0 || lp.numRegs > maxTraceRegs || lp.numSegs < 0 || lp.numSegs > maxTraceSegs {
			return false
		}
		for _, it := range lp.iters {
			if !w.span(it.runs, int(lp.numRegs), int(lp.numSegs)) {
				return false
			}
		}
	}
	return next == len(t.loops) && w.run == len(t.runs) && w.mem <= int64(len(t.addrs))
}

// traceWalk is walkable's cursor over the block-runs.
type traceWalk struct {
	t   *Trace
	run int   // next block-run
	mem int64 // memory operations so far
}

// span checks the next n block-runs against a scoreboard of regs
// registers and, when segs >= 0, a loop of segs segments.
func (w *traceWalk) span(n int32, regs, segs int) bool {
	if n < 0 || int(n) > len(w.t.runs)-w.run {
		return false
	}
	for _, r := range w.t.runs[w.run : w.run+int(n)] {
		if uint64(r.off)+uint64(r.n) > uint64(len(w.t.metas)) {
			return false
		}
		for i := range w.t.metas[r.off : r.off+r.n] {
			m := &w.t.metas[int(r.off)+i]
			switch m.cls {
			case clsShared, clsPriv:
				w.mem++
			case clsWait, clsSignal:
				if segs >= 0 && (m.seg < 0 || int(m.seg) >= segs) {
					return false
				}
			case clsOther:
			default:
				return false
			}
			if !m.regsBelow(regs) {
				return false
			}
		}
	}
	w.run += int(n)
	return true
}

// regsBelow reports whether every register the engine reads or writes
// for m (see metaReady and IssueReg) indexes a scoreboard of n entries.
func (m *instrMeta) regsBelow(n int) bool {
	in := func(r ir.Reg) bool { return r >= 0 && int(r) < n }
	if m.dst != ir.NoReg && !in(m.dst) {
		return false
	}
	for k := 0; k < int(min(m.nuses, 2)); k++ {
		if !in(m.uses[k]) {
			return false
		}
	}
	if m.nuses >= 2 {
		for _, r := range m.more {
			if !in(r) {
				return false
			}
		}
	}
	return true
}

func decRegVals(d *dec) []regVal {
	n := d.count(12)
	if n == 0 {
		return nil
	}
	rv := make([]regVal, n)
	for i := range rv {
		rv[i] = regVal{reg: d.i32(), val: d.i64()}
	}
	return rv
}

// resultInts flattens every field of a Result (all int64) in a fixed
// order shared by encoder and decoder. Field additions require a
// ResultFormatVersion bump.
func resultInts(r *Result) []*int64 {
	return []*int64{
		&r.Cycles, &r.Instrs, &r.RetValue,
		&r.ParallelCycles, &r.ParallelInstrs,
		&r.LoopInvocations, &r.IterationsRun,
		&r.SeqSegInstrs, &r.SegEntries,
		&r.Overheads.AddedInstr, &r.Overheads.WaitSignal, &r.Overheads.Memory,
		&r.Overheads.IterImbalance, &r.Overheads.LowTripCount,
		&r.Overheads.Communication, &r.Overheads.DependenceWaiting,
		&r.Ring.Stores, &r.Ring.Loads, &r.Ring.LoadHits, &r.Ring.LoadMisses,
		&r.Ring.Evictions, &r.Ring.Signals, &r.Ring.StallCycles, &r.Ring.SignalStalls,
		&r.Mem.L1Hits, &r.Mem.L2Hits, &r.Mem.DRAMFills, &r.Mem.C2CXfers, &r.Mem.WriteBacks,
	}
}

// EncodeResult serializes a Result for the disk tier.
func EncodeResult(r *Result) ([]byte, error) {
	fields := resultInts(r)
	e := &enc{b: make([]byte, 0, len(resultMagic)+4+4+8*len(fields)+sha256.Size)}
	e.b = append(e.b, resultMagic...)
	e.u32(ResultFormatVersion)
	e.u32(uint32(len(fields)))
	for _, f := range fields {
		e.i64(*f)
	}
	return e.seal(), nil
}

// DecodeResult deserializes a Result; corruption and version mismatches
// return an error (a cache miss, in the artifact store's eyes).
func DecodeResult(data []byte) (*Result, error) {
	d := open(data, resultMagic, ResultFormatVersion)
	r := &Result{}
	fields := resultInts(r)
	if n := d.u32(); d.err == nil && int(n) != len(fields) {
		return nil, errCodec
	}
	for _, f := range fields {
		*f = d.i64()
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return r, nil
}

// ConfigFingerprintScheme versions Config.Fingerprint's derivation;
// cache layers fold it into their scheme tags so a derivation change
// invalidates persisted keys.
const ConfigFingerprintScheme = "simcfg1"

// Fingerprint returns a stable content hash of the timing-relevant
// configuration, for content-addressed cache keys. Every Config field
// is a flat value (ints and bools all the way down), so the derivation
// hashes the %+v rendering under a scheme tag: adding, removing or
// renaming a field changes every fingerprint, which is exactly the safe
// direction for cache keys: persisted entries miss once and are
// recomputed.
//
// Result keys derive it for every lookup, and reflection is slow, so the
// string is memoized per Config (Config is comparable); the fmt
// rendering stays the only derivation.
func (c Config) Fingerprint() string {
	configFingerprints.RLock()
	fp, ok := configFingerprints.m[c]
	configFingerprints.RUnlock()
	if ok {
		return fp
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "%s %+v", ConfigFingerprintScheme, c))
	fp = hex.EncodeToString(sum[:])
	configFingerprints.Lock()
	if configFingerprints.m == nil {
		configFingerprints.m = map[Config]string{}
	}
	if len(configFingerprints.m) < maxConfigFingerprints {
		configFingerprints.m[c] = fp
	}
	configFingerprints.Unlock()
	return fp
}

// configFingerprints memoizes Fingerprint per Config, up to
// maxConfigFingerprints configs (a sweep uses a few hundred; the cap
// only bounds a long-lived process fed arbitrary configs).
var configFingerprints struct {
	sync.RWMutex
	m map[Config]string
}

const maxConfigFingerprints = 1 << 14
