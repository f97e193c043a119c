package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"helixrc/internal/cpu"
	"helixrc/internal/hcc"
	"helixrc/internal/ir"
)

// recordMixed records one real trace (the golden mixed workload under
// the paper's default platform) for codec tests.
func recordMixed(t *testing.T) (*Result, *Trace) {
	t.Helper()
	pm, fm := buildMixed(t, 600)
	comp := compileFor(t, pm, fm, hcc.V3, 600)
	res, tr, err := Record(context.Background(), pm, comp, fm, HelixRC(16), 600)
	if err != nil {
		t.Fatal(err)
	}
	return res, tr
}

// reseal recomputes the trailing self-checksum after an in-place header
// edit, simulating a writer from a different format version.
func reseal(data []byte) []byte {
	body := data[:len(data)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}

// TestTraceCodecRoundTrip pins the codec's core contract: a decoded
// trace replays bit-identically to the original under multiple timing
// configs, and encoding is deterministic.
func TestTraceCodecRoundTrip(t *testing.T) {
	_, tr := recordMixed(t)
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("EncodeTrace is not deterministic")
	}
	got, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}

	link8 := HelixRC(16)
	link8.Ring.LinkLatency = 8
	for _, arch := range []Config{HelixRC(16), Conventional(16), Abstract(16), link8} {
		want, err := Replay(context.Background(), tr, arch)
		if err != nil {
			t.Fatal(err)
		}
		have, err := Replay(context.Background(), got, arch)
		if err != nil {
			t.Fatal(err)
		}
		if *have != *want {
			t.Errorf("decoded trace replays differently:\nwant %+v\nhave %+v", want, have)
		}
	}
	// Re-encoding the decoded trace reproduces the bytes exactly.
	data3, err := EncodeTrace(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(data3) != string(data) {
		t.Error("decode(encode) does not reproduce the encoding")
	}
	// A trace of a different run encodes differently.
	other, err := EncodeTrace(allocGuardTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if string(other) == string(data) {
		t.Error("traces of two different runs encode identically")
	}
}

// TestTraceCodecCorruption: every single-bit flip in a sample of
// positions, and every truncation, must fail decoding — never panic,
// never return a silently wrong trace.
func TestTraceCodecCorruption(t *testing.T) {
	_, tr := recordMixed(t)
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	stride := len(data)/97 + 1
	for pos := 0; pos < len(data); pos += stride {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x20
		if _, err := DecodeTrace(mut); err == nil {
			t.Fatalf("bit flip at byte %d decoded successfully", pos)
		}
	}
	for _, n := range []int{0, 1, len(data) / 3, len(data) - 1, len(data) - sha256.Size} {
		if _, err := DecodeTrace(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
}

// TestTraceCodecVersionMismatch: a structurally valid entry from a
// future format version (checksum re-sealed) is rejected with a version
// error, not misparsed.
func TestTraceCodecVersionMismatch(t *testing.T) {
	_, tr := recordMixed(t)
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	// The format version is the u32 right after the 4-byte magic.
	data[len(traceMagic)] = TraceFormatVersion + 1
	data = reseal(data)
	if _, err := DecodeTrace(data); !errors.Is(err, errCodec) {
		t.Fatalf("future-version trace: err = %v, want errCodec", err)
	}
}

// TestResultCodecRoundTrip: every Result field survives the codec, and
// corruption or version skew is rejected.
func TestResultCodecRoundTrip(t *testing.T) {
	res, _ := recordMixed(t)
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *res {
		t.Errorf("round trip:\nwant %+v\ngot  %+v", res, got)
	}

	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x01
		if _, err := DecodeResult(mut); err == nil {
			t.Fatalf("bit flip at byte %d decoded successfully", pos)
		}
	}
	data[len(resultMagic)] = ResultFormatVersion + 1
	if _, err := DecodeResult(reseal(data)); !errors.Is(err, errCodec) {
		t.Fatalf("future-version result: err = %v, want errCodec", err)
	}
}

// TestConfigFingerprint pins that the fingerprint is deterministic and
// separates timing-relevant configs.
func TestConfigFingerprint(t *testing.T) {
	base := HelixRC(16)
	if base.Fingerprint() != HelixRC(16).Fingerprint() {
		t.Error("fingerprint is not deterministic")
	}
	distinct := map[string]string{}
	for name, c := range map[string]Config{
		"helixrc16": HelixRC(16),
		"helixrc8":  HelixRC(8),
		"conv16":    Conventional(16),
		"abstract":  Abstract(16),
		"link8": func() Config {
			c := HelixRC(16)
			c.Ring.LinkLatency = 8
			return c
		}(),
	} {
		fp := c.Fingerprint()
		if prev, ok := distinct[fp]; ok {
			t.Errorf("%s and %s share a fingerprint", name, prev)
		}
		distinct[fp] = name
	}
}

// TestDecodeTraceRejectsUnwalkable: a checksum-valid trace whose
// structure the replay engine cannot walk must fail to decode, not
// decode into a trace that panics on replay. Each case edits one field
// of a real recorded trace and re-encodes it.
func TestDecodeTraceRejectsUnwalkable(t *testing.T) {
	_, tr := recordMixed(t)
	firstMem := -1
	for i := range tr.metas {
		if tr.metas[i].cls == clsPriv || tr.metas[i].cls == clsShared {
			firstMem = i
			break
		}
	}
	firstWait := -1
	for i := range tr.metas {
		if tr.metas[i].cls == clsWait {
			firstWait = i
			break
		}
	}
	if firstMem < 0 || firstWait < 0 || len(tr.loops) == 0 {
		t.Fatal("recorded trace lacks a memory op, a wait or a loop")
	}
	cases := []struct {
		name string
		edit func(c *Trace)
	}{
		{"run outside metas", func(c *Trace) { c.runs[0].off = 1 << 30 }},
		{"run overflows metas", func(c *Trace) { c.runs[0].n = ^uint32(0) }},
		{"huge maxRegs", func(c *Trace) { c.maxRegs = 1 << 40 }},
		{"no cores", func(c *Trace) { c.cores = 0 }},
		{"too many cores", func(c *Trace) { c.cores = maxTraceCores + 1 }},
		{"loop index out of range", func(c *Trace) { c.events[0].loop = int32(len(c.loops)) }},
		{"loop referenced twice", func(c *Trace) {
			for i := range c.events {
				if c.events[i].loop > 0 {
					c.events[i].loop = 0
					return
				}
			}
			c.events[len(c.events)-1].loop = 0
		}},
		{"negative span", func(c *Trace) { c.events[0].runs = -1 }},
		{"negative iteration runs", func(c *Trace) { c.loops[0].iters[0].runs = -1 }},
		{"runs left over", func(c *Trace) { c.runs = append(c.runs, blockRun{}) }},
		{"too few addresses", func(c *Trace) { c.addrs = c.addrs[:len(c.addrs)-1] }},
		{"unknown class", func(c *Trace) { c.metas[0].cls = clsPriv + 1 }},
		{"register outside scoreboard", func(c *Trace) { c.metas[firstMem].dst = ir.Reg(c.maxRegs + 1000) }},
		{"negative register", func(c *Trace) { c.metas[0].nuses, c.metas[0].uses[0] = 1, -2 }},
		{"segment outside loop", func(c *Trace) { c.metas[firstWait].seg = maxTraceSegs }},
		{"huge numSegs", func(c *Trace) { c.loops[0].numSegs = maxTraceSegs + 1 }},
		{"negative numRegs", func(c *Trace) { c.loops[0].numRegs = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := cloneTrace(tr)
			tc.edit(c)
			data, err := EncodeTrace(c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeTrace(data)
			if err == nil {
				// Replaying it is what the check prevents: this panics in
				// an engine without it.
				Replay(context.Background(), got, HelixRC(got.cores))
				t.Fatal("decoded an unwalkable trace")
			}
			if !errors.Is(err, errCodec) {
				t.Fatalf("err = %v, want errCodec", err)
			}
		})
	}
}

// cloneTrace deep-copies the slices a test may edit.
func cloneTrace(tr *Trace) *Trace {
	c := *tr
	c.metas = append([]instrMeta(nil), tr.metas...)
	c.runs = append([]blockRun(nil), tr.runs...)
	c.addrs = append([]int64(nil), tr.addrs...)
	c.events = append([]traceEvent(nil), tr.events...)
	c.loops = append([]loopTrace(nil), tr.loops...)
	for i := range c.loops {
		c.loops[i].iters = append([]iterTrace(nil), tr.loops[i].iters...)
	}
	return &c
}

// FuzzDecodeTrace feeds DecodeTrace mutated trace bodies, resealed with
// a fresh checksum so the mutations reach the structural checks.
// Decoding must never panic, and every trace it accepts must replay
// without panicking in one batch whose lanes share every structure the
// engine shares (sharingLanes), each lane equal to its solo Replay,
// Result and error. Accepted traces include shapes Record never writes,
// such as sequential spans with no loop between them. The seed is one
// small recorded trace, and the same trace with every sequential span
// split in two.
func FuzzDecodeTrace(f *testing.F) {
	pm, fm := buildMixed(f, 24)
	comp := compileFor(f, pm, fm, hcc.V3, 24)
	_, tr, err := Record(context.Background(), pm, comp, fm, HelixRC(16), 24)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []*Trace{tr, splitSpans(tr)} {
		data, err := EncodeTrace(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data[:len(data)-sha256.Size])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sum := sha256.Sum256(body)
		got, err := DecodeTrace(append(body[:len(body):len(body)], sum[:]...))
		if err != nil {
			return
		}
		archs := sharingLanes(got)
		results, errs := ReplayBatch(context.Background(), got, archs)
		for i, arch := range archs {
			want, werr := Replay(context.Background(), got, arch)
			assertLane(t, fmt.Sprintf("lane %d", i), results[i], errs[i], want, werr)
		}
	})
}

// splitSpans returns tr with the first block-run of each sequential
// span cut in two and the span split after its first half: two
// consecutive spans with no loop between them, the same instruction
// stream, and a shape DecodeTrace accepts but Record never writes.
func splitSpans(tr *Trace) *Trace {
	c := cloneTrace(tr)
	c.runs, c.events = c.runs[:0:0], c.events[:0:0]
	next := 0 // tr.runs cursor
	copyRuns := func(n int32) {
		c.runs = append(c.runs, tr.runs[next:next+int(n)]...)
		next += int(n)
	}
	for _, ev := range tr.events {
		if r := tr.runs[next]; ev.runs > 0 && r.n >= 2 {
			half := r.n / 2
			c.runs = append(c.runs, blockRun{off: r.off, n: half}, blockRun{off: r.off + half, n: r.n - half})
			c.events = append(c.events, traceEvent{runs: 1, loop: -1})
			next++
			copyRuns(ev.runs - 1)
		} else {
			copyRuns(ev.runs)
		}
		c.events = append(c.events, ev)
		if ev.loop >= 0 {
			for _, it := range tr.loops[ev.loop].iters {
				copyRuns(it.runs)
			}
		}
	}
	return c
}

// sharingLanes is a batch over tr whose lanes share every structure the
// replay engine shares: a budget-limited HELIX-RC lane first, ahead of
// its unlimited class-mate, a link-latency and a signal-bandwidth
// variant (one class, one hierarchy, one ring-array group), an
// out-of-order lane (the same hierarchy and arrays, its own class) and a
// conventional lane (its own hierarchy, no ring).
func sharingLanes(tr *Trace) []Config {
	limited := HelixRC(tr.cores)
	limited.MaxSteps = tr.instrs/2 + 1
	link := HelixRC(tr.cores)
	link.Ring.LinkLatency = 8
	signals := HelixRC(tr.cores)
	signals.Ring.SignalBandwidth = 1
	ooo := HelixRC(tr.cores)
	ooo.Core = cpu.OoO4()
	return []Config{limited, HelixRC(tr.cores), link, signals, ooo, Conventional(tr.cores)}
}

// heapBytes returns the bytes f allocates on the heap.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeResult feeds DecodeResult mutated Result bodies, resealed
// with a fresh checksum so the mutations reach the field checks; the
// disk and remote tiers hand it bytes from outside the process.
// Decoding must never panic, must allocate no more than the input's
// size allows, and must re-encode every Result it accepts to exactly
// the bytes it was given. Seeds: a parallel run's Result and a
// sequential baseline's.
func FuzzDecodeResult(f *testing.F) {
	pm, fm := buildMixed(f, 24)
	comp := compileFor(f, pm, fm, hcc.V3, 24)
	par, _, err := Record(context.Background(), pm, comp, fm, HelixRC(16), 24)
	if err != nil {
		f.Fatal(err)
	}
	seq, err := Run(context.Background(), pm, nil, fm, Conventional(16), 24)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []*Result{par, seq} {
		data, err := EncodeResult(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data[:len(data)-sha256.Size])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sum := sha256.Sum256(body)
		data := append(body[:len(body):len(body)], sum[:]...)
		var got *Result
		var err error
		if n := heapBytes(func() { got, err = DecodeResult(data) }); n > 64<<10+8*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		again, err := EncodeResult(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted Result re-encodes differently:\nin  %x\nout %x", data, again)
		}
	})
}
