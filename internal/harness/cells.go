package harness

// Persisted analysis cells. Figures 2-4, Table 1 and the Section 6.2
// TLP statistic read what HCC emitted — the loops it selected, their
// training profiles, its coverage — and the TLP cells run that code on
// the abstract machine. Each of their cells is a pure function of the
// workload's build, the compiler level, the core count and a few
// parameters its key names, so the cell's value, not the compile behind
// it, is what a later run needs. cellStore keeps every such cell in the
// memory, disk and remote tiers, and a warm evaluation renders these
// experiments without training a profile or compiling.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"helixrc/internal/artifact"
	"helixrc/internal/hcc"
	"helixrc/internal/sim"
)

// cell is one persisted cell's value: the counts and fractions its fill
// computed, in an order its kind fixes, and, for a TLP cell, the run's
// whole Result.
type cell struct {
	ints   []int64
	floats []float64
	res    *sim.Result
}

// newCellStore returns a store of analysis and TLP cells (an Env's
// cellStore). A cell is a few hundred bytes, so the store keeps every
// one a run reads.
func newCellStore() *artifact.Store[*cell] {
	return artifact.NewStore[*cell]("cell", cacheScheme,
		func(c *cell) int64 { return 256 + 8*int64(len(c.ints)+len(c.floats)) },
		&artifact.Codec[*cell]{Encode: encodeCell, Decode: decodeCell})
}

// cellKey names one cell by everything its fill reads: the kind of
// cell, the workload's registry name (which carries the registry's
// metadata, such as Table 1's phase count), the compile level and core
// count, any further inputs (params, such as Figure 2's alias tiers),
// and the build's content fingerprint:
//
//	cell/<kind>/<name>/L<level>/c<cores>[/<param>...]/<workload fp>
func cellKey(kind string, b *build, level hcc.Level, cores int, params []string) string {
	key := fmt.Sprintf("cell/%s/%s/L%d/c%d", kind, b.name, level, cores)
	for _, p := range params {
		key += "/" + p
	}
	return key + "/" + b.fp
}

// persistedCell serves one cell of the named workload from the cell
// store: the memory tier, then the disk and remote tiers, and only when
// every tier misses, fill on the workload's build. Only a fill that
// returns no error is stored, so a cell that fails, is cancelled or
// degrades under a cell deadline is computed again by the next run.
func (e *Env) persistedCell(ctx context.Context, kind, name string, level hcc.Level, cores int, params []string,
	fill func(context.Context, *build) (*cell, error)) (*cell, error) {
	b, err := workloadBuild(ctx, name)
	if err != nil {
		return nil, err
	}
	return e.cellStore.Get(ctx, cellKey(kind, b, level, cores, params), func(ctx context.Context) (*cell, error) {
		return fill(ctx, b)
	})
}

// compiledCell serves an analysis cell, whose fill reads the workload's
// build compiled at level for 16 cores (through the compile tier).
func (e *Env) compiledCell(ctx context.Context, kind, name string, level hcc.Level, params []string,
	f func(*hcc.Compiled, *build) *cell) (*cell, error) {
	return e.persistedCell(ctx, kind, name, level, 16, params, func(ctx context.Context, b *build) (*cell, error) {
		ce, err := e.cachedCompile(ctx, b, level, 16, 0)
		if err != nil {
			return nil, err
		}
		return f(ce.comp, b), nil
	})
}

// cellFormatVersion is the cell codec's version. Bump it when the
// layout changes or when a fill starts computing something else under
// the same key; decoders refuse other versions, so every stored cell is
// then a miss and is computed again.
const cellFormatVersion = 1

const cellMagic = "HCEL"

var errCell = errors.New("harness: corrupt or incompatible encoded cell")

// encodeCell serializes a cell, deterministically:
//
//	magic "HCEL" | u32 cellFormatVersion | u32 n + n int64 |
//	u32 m + m float64 bit patterns | u32 k + k bytes of sim.EncodeResult
//	(k = 0: no Result) | sha256 of all prior bytes
//
// Integers are little-endian, and floats travel as their IEEE-754 bits,
// so every value round-trips bit for bit.
func encodeCell(c *cell) ([]byte, error) {
	var res []byte
	if c.res != nil {
		var err error
		if res, err = sim.EncodeResult(c.res); err != nil {
			return nil, err
		}
	}
	b := make([]byte, 0, len(cellMagic)+16+8*(len(c.ints)+len(c.floats))+len(res)+sha256.Size)
	b = append(b, cellMagic...)
	b = binary.LittleEndian.AppendUint32(b, cellFormatVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.ints)))
	for _, v := range c.ints {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.floats)))
	for _, v := range c.floats {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res)))
	b = append(b, res...)
	sum := sha256.Sum256(b)
	return append(b, sum[:]...), nil
}

// decodeCell deserializes a cell. Truncation, a bit flip, trailing
// bytes, another version or a Result sim.DecodeResult refuses is an
// error, which the store treats as a miss. Every element count is
// checked against the bytes left before it sizes an allocation.
func decodeCell(data []byte) (*cell, error) {
	if len(data) < sha256.Size {
		return nil, errCell
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if want := sha256.Sum256(body); string(sum) != string(want[:]) {
		return nil, errCell
	}
	r := &cellReader{b: body}
	if string(r.next(len(cellMagic))) != cellMagic || r.u32() != cellFormatVersion {
		return nil, errCell
	}
	c := &cell{}
	if n := r.count(8); n > 0 {
		c.ints = make([]int64, n)
		for i := range c.ints {
			c.ints[i] = int64(r.u64())
		}
	}
	if n := r.count(8); n > 0 {
		c.floats = make([]float64, n)
		for i := range c.floats {
			c.floats[i] = math.Float64frombits(r.u64())
		}
	}
	if n := r.count(1); n > 0 {
		res, err := sim.DecodeResult(r.next(n))
		if err != nil {
			return nil, errCell
		}
		c.res = res
	}
	if r.bad || len(r.b) != 0 {
		return nil, errCell
	}
	return c, nil
}

// cellReader reads a cell body front to back. The first read past the
// end latches bad; later reads return zeros.
type cellReader struct {
	b   []byte
	bad bool
}

func (r *cellReader) next(n int) []byte {
	if r.bad || n > len(r.b) {
		r.bad = true
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *cellReader) u32() uint32 {
	if p := r.next(4); !r.bad {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *cellReader) u64() uint64 {
	if p := r.next(8); !r.bad {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// count reads an element count and checks that many elements of size
// bytes fit in what is left.
func (r *cellReader) count(size int) int {
	n := int(r.u32())
	if n > len(r.b)/size {
		r.bad = true
		return 0
	}
	return n
}
