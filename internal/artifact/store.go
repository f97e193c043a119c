package artifact

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// envelope format for one persisted entry (any tier):
//
//	magic "hxart" | u32 envelope version | u32 len + scheme string |
//	u32 len + full key | u64 len + payload | sha256 of all prior bytes
//
// The scheme string pins the fingerprint schemes and payload codec
// versions the writer used; a reader with a different scheme treats the
// entry as a miss (version skew is recomputation, never an error). The
// full key is stored so a filename-hash collision or a key-derivation
// change can never serve the wrong artifact. Any truncation, bit flip
// or version bump fails the checksum/field checks and degrades to a
// miss. Tiers move these sealed bytes opaquely, so the guarantees hold
// identically for a local file and a blob fetched over the network.
const (
	envMagic   = "hxart"
	envVersion = 1
)

// Codec serializes artifacts for the persistence tiers. Encode must be
// deterministic for a given value; Decode must reject corrupt input
// with an error (it is allowed to be paranoid — a decode error is just
// a cache miss).
type Codec[V any] struct {
	Encode func(V) ([]byte, error)
	Decode func([]byte) (V, error)
}

// Stats is a Store's cumulative counter snapshot. Memory hits/misses
// count Get calls served by the memory tier vs those that ran the
// persistence-or-compute path; the per-tier counters split the latter
// by chain position (a disabled tier's counters stay zero). Eviction
// counters cover the memory tier's byte-budget LRU. The claim counters
// belong to a Claims implementation sharing the same shape (a Store
// never moves them), so one aggregate covers every source of cache
// traffic a worker produces.
type Stats struct {
	MemHits      int64
	MemMisses    int64
	DiskHits     int64
	DiskMisses   int64
	DiskWrites   int64
	DiskLoadNS   int64 // wall time spent reading+decoding disk hits
	Evictions    int64
	EvictedBytes int64

	// Remote blob tier counters (zero unless SetRemote installed one).
	RemoteHits   int64
	RemoteMisses int64
	RemoteWrites int64
	RemoteLoadNS int64 // wall time spent fetching+decoding remote hits

	// Work-claiming counters (see Claimer.Stats).
	Claims        int64
	Steals        int64
	ExpiredLeases int64
	DupSuppressed int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.MemHits += o.MemHits
	s.MemMisses += o.MemMisses
	s.DiskHits += o.DiskHits
	s.DiskMisses += o.DiskMisses
	s.DiskWrites += o.DiskWrites
	s.DiskLoadNS += o.DiskLoadNS
	s.Evictions += o.Evictions
	s.EvictedBytes += o.EvictedBytes
	s.RemoteHits += o.RemoteHits
	s.RemoteMisses += o.RemoteMisses
	s.RemoteWrites += o.RemoteWrites
	s.RemoteLoadNS += o.RemoteLoadNS
	s.Claims += o.Claims
	s.Steals += o.Steals
	s.ExpiredLeases += o.ExpiredLeases
	s.DupSuppressed += o.DupSuppressed
}

// chainTier is one slot of a Store's tier chain: the tier plus the
// Store-owned counters that attribute its traffic (attribution happens
// after envelope verification, so a tier serving corrupt bytes counts
// as a miss, not a hit).
type chainTier struct {
	tier  Tier
	stats *tierCounters
}

// Store is a content-addressed artifact store: a Memo memory tier
// (singleflight + byte-budget LRU) over a chain of persistence tiers —
// an optional disk tier of atomic, checksummed files, then an optional
// remote blob tier speaking HTTP to a helix-serve daemon. A Get that
// misses memory walks the chain in order before computing; a computed
// value is written back to every enabled tier best-effort (a failed
// write never fails the Get), and a hit on a later tier is promoted to
// the earlier ones. Both persistence tiers are disabled until
// SetDir/SetRemote install them.
//
// All persisted entries carry the store's scheme string; entries
// written under a different scheme or envelope version are treated as
// misses, so fingerprint-scheme evolution can never serve a stale
// artifact — from disk or from a daemon running older code.
type Store[V any] struct {
	memo   Memo[V]
	kind   string // subdirectory under the cache root
	scheme string
	codec  *Codec[V] // nil = memory-only store

	disk   diskTier
	remote *remoteTier
	chain  []chainTier

	diskStats, remoteStats tierCounters
	memHits, memMisses     atomic.Int64
}

// NewStore returns a store whose disk entries live under
// <root>/<kind>/ once SetDir is called. cost drives the memory tier's
// byte-budget LRU (nil disables it); codec serializes values for the
// persistence tiers (nil keeps the store memory-only even with a
// directory or daemon set); scheme names the fingerprint/codec scheme
// the keys and payloads were derived under.
func NewStore[V any](kind, scheme string, cost func(V) int64, codec *Codec[V]) *Store[V] {
	s := &Store[V]{memo: Memo[V]{name: kind, cost: cost}, kind: kind, scheme: scheme, codec: codec}
	s.disk.kind = kind
	s.remote = newRemoteTier(kind, scheme)
	s.chain = []chainTier{
		{tier: &s.disk, stats: &s.diskStats},
		{tier: s.remote, stats: &s.remoteStats},
	}
	return s
}

// SetDir installs (or, with "", removes) the disk tier's root
// directory. Entries are stored under <dir>/<kind>/. Safe to call
// concurrently with Get.
func (s *Store[V]) SetDir(dir string) {
	if dir == "" {
		s.disk.dir.Store(nil)
		return
	}
	s.disk.dir.Store(&dir)
}

// Dir returns the disk tier root, or "" when disabled.
func (s *Store[V]) Dir() string { return s.disk.root() }

// SetRemote installs (or, with "", removes) the remote blob tier's
// daemon base URL (e.g. "http://host:8080"). Safe to call concurrently
// with Get.
func (s *Store[V]) SetRemote(base string) { s.remote.SetBase(base) }

// SetBudget bounds the memory tier's summed cost (<= 0 for unbounded).
func (s *Store[V]) SetBudget(b int64) { s.memo.SetBudget(b) }

// Stats returns the cumulative counter snapshot.
func (s *Store[V]) Stats() Stats {
	ev, evB := s.memo.EvictionStats()
	return Stats{
		MemHits:      s.memHits.Load(),
		MemMisses:    s.memMisses.Load(),
		DiskHits:     s.diskStats.hits.Load(),
		DiskMisses:   s.diskStats.misses.Load(),
		DiskWrites:   s.diskStats.writes.Load(),
		DiskLoadNS:   s.diskStats.loadNano.Load(),
		Evictions:    ev,
		EvictedBytes: evB,
		RemoteHits:   s.remoteStats.hits.Load(),
		RemoteMisses: s.remoteStats.misses.Load(),
		RemoteWrites: s.remoteStats.writes.Load(),
		RemoteLoadNS: s.remoteStats.loadNano.Load(),
	}
}

// Get returns the artifact for key, looking up memory, then the tier
// chain, then computing with fn (exactly once per key across
// concurrent callers — Memo.Do's singleflight and cancellation
// semantics apply unchanged). Values that fn computes are persisted to
// every enabled tier best-effort; values loaded from a tier re-enter
// the memory tier so later Gets are memory hits.
func (s *Store[V]) Get(ctx context.Context, key string, fn func(ctx context.Context) (V, error)) (V, error) {
	ran := false
	v, err := s.memo.Do(ctx, key, func(cctx context.Context) (V, error) {
		ran = true // single write, observed only after Do's done-channel sync
		if v, ok := s.tierLoad(key); ok {
			return v, nil
		}
		v, err := fn(cctx)
		if err == nil {
			s.tierSave(key, v)
		}
		return v, err
	})
	// A detached (cancelled) waiter never synchronized with the
	// computation, so its ran flag may still be getting written —
	// context errors are left uncounted.
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
	case ran:
		s.memMisses.Add(1)
	case err == nil:
		s.memHits.Add(1)
	}
	return v, err
}

// Put publishes an already-computed artifact under key: the memory tier
// takes it unless an entry (completed or in-flight) already exists, and
// a newly inserted value is persisted to every enabled tier
// best-effort. Hit/miss counters are untouched — Put is how batched
// producers seed the store, not a lookup. Later Gets for the key are
// memory hits.
func (s *Store[V]) Put(key string, v V) {
	if s.memo.Add(key, v) {
		s.tierSave(key, v)
	}
}

// Peek returns the artifact for key only if it is already available:
// memory first, then the tier chain (a tier hit re-enters the memory
// tier, as with Get). It never computes and never blocks on an
// in-flight computation. Only the tier hit/miss/load counters move.
func (s *Store[V]) Peek(key string) (V, bool) {
	if v, ok := s.memo.Peek(key); ok {
		return v, true
	}
	if v, ok := s.tierLoad(key); ok {
		s.memo.Add(key, v)
		return v, true
	}
	var zero V
	return zero, false
}

// tierLoad walks the chain in order: the first enabled tier whose bytes
// open (checksum, envelope version, scheme, key) and decode wins, and
// its sealed bytes are promoted to the enabled tiers earlier in the
// chain so the next lookup stops sooner. Every failure on the way —
// missing entry, truncation, checksum mismatch, version or scheme skew,
// wrong key, codec error, unreachable daemon — counts a miss for the
// tier that failed and falls through to the next.
func (s *Store[V]) tierLoad(key string) (V, bool) {
	var zero V
	if s.codec == nil {
		return zero, false
	}
	for i, ct := range s.chain {
		if !ct.tier.Enabled() {
			continue
		}
		start := time.Now()
		data, ok := ct.tier.Load(key)
		if ok {
			if payload, ok := openEnvelope(data, s.scheme, key); ok {
				if v, err := s.codec.Decode(payload); err == nil {
					ct.stats.loadNano.Add(time.Since(start).Nanoseconds())
					ct.stats.hits.Add(1)
					for _, earlier := range s.chain[:i] {
						if earlier.tier.Enabled() && earlier.tier.Save(key, data) {
							earlier.stats.writes.Add(1)
						}
					}
					return v, true
				}
			}
		}
		ct.stats.misses.Add(1)
	}
	return zero, false
}

// tierSave seals one envelope and writes it to every enabled tier.
// Failures are logged (by the tier) and swallowed: the chain is an
// accelerator, never a correctness dependency.
func (s *Store[V]) tierSave(key string, v V) {
	if s.codec == nil {
		return
	}
	var sealed []byte
	for _, ct := range s.chain {
		if !ct.tier.Enabled() {
			continue
		}
		if sealed == nil {
			payload, err := s.codec.Encode(v)
			if err != nil {
				logf("artifact: %s encode %s: %v", s.kind, key, err)
				return
			}
			sealed = sealEnvelope(payload, s.scheme, key)
		}
		if ct.tier.Save(key, sealed) {
			ct.stats.writes.Add(1)
		}
	}
}

// Clear removes every disk entry of this store's kind under the
// configured root (no-op when the disk tier is disabled; the remote
// tier is shared with other workers and is never cleared from here).
func (s *Store[V]) Clear() error {
	root := s.disk.root()
	if root == "" {
		return nil
	}
	return os.RemoveAll(filepath.Join(root, s.kind))
}

// sealEnvelope frames a payload with the version/scheme/key header and
// the trailing self-checksum.
func sealEnvelope(payload []byte, scheme, key string) []byte {
	buf := make([]byte, 0, len(envMagic)+4+4+len(scheme)+4+len(key)+8+len(payload)+sha256.Size)
	buf = append(buf, envMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, envVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(scheme)))
	buf = append(buf, scheme...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// openEnvelope verifies the framing and returns the payload. Any
// mismatch returns ok=false.
func openEnvelope(data []byte, scheme, key string) ([]byte, bool) {
	if len(data) < sha256.Size {
		return nil, false
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	want := sha256.Sum256(body)
	if string(sum) != string(want[:]) {
		return nil, false
	}
	off := 0
	take := func(n int) ([]byte, bool) {
		if n < 0 || off+n > len(body) {
			return nil, false
		}
		b := body[off : off+n]
		off += n
		return b, true
	}
	u32 := func() (uint32, bool) {
		b, ok := take(4)
		if !ok {
			return 0, false
		}
		return binary.LittleEndian.Uint32(b), true
	}
	if m, ok := take(len(envMagic)); !ok || string(m) != envMagic {
		return nil, false
	}
	if v, ok := u32(); !ok || v != envVersion {
		return nil, false
	}
	n, ok := u32()
	if !ok {
		return nil, false
	}
	gotScheme, ok := take(int(n))
	if !ok || string(gotScheme) != scheme {
		return nil, false
	}
	if n, ok = u32(); !ok {
		return nil, false
	}
	gotKey, ok := take(int(n))
	if !ok || string(gotKey) != key {
		return nil, false
	}
	lb, ok := take(8)
	if !ok {
		return nil, false
	}
	plen := binary.LittleEndian.Uint64(lb)
	payload, ok := take(int(plen))
	if !ok || off != len(body) {
		return nil, false
	}
	return payload, true
}
