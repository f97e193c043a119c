package artifact

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// intCodec is a trivially corruptible test codec: 8 little-endian bytes.
var intCodec = &Codec[int64]{
	Encode: func(v int64) ([]byte, error) {
		return binary.LittleEndian.AppendUint64(nil, uint64(v)), nil
	},
	Decode: func(b []byte) (int64, error) {
		if len(b) != 8 {
			return 0, errors.New("intCodec: bad length")
		}
		return int64(binary.LittleEndian.Uint64(b)), nil
	},
}

func newDiskStore(t testing.TB, kind, scheme string) *Store[int64] {
	t.Helper()
	s := NewStore(kind, scheme, func(int64) int64 { return 8 }, intCodec)
	s.SetDir(t.TempDir())
	return s
}

// get fetches key, recording whether the compute function ran.
func get(t testing.TB, s *Store[int64], key string, v int64) (got int64, computed bool) {
	t.Helper()
	got, err := s.Get(context.Background(), key, func(context.Context) (int64, error) {
		computed = true
		return v, nil
	})
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	return got, computed
}

// entryFile locates the single disk entry of a store (there must be
// exactly one).
func entryFile(t testing.TB, s *Store[int64]) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(s.Dir(), s.kind, "*.art"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected exactly one disk entry, got %v (err %v)", matches, err)
	}
	return matches[0]
}

// TestStoreDiskRoundTrip pins the cross-process contract: an artifact
// computed under one store is served from disk by a fresh store (new
// memory tier) pointed at the same directory, without recomputing.
func TestStoreDiskRoundTrip(t *testing.T) {
	s1 := newDiskStore(t, "trace", "scheme1")
	if v, computed := get(t, s1, "k", 42); v != 42 || !computed {
		t.Fatalf("cold Get = %d, computed=%v; want 42, true", v, computed)
	}
	st := s1.Stats()
	if st.MemMisses != 1 || st.DiskMisses != 1 || st.DiskWrites != 1 {
		t.Errorf("cold stats = %+v; want 1 mem miss, 1 disk miss, 1 write", st)
	}
	// Memory hit on the same store.
	if v, computed := get(t, s1, "k", 99); v != 42 || computed {
		t.Fatalf("warm memory Get = %d, computed=%v; want 42, false", v, computed)
	}
	if st := s1.Stats(); st.MemHits != 1 {
		t.Errorf("MemHits = %d, want 1", st.MemHits)
	}

	// A fresh store simulates a new process: same dir, empty memory.
	s2 := NewStore("trace", "scheme1", func(int64) int64 { return 8 }, intCodec)
	s2.SetDir(s1.Dir())
	if v, computed := get(t, s2, "k", 99); v != 42 || computed {
		t.Fatalf("disk Get = %d, computed=%v; want 42, false", v, computed)
	}
	st = s2.Stats()
	if st.DiskHits != 1 || st.DiskWrites != 0 {
		t.Errorf("warm stats = %+v; want 1 disk hit, 0 writes", st)
	}
	if st.DiskLoadNS <= 0 {
		t.Errorf("DiskLoadNS = %d, want > 0", st.DiskLoadNS)
	}
	// The disk-loaded value re-entered s2's memory tier.
	if v, computed := get(t, s2, "k", 99); v != 42 || computed {
		t.Fatalf("post-disk memory Get = %d, computed=%v; want 42, false", v, computed)
	}
}

// TestStoreCorruptionDegradesToMiss pins the corruption policy: a
// bit-flipped or truncated entry is silently recomputed (and the bad
// entry overwritten), never an error.
func TestStoreCorruptionDegradesToMiss(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"bitflip-payload", func(b []byte) []byte { b[len(b)-40] ^= 0x01; return b }},
		{"bitflip-header", func(b []byte) []byte { b[2] ^= 0x80; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"empty", func(b []byte) []byte { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newDiskStore(t, "trace", "scheme1")
			get(t, s, "k", 42)
			path := entryFile(t, s)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			fresh := NewStore("trace", "scheme1", nil, intCodec)
			fresh.SetDir(s.Dir())
			if v, computed := get(t, fresh, "k", 42); v != 42 || !computed {
				t.Fatalf("Get over corrupt entry = %d, computed=%v; want 42, true", v, computed)
			}
			st := fresh.Stats()
			if st.DiskHits != 0 || st.DiskMisses != 1 {
				t.Errorf("stats = %+v; want 0 disk hits, 1 miss", st)
			}
			// The recompute rewrote a valid entry.
			again := NewStore("trace", "scheme1", nil, intCodec)
			again.SetDir(s.Dir())
			if v, computed := get(t, again, "k", 99); v != 42 || computed {
				t.Fatalf("repaired entry Get = %d, computed=%v; want 42, false", v, computed)
			}
		})
	}
}

// TestStoreSchemeSkewRefused: an entry written under one scheme string
// (fingerprint scheme or codec version changed) is refused by a reader
// with another, degrading to recomputation.
func TestStoreSchemeSkewRefused(t *testing.T) {
	s := newDiskStore(t, "trace", "helixir-fp1+simcfg1+hkey1")
	get(t, s, "k", 42)

	skewed := NewStore("trace", "helixir-fp2+simcfg1+hkey1", nil, intCodec)
	skewed.SetDir(s.Dir())
	if v, computed := get(t, skewed, "k", 7); v != 7 || !computed {
		t.Fatalf("skewed Get = %d, computed=%v; want 7, true", v, computed)
	}
	if st := skewed.Stats(); st.DiskHits != 0 || st.DiskMisses != 1 {
		t.Errorf("stats = %+v; want the skewed entry refused as a miss", st)
	}
}

// TestStoreEnvelopeVersionSkewRefused: bumping the envelope version
// field (with a re-sealed checksum, simulating a future writer) is
// refused by this reader.
func TestStoreEnvelopeVersionSkewRefused(t *testing.T) {
	s := newDiskStore(t, "trace", "scheme1")
	get(t, s, "k", 42)
	path := entryFile(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Version is the u32 after the 5-byte magic. Re-seal the checksum so
	// only the version check can refuse it.
	binary.LittleEndian.PutUint32(data[len(envMagic):], envVersion+1)
	data = sealBody(data)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := NewStore("trace", "scheme1", nil, intCodec)
	fresh.SetDir(s.Dir())
	if v, computed := get(t, fresh, "k", 42); v != 42 || !computed {
		t.Fatalf("Get over future-version entry = %d, computed=%v; want 42, true", v, computed)
	}
	if st := fresh.Stats(); st.DiskHits != 0 || st.DiskMisses != 1 {
		t.Errorf("stats = %+v; want the future-version entry refused as a miss", st)
	}
}

// sealBody recomputes an envelope's trailing checksum after an in-place
// header edit (test helper simulating a different-version writer).
func sealBody(data []byte) []byte {
	body := data[:len(data)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}

// TestStoreWrongKeyRefused: the envelope stores the full key, so a
// filename collision (or renamed file) can never serve the wrong
// artifact.
func TestStoreWrongKeyRefused(t *testing.T) {
	s := newDiskStore(t, "trace", "scheme1")
	get(t, s, "k1", 42)
	// Rename k1's entry to where k2 would live.
	src := entryFile(t, s)
	dst := s.disk.path(s.Dir(), "k2")
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	fresh := NewStore("trace", "scheme1", nil, intCodec)
	fresh.SetDir(s.Dir())
	if v, computed := get(t, fresh, "k2", 7); v != 7 || !computed {
		t.Fatalf("renamed-entry Get = %d, computed=%v; want 7, true", v, computed)
	}
}

// TestStoreClear wipes the store's kind subdirectory and nothing else.
func TestStoreClear(t *testing.T) {
	root := t.TempDir()
	traces := NewStore("trace", "s", nil, intCodec)
	traces.SetDir(root)
	baselines := NewStore("baseline", "s", nil, intCodec)
	baselines.SetDir(root)
	getv := func(s *Store[int64], key string, v int64) (int64, bool) {
		return get(t, s, key, v)
	}
	getv(traces, "k", 1)
	getv(baselines, "k", 2)
	if err := traces.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "trace")); !os.IsNotExist(err) {
		t.Errorf("trace dir survived Clear: %v", err)
	}
	fresh := NewStore("baseline", "s", nil, intCodec)
	fresh.SetDir(root)
	if v, computed := get(t, fresh, "k", 9); v != 2 || computed {
		t.Errorf("baseline entry lost by trace Clear: %d, computed=%v", v, computed)
	}
}

// TestStoreMemoryOnly: without SetDir (or without a codec) the store
// never touches disk and disk counters stay zero.
func TestStoreMemoryOnly(t *testing.T) {
	s := NewStore("compile", "s", nil, (*Codec[int64])(nil))
	s.SetDir(t.TempDir())
	get(t, s, "k", 42)
	st := s.Stats()
	if st.DiskHits != 0 || st.DiskMisses != 0 || st.DiskWrites != 0 {
		t.Errorf("codec-less store touched disk: %+v", st)
	}
	entries, _ := filepath.Glob(filepath.Join(s.Dir(), "*", "*"))
	if len(entries) != 0 {
		t.Errorf("codec-less store wrote files: %v", entries)
	}

	s2 := NewStore("compile", "s", nil, intCodec)
	get(t, s2, "k", 42)
	if st := s2.Stats(); st.DiskMisses != 0 || st.DiskWrites != 0 {
		t.Errorf("dir-less store touched disk: %+v", st)
	}
}

// TestStoreErrorNotPersisted: a failed computation writes nothing to
// disk and (per Memo semantics) stays cached as an error until Reset.
func TestStoreErrorNotPersisted(t *testing.T) {
	s := newDiskStore(t, "trace", "s")
	boom := errors.New("boom")
	if _, err := s.Get(context.Background(), "k", func(context.Context) (int64, error) {
		return 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	entries, _ := filepath.Glob(filepath.Join(s.Dir(), "trace", "*"))
	if len(entries) != 0 {
		t.Errorf("failed computation persisted: %v", entries)
	}
	if st := s.Stats(); st.DiskWrites != 0 {
		t.Errorf("DiskWrites = %d, want 0", st.DiskWrites)
	}
}

// TestStatsAdd pins Add as the field-wise sum over every counter: a
// harness Env sums its stores' Stats with it, and a sharded worker adds
// its claims' counters.
func TestStatsAdd(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}

// TestEnvelopeExhaustiveTruncation opens every possible truncation of a
// sealed envelope: all must be refused, none may panic.
func TestEnvelopeExhaustiveTruncation(t *testing.T) {
	sealed := sealEnvelope([]byte("payload-bytes"), "scheme", "some/key")
	if p, ok := openEnvelope(sealed, "scheme", "some/key"); !ok || string(p) != "payload-bytes" {
		t.Fatalf("round trip failed: %q, %v", p, ok)
	}
	for n := 0; n < len(sealed); n++ {
		if _, ok := openEnvelope(sealed[:n], "scheme", "some/key"); ok {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	for _, tc := range []struct{ scheme, key string }{
		{"other", "some/key"}, {"scheme", "other/key"}, {"", ""},
	} {
		if _, ok := openEnvelope(sealed, tc.scheme, tc.key); ok {
			t.Fatalf("envelope accepted under scheme=%q key=%q", tc.scheme, tc.key)
		}
	}
}

// heapBytes returns the bytes f allocates on the heap.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzOpenEnvelope feeds openEnvelope mutated envelope bodies under
// fuzzed schemes and keys, resealed with a fresh checksum so the
// mutations reach the header checks; every disk and remote tier load
// passes through it. Opening must never panic, must allocate no more
// than the input's size allows, and every envelope it accepts must
// reseal to exactly the bytes it was given. Seeds: entries a disk tier
// wrote, under harness-shaped schemes and keys.
func FuzzOpenEnvelope(f *testing.F) {
	const scheme = "irfp2+simcfg1+hkey2"
	for _, key := range []string{
		"res/run/164.gzip/L3/c16/t0/ref=true/0123abcd/4567ef89",
		"cell/tlp/181.mcf/L2/c16/sel1/ref=true/4567ef89/0123abcd",
		"",
	} {
		s := newDiskStore(f, "fuzz", scheme)
		get(f, s, key, 42)
		data, err := os.ReadFile(entryFile(f, s))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data[:len(data)-sha256.Size], scheme, key)
	}
	f.Fuzz(func(t *testing.T, body []byte, scheme, key string) {
		sum := sha256.Sum256(body)
		data := append(body[:len(body):len(body)], sum[:]...)
		var payload []byte
		var ok bool
		if n := heapBytes(func() { payload, ok = openEnvelope(data, scheme, key) }); n > 64<<10+8*uint64(len(data)) {
			t.Fatalf("opening %d bytes allocated %d", len(data), n)
		}
		if !ok {
			return
		}
		if again := sealEnvelope(payload, scheme, key); !bytes.Equal(again, data) {
			t.Fatalf("accepted envelope reseals differently:\nin  %x\nout %x", data, again)
		}
	})
}
