package cache

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"

	"gcsim/internal/mem"
)

func cfg64k() Config { return Config{SizeBytes: 64 << 10, BlockBytes: 64, Policy: WriteValidate} }

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{32 << 10, 16, WriteValidate},
		{4 << 20, 256, FetchOnWrite},
		{64, 64, WriteValidate},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{0, 16, WriteValidate},
		{48 << 10, 16, WriteValidate},  // not power of two
		{32 << 10, 24, WriteValidate},  // block not power of two
		{32 << 10, 4, WriteValidate},   // block smaller than a word
		{16, 64, WriteValidate},        // block bigger than cache
		{1 << 20, 1024, WriteValidate}, // block beyond valid-mask limit
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%v) = nil, want error", c)
		}
	}
}

func TestFormatSize(t *testing.T) {
	cases := map[int]string{32 << 10: "32k", 1 << 20: "1m", 4 << 20: "4m", 100: "100b"}
	for n, want := range cases {
		if got := FormatSize(n); got != want {
			t.Errorf("FormatSize(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestReadMissThenHit(t *testing.T) {
	c := New(cfg64k())
	c.Access(1000, false, false)
	c.Access(1000, false, false)
	c.Access(1001, false, false) // same 8-word block
	if c.S.ReadMisses != 1 || c.S.Reads != 3 {
		t.Errorf("stats = %+v, want 1 read miss of 3 reads", c.S)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(cfg64k())
	wordsPerCache := uint64(64<<10) / mem.WordBytes
	// Two addresses that map to the same cache block.
	a, b := uint64(0), wordsPerCache
	c.Access(a, false, false)
	c.Access(b, false, false)
	c.Access(a, false, false) // evicted by b: miss again
	if c.S.ReadMisses != 3 {
		t.Errorf("ReadMisses = %d, want 3 (thrash)", c.S.ReadMisses)
	}
}

func TestWriteValidateClaimsWithoutFetch(t *testing.T) {
	c := New(cfg64k())
	c.Access(2000, true, false) // write miss: claim, no fetch
	if c.S.WriteAllocs != 1 || c.S.WriteMisses != 0 {
		t.Fatalf("stats = %+v, want one unpenalized write alloc", c.S)
	}
	// The written word is valid: reading it hits.
	c.Access(2000, false, false)
	if c.S.ReadMisses != 0 {
		t.Errorf("read of validated word missed: %+v", c.S)
	}
	// A different word in the same block was never validated: reading it
	// is a penalized miss that fetches the block.
	c.Access(2001, false, false)
	if c.S.ReadMisses != 1 {
		t.Errorf("read of invalid word should miss: %+v", c.S)
	}
	c.Access(2002, false, false) // fetched now
	if c.S.ReadMisses != 1 {
		t.Errorf("block should be fully valid after fetch: %+v", c.S)
	}
}

func TestFetchOnWriteFetches(t *testing.T) {
	c := New(Config{SizeBytes: 64 << 10, BlockBytes: 64, Policy: FetchOnWrite})
	c.Access(2000, true, false)
	if c.S.WriteMisses != 1 || c.S.WriteAllocs != 0 {
		t.Fatalf("stats = %+v, want one penalized write miss", c.S)
	}
	c.Access(2005, false, false) // whole block fetched: hit
	if c.S.ReadMisses != 0 {
		t.Errorf("fetch-on-write should validate the whole block: %+v", c.S)
	}
}

func TestCollectorForcesFetchOnWrite(t *testing.T) {
	c := New(cfg64k()) // program policy is write-validate
	c.Access(3000, true, true)
	if c.S.GCWriteMisses != 1 || c.S.WriteAllocs != 0 {
		t.Fatalf("stats = %+v, want one collector write miss", c.S)
	}
	if c.S.GCWrites != 1 || c.S.Writes != 0 {
		t.Errorf("collector write miscounted: %+v", c.S)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := New(cfg64k())
	wordsPerCache := uint64(64<<10) / mem.WordBytes
	c.Access(0, true, false)              // dirty line
	c.Access(wordsPerCache, false, false) // evicts it
	if c.S.Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.S.Writebacks)
	}
	// Clean eviction: no writeback.
	c.Access(2*wordsPerCache, false, false)
	if c.S.Writebacks != 1 {
		t.Errorf("clean eviction wrote back: %+v", c.S)
	}
}

func TestMissRatioAndAccessors(t *testing.T) {
	c := New(cfg64k())
	for i := uint64(0); i < 8; i++ {
		c.Access(i, false, false) // one block: 1 miss, 7 hits
	}
	if got := c.S.MissRatio(); got != 0.125 {
		t.Errorf("MissRatio = %v, want 0.125", got)
	}
	var empty Stats
	if empty.MissRatio() != 0 {
		t.Error("empty MissRatio should be 0")
	}
	if c.Config() != cfg64k() {
		t.Error("Config accessor mismatch")
	}
}

func TestResetClearsEverything(t *testing.T) {
	c := New(cfg64k())
	c.EnableBlockStats()
	c.Access(0, true, false)
	c.Access(1, false, false)
	c.Reset()
	if c.S != (Stats{}) {
		t.Errorf("stats not cleared: %+v", c.S)
	}
	refs, misses := c.BlockStats()
	for i := range refs {
		if refs[i] != 0 || misses[i] != 0 {
			t.Fatal("block stats not cleared")
		}
	}
	c.Access(0, false, false)
	if c.S.ReadMisses != 1 {
		t.Error("cache contents not cleared by Reset")
	}
}

func TestBlockStatsAndMissEvents(t *testing.T) {
	c := New(cfg64k())
	c.EnableBlockStats()
	var events []MissEvent
	c.OnMiss(func(e MissEvent) { events = append(events, e) })
	c.Access(0, true, false)  // alloc claim in cache block 0
	c.Access(0, false, false) // hit
	c.Access(8, false, false) // read miss in cache block 1
	refs, misses := c.BlockStats()
	if refs[0] != 2 || misses[0] != 1 || refs[1] != 1 || misses[1] != 1 {
		t.Errorf("block stats: refs0=%d misses0=%d refs1=%d misses1=%d", refs[0], misses[0], refs[1], misses[1])
	}
	if len(events) != 2 {
		t.Fatalf("got %d miss events, want 2", len(events))
	}
	if !events[0].Alloc || events[0].CacheBlock != 0 {
		t.Errorf("first event = %+v, want alloc in block 0", events[0])
	}
	if events[1].Alloc || events[1].CacheBlock != 1 || events[1].RefIndex != 3 {
		t.Errorf("second event = %+v", events[1])
	}
}

func TestBankFansOut(t *testing.T) {
	b := NewBank([]Config{
		{32 << 10, 16, WriteValidate},
		{64 << 10, 64, WriteValidate},
	})
	b.Ref(0, false, false)
	for _, c := range b.Caches {
		if c.S.ReadMisses != 1 {
			t.Errorf("cache %v: ReadMisses = %d, want 1", c.Config(), c.S.ReadMisses)
		}
	}
	if b.Find(Config{64 << 10, 64, WriteValidate}) == nil {
		t.Error("Find failed for present config")
	}
	if b.Find(Config{128 << 10, 64, WriteValidate}) != nil {
		t.Error("Find succeeded for absent config")
	}
}

func TestMissPenaltyTable(t *testing.T) {
	// The Section 5 table, recomputed from the Przybylski model:
	// penalty(B) = 30 + 180 + 30*ceil(B/16) ns.
	want := map[int]struct{ ns, slow, fast int }{
		16:  {240, 8, 120},
		32:  {270, 9, 135},
		64:  {330, 11, 165},
		128: {450, 15, 225},
		256: {690, 23, 345},
	}
	for b, w := range want {
		if ns := MissPenaltyNs(b); ns != w.ns {
			t.Errorf("MissPenaltyNs(%d) = %d, want %d", b, ns, w.ns)
		}
		if got := Slow.MissPenalty(b); got != w.slow {
			t.Errorf("Slow.MissPenalty(%d) = %d, want %d", b, got, w.slow)
		}
		if got := Fast.MissPenalty(b); got != w.fast {
			t.Errorf("Fast.MissPenalty(%d) = %d, want %d", b, got, w.fast)
		}
	}
}

func TestOverheadFormulas(t *testing.T) {
	// O_cache = M*P/I: 1000 misses, penalty 11 (slow, 64b), 1e6 insns.
	got := Slow.CacheOverhead(1000, 1_000_000, 64)
	if want := 0.011; got != want {
		t.Errorf("CacheOverhead = %v, want %v", got, want)
	}
	if Slow.CacheOverhead(10, 0, 64) != 0 {
		t.Error("zero-instruction overhead should be 0")
	}
	// O_gc with a negative ΔM_prog can be negative.
	ogc := Slow.GCOverhead(100, -5000, 10_000, 0, 1_000_000, 64)
	if ogc >= 0 {
		t.Errorf("GCOverhead = %v, want negative", ogc)
	}
	// And with all-positive components it is positive.
	ogc = Fast.GCOverhead(1000, 500, 100_000, 2000, 1_000_000, 64)
	if ogc <= 0 {
		t.Errorf("GCOverhead = %v, want positive", ogc)
	}
	if Fast.GCOverhead(1, 1, 1, 1, 0, 64) != 0 {
		t.Error("zero-instruction GC overhead should be 0")
	}
	// Write-backs cost the buffered transfer time only: 64 bytes is four
	// 16-byte transfers = 120ns = 4 slow cycles.
	if Slow.WritebackCycles(64) != 4 || Fast.WritebackCycles(64) != 60 {
		t.Errorf("WritebackCycles = %d/%d, want 4/60",
			Slow.WritebackCycles(64), Fast.WritebackCycles(64))
	}
	if w := Slow.WriteOverhead(1000, 1_000_000, 64); w != 0.004 {
		t.Errorf("WriteOverhead = %v, want 0.004", w)
	}
	if Slow.WriteOverhead(1, 0, 64) != 0 {
		t.Error("zero-instruction write overhead should be 0")
	}
}

func TestSweepConfigs(t *testing.T) {
	cfgs := SweepConfigs(WriteValidate)
	if len(cfgs) != len(Sizes)*len(BlockSizes) {
		t.Fatalf("got %d configs, want %d", len(cfgs), len(Sizes)*len(BlockSizes))
	}
	seen := map[Config]bool{}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("invalid sweep config %v: %v", c, err)
		}
		if seen[c] {
			t.Errorf("duplicate config %v", c)
		}
		seen[c] = true
	}
}

func TestPolicyAndConfigStrings(t *testing.T) {
	if WriteValidate.String() != "write-validate" || FetchOnWrite.String() != "fetch-on-write" {
		t.Error("policy names wrong")
	}
	c := Config{64 << 10, 64, WriteValidate}
	if c.String() != "64k/64b/write-validate" {
		t.Errorf("Config.String() = %q", c.String())
	}
}

// FuzzConfigJSON holds Config's JSON form to its contract: any input
// either fails to decode, or decodes to one of the two policies and
// encodes to bytes that decode to the same Config and encode to the same
// bytes again.
func FuzzConfigJSON(f *testing.F) {
	f.Add([]byte(`{"size_bytes":65536,"block_bytes":64,"policy":"write-validate"}`))
	f.Add([]byte(`{"size_bytes":1048576,"block_bytes":16,"policy":"fetch-on-write"}`))
	f.Add([]byte(`{"size_bytes":32768,"policy":"write-sometimes"}`))
	f.Add([]byte(`{"Policy":1}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		if json.Unmarshal(data, &c) != nil {
			return
		}
		if c.Policy != WriteValidate && c.Policy != FetchOnWrite {
			t.Fatalf("%q decoded to policy %d", data, c.Policy)
		}
		enc, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("encoding %+v: %v", c, err)
		}
		var back Config
		if err := json.Unmarshal(enc, &back); err != nil || back != c {
			t.Fatalf("%s decoded to %+v (err %v), want %+v", enc, back, err, c)
		}
		if again, err := json.Marshal(back); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding %+v gave %s (err %v), want %s", back, again, err, enc)
		}
	})
}

// Property: for any reference sequence, a reference to a word that was the
// most recent reference (same address, back to back) is never a penalized
// miss, and total events are conserved.
func TestPropertyRepeatAccessHits(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c := New(Config{SizeBytes: 32 << 10, BlockBytes: 32, Policy: WriteValidate})
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w, false)
			before := c.S.Misses() + c.S.WriteAllocs
			c.Access(uint64(a), false, false) // immediate re-read must hit
			if c.S.Misses()+c.S.WriteAllocs != before {
				return false
			}
		}
		return c.S.Refs() == uint64(2*len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: with fetch-on-write, misses+hits accounting is consistent and
// miss ratio is within [0,1].
func TestPropertyMissRatioBounded(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New(Config{SizeBytes: 32 << 10, BlockBytes: 16, Policy: FetchOnWrite})
		for i, a := range addrs {
			c.Access(uint64(a%1<<20), i%3 == 0, false)
		}
		r := c.S.MissRatio()
		return r >= 0 && r <= 1 && c.S.Misses() <= c.S.Refs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a bank's caches behave identically to standalone caches fed the
// same stream.
func TestPropertyBankMatchesStandalone(t *testing.T) {
	f := func(addrs []uint16) bool {
		cfg := Config{SizeBytes: 32 << 10, BlockBytes: 64, Policy: WriteValidate}
		solo := New(cfg)
		bank := NewBank([]Config{cfg, {64 << 10, 16, FetchOnWrite}})
		for i, a := range addrs {
			w := i%2 == 0
			solo.Access(uint64(a), w, false)
			bank.Ref(uint64(a), w, false)
		}
		return bank.Find(cfg).S == solo.S
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAccessBatchMatchesAccess(t *testing.T) {
	stream := synthStream(100_000)
	one := New(Config{SizeBytes: 64 << 10, BlockBytes: 64, Policy: WriteValidate})
	for _, r := range stream {
		one.Access(r.Addr(), r.Write(), r.Collector())
	}
	batched := New(Config{SizeBytes: 64 << 10, BlockBytes: 64, Policy: WriteValidate})
	feedChunks(batched, stream)
	if one.S != batched.S {
		t.Fatalf("per-ref stats %+v != batched stats %+v", one.S, batched.S)
	}
	if one.S.Misses() == 0 || one.S.Writebacks == 0 {
		t.Fatal("stream exercised no misses/writebacks; test is vacuous")
	}
}
