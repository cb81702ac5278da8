package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func tinyGeom() CacheGeom {
	// 4 sets x 2 ways x 64B lines = 512B.
	return CacheGeom{SizeBytes: 512, LineBytes: 64, Assoc: 2, MissPenalty: 8}
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := NewCache(tinyGeom())
	if c.Access(100, ClassData) {
		t.Fatal("cold access hit")
	}
	if !c.Access(100, ClassData) {
		t.Fatal("second access missed")
	}
	if hit, ev := c.AccessEvict(100, ClassData); !hit || ev != 0 {
		t.Errorf("resident access = (hit %v, evicted %d), want a hit evicting nothing", hit, ev)
	}
}

// The class labels traffic for the caller's counters only: instruction and
// data accesses share one set of lines (the unified L2 and LLC rely on it).
func TestCacheClassSplit(t *testing.T) {
	c := NewCache(tinyGeom())
	if c.Access(1, ClassInstr) {
		t.Error("cold instruction access hit")
	}
	if c.Access(2, ClassData) {
		t.Error("cold data access hit")
	}
	if !c.Access(1, ClassInstr) {
		t.Error("instruction line missed on reuse")
	}
	if !c.Access(2, ClassInstr) {
		t.Error("data-filled line missed when fetched as an instruction")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(tinyGeom()) // 4 sets, 2 ways
	// Lines 0, 4, 8 all map to set 0. With 2 ways, inserting 0 then 4 then 8
	// must evict 0 (the LRU).
	for _, line := range []uint64{0, 4} {
		if hit, ev := c.AccessEvict(line, ClassData); hit || ev != 0 {
			t.Fatalf("fill of line %d into a free way = (hit %v, evicted %d)", line, hit, ev)
		}
	}
	// Evicted tags are lineID+1, so line 0 reports as 1.
	if hit, ev := c.AccessEvict(8, ClassData); hit || ev != 1 {
		t.Fatalf("third fill of set 0 = (hit %v, evicted tag %d), want a miss evicting line 0", hit, ev)
	}
	if c.Probe(0) {
		t.Error("LRU line 0 still resident after eviction")
	}
	if !c.Probe(4) || !c.Probe(8) {
		t.Error("recently used lines evicted")
	}
	// Touching 4 makes 8 the LRU; inserting 12 must evict 8.
	c.Access(4, ClassData)
	if ev := c.FillQuietEvict(12); ev != 8+1 {
		t.Errorf("quiet fill evicted tag %d, want line 8's", ev)
	}
	if c.Probe(8) {
		t.Error("line 8 should have been the LRU victim")
	}
	if !c.Probe(4) {
		t.Error("MRU line 4 evicted")
	}
}

func TestCacheDifferentSetsDoNotConflict(t *testing.T) {
	c := NewCache(tinyGeom())
	for line := uint64(0); line < 4; line++ { // one line per set
		c.Access(line, ClassData)
	}
	for line := uint64(0); line < 4; line++ {
		if !c.Probe(line) {
			t.Errorf("line %d evicted despite set having free ways", line)
		}
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(tinyGeom())
	c.Access(5, ClassData)
	if !c.Invalidate(5) {
		t.Fatal("Invalidate missed resident line")
	}
	if c.Probe(5) {
		t.Fatal("line resident after invalidation")
	}
	if c.Invalidate(5) {
		t.Fatal("Invalidate reported success for absent line")
	}
	// The freed way must be reusable without evicting the other way.
	c.Access(1, ClassData) // set 1
	c.Access(5, ClassData) // set 1
	if !c.Probe(1) || !c.Probe(5) {
		t.Error("invalidation did not free a way")
	}
}

func TestCacheFillQuietDoesNotCount(t *testing.T) {
	c := NewCache(tinyGeom())
	c.FillQuiet(7)
	if !c.Probe(7) {
		t.Fatal("quiet fill left the line absent")
	}
	if ev := c.FillQuietEvict(7); ev != 0 {
		t.Errorf("quiet refill of a resident line evicted tag %d", ev)
	}
	if !c.Access(7, ClassInstr) {
		t.Error("quiet-filled line missed")
	}
}

func TestCacheCapacityWorkingSetFits(t *testing.T) {
	g := CacheGeom{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, MissPenalty: 8}
	c := NewCache(g)
	lines := g.SizeBytes / g.LineBytes
	// Two passes over a working set exactly the cache size: second pass must
	// be all hits.
	for i := 0; i < lines; i++ {
		if hit, ev := c.AccessEvict(uint64(i), ClassData); hit || ev != 0 {
			t.Fatalf("first pass, line %d: (hit %v, evicted %d), want a cold fill into a free way", i, hit, ev)
		}
	}
	for i := 0; i < lines; i++ {
		if !c.Access(uint64(i), ClassData) {
			t.Fatalf("line %d missed on second pass", i)
		}
	}
}

func TestCacheCapacityWorkingSetThrashes(t *testing.T) {
	g := CacheGeom{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8, MissPenalty: 8}
	c := NewCache(g)
	lines := 2 * g.SizeBytes / g.LineBytes // 2x capacity, cyclic: classic LRU thrash
	accesses, misses := 0, 0
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			accesses++
			if !c.Access(uint64(i), ClassData) {
				misses++
			}
		}
	}
	if misses != accesses {
		t.Errorf("cyclic over-capacity sweep should miss every access under LRU: %d/%d",
			misses, accesses)
	}
}

// referenceLRU is an oracle: per-set slices managed as explicit LRU lists.
type referenceLRU struct {
	sets [][]uint64
	ways int
}

func newReferenceLRU(g CacheGeom) *referenceLRU {
	return &referenceLRU{sets: make([][]uint64, g.Sets()), ways: g.Assoc}
}

func (r *referenceLRU) access(line uint64) bool {
	idx := int(line % uint64(len(r.sets)))
	set := r.sets[idx]
	for i, l := range set {
		if l == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	set = append([]uint64{line}, set...)
	if len(set) > r.ways {
		set = set[:r.ways]
	}
	r.sets[idx] = set
	return false
}

// Property: the cache agrees with the reference LRU model on every access of
// a random trace.
func TestQuickCacheMatchesReferenceLRU(t *testing.T) {
	g := CacheGeom{SizeBytes: 2048, LineBytes: 64, Assoc: 4, MissPenalty: 8}
	f := func(seed int64) bool {
		c := NewCache(g)
		ref := newReferenceLRU(g)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			line := uint64(rng.Intn(64)) // heavy reuse to exercise LRU order
			if c.Access(line, ClassData) != ref.access(line) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIvyBridgeGeometry(t *testing.T) {
	cfg := IvyBridge(1)
	if got := cfg.L1I.Sets(); got != 64 {
		t.Errorf("L1I sets = %d, want 64", got)
	}
	if got := cfg.L2.Sets(); got != 512 {
		t.Errorf("L2 sets = %d, want 512", got)
	}
	if got := cfg.LLC.Sets(); got != 16384 {
		t.Errorf("LLC sets = %d, want 16384", got)
	}
	if cfg.L1I.MissPenalty != 8 || cfg.L2.MissPenalty != 19 || cfg.LLC.MissPenalty != 167 {
		t.Errorf("penalties = %d/%d/%d, want 8/19/167 per Table 1",
			cfg.L1I.MissPenalty, cfg.L2.MissPenalty, cfg.LLC.MissPenalty)
	}
}
