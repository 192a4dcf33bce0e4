//! Set-associative write-back cache model and the two-level hierarchy.

/// Access outcome at one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Hit,
    /// Miss; `writeback` is true if a dirty victim was evicted.
    Miss {
        writeback: bool,
    },
}

/// One set-associative, write-back, write-allocate, LRU cache.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line: u32,
    /// `log2(line)` — line sizes are powers of two, so set/tag extraction
    /// is shift+mask instead of the integer divisions the compiler would
    /// otherwise emit for the runtime-valued `line`/`sets` (three `udiv`s
    /// per access dominate pointer-chasing simulations).
    line_shift: u32,
    /// `log2(sets)`.
    set_shift: u32,
    /// tags[set * ways + way]
    tags: Vec<Option<u32>>,
    dirty: Vec<bool>,
    lru: Vec<u64>,
    /// Most-recently-hit way per set — a lookup shortcut only. Temporal
    /// locality makes the MRU way the overwhelmingly likely hit, so
    /// [`Cache::access`] probes it before scanning the set. Tags are
    /// unique within a set, so probing in a different order can never
    /// change which way matches: observable state (tags, LRU order,
    /// dirty bits, counters) evolves identically.
    mru: Vec<u32>,
    tick: u64,
    pub hits: u64,
    pub misses: u64,
    pub writebacks: u64,
}

impl Cache {
    /// Creates a cache of `size` bytes with `ways` ways and `line`-byte
    /// lines.
    ///
    /// # Panics
    /// Panics unless sizes divide evenly into a power-of-two set count.
    pub fn new(size: u32, ways: usize, line: u32) -> Cache {
        let sets = (size / line) as usize / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(line.is_power_of_two(), "line size must be a power of two");
        Cache {
            sets,
            ways,
            line,
            line_shift: line.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            tags: vec![None; sets * ways],
            dirty: vec![false; sets * ways],
            lru: vec![0; sets * ways],
            mru: vec![0; sets],
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    #[inline]
    fn set_of(&self, addr: u32) -> usize {
        ((addr >> self.line_shift) as usize) & (self.sets - 1)
    }

    #[inline]
    fn tag_of(&self, addr: u32) -> u32 {
        addr >> (self.line_shift + self.set_shift)
    }

    /// Performs an access; returns the outcome.
    pub fn access(&mut self, addr: u32, write: bool) -> Outcome {
        self.access_at(addr, write).0
    }

    /// [`Self::access`], additionally returning the flat slot the line
    /// lives in afterwards (the hit way, or the filled victim on a miss).
    /// The simulator's line buffers re-arm from this, saving the separate
    /// [`Self::slot_of`] set scan per buffer miss.
    pub fn access_at(&mut self, addr: u32, write: bool) -> (Outcome, usize) {
        self.tick += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.ways;
        // MRU probe first: on pointer-chasing access patterns most hits
        // land on the way hit last time, skipping the set scan.
        let hint = self.mru[set] as usize;
        if self.tags[base + hint] == Some(tag) {
            self.lru[base + hint] = self.tick;
            if write {
                self.dirty[base + hint] = true;
            }
            self.hits += 1;
            return (Outcome::Hit, base + hint);
        }
        for w in 0..self.ways {
            if w != hint && self.tags[base + w] == Some(tag) {
                self.lru[base + w] = self.tick;
                if write {
                    self.dirty[base + w] = true;
                }
                self.hits += 1;
                self.mru[set] = w as u32;
                return (Outcome::Hit, base + w);
            }
        }
        // Miss: fill LRU victim.
        self.misses += 1;
        let victim = (0..self.ways)
            .min_by_key(|w| self.lru[base + w])
            .expect("ways > 0");
        let wb = self.dirty[base + victim] && self.tags[base + victim].is_some();
        if wb {
            self.writebacks += 1;
        }
        self.tags[base + victim] = Some(tag);
        self.dirty[base + victim] = write;
        self.lru[base + victim] = self.tick;
        self.mru[set] = victim as u32;
        (Outcome::Miss { writeback: wb }, base + victim)
    }

    /// Probes for `addr` without touching any state or counters; returns
    /// the flat `tags`/`lru` slot index when the line is resident.
    pub fn slot_of(&self, addr: u32) -> Option<usize> {
        let base = self.set_of(addr) * self.ways;
        let tag = self.tag_of(addr);
        (0..self.ways)
            .map(|w| base + w)
            .find(|&s| self.tags[s] == Some(tag))
    }

    /// Records a hit on a known-resident `slot` (from [`Self::slot_of`])
    /// without re-running the tag comparison. State evolution is identical
    /// to `access(addr, write)` taking the hit path — the simulator's
    /// line buffers use this so buffered accesses stay bit-exact with
    /// unbuffered simulation (same hit counts, same LRU ordering, same
    /// dirty bits).
    #[inline]
    pub fn touch_hit(&mut self, slot: usize, write: bool) {
        self.tick += 1;
        self.lru[slot] = self.tick;
        if write {
            self.dirty[slot] = true;
        }
        self.hits += 1;
    }

    /// `n` consecutive read hits on the same resident `slot`, batched.
    /// Equivalent to `n` read [`Self::touch_hit`]s: only the
    /// final LRU stamp survives consecutive touches of one slot, so the
    /// intermediate stamps are unobservable. The turbo engine uses this
    /// to flush accumulated same-line instruction fetches in O(1).
    #[inline]
    pub fn touch_hits(&mut self, slot: usize, n: u64) {
        if n == 0 {
            return;
        }
        self.tick += n;
        self.lru[slot] = self.tick;
        self.hits += n;
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Line size in bytes.
    pub fn line(&self) -> u32 {
        self.line
    }

    /// Number of sets (always a power of two; the set index is
    /// `(addr >> line_shift) & (sets - 1)`).
    pub fn sets(&self) -> usize {
        self.sets
    }
}

/// The memory hierarchy of §4.1: 8 KiB 4-way L1I/L1D, 256 KiB 8-way L2,
/// fixed-latency DRAM.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    pub l1i: Cache,
    pub l1d: Cache,
    pub l2: Cache,
    pub dram_accesses: u64,
    /// Stall cycles on an L1 miss that hits L2.
    pub l2_latency: u64,
    /// Additional stall cycles on an L2 miss (DRAM).
    pub dram_latency: u64,
}

impl Default for Hierarchy {
    fn default() -> Self {
        Hierarchy {
            l1i: Cache::new(8 << 10, 4, 32),
            l1d: Cache::new(8 << 10, 4, 32),
            l2: Cache::new(256 << 10, 8, 32),
            dram_accesses: 0,
            l2_latency: 10,
            dram_latency: 70,
        }
    }
}

impl Hierarchy {
    /// Instruction fetch of one slot at `addr`; returns stall cycles.
    pub fn fetch(&mut self, addr: u32) -> u64 {
        self.fetch_at(addr).0
    }

    /// [`Self::fetch`], also returning the L1I slot holding the line.
    pub fn fetch_at(&mut self, addr: u32) -> (u64, usize) {
        let (outcome, slot) = self.l1i.access_at(addr, false);
        let stall = match outcome {
            Outcome::Hit => 0,
            Outcome::Miss { .. } => match self.l2.access(addr, false) {
                Outcome::Hit => self.l2_latency,
                Outcome::Miss { writeback } => {
                    self.dram_accesses += 1;
                    if writeback {
                        self.dram_accesses += 1;
                    }
                    self.l2_latency + self.dram_latency
                }
            },
        };
        (stall, slot)
    }

    /// Data access; returns stall cycles.
    pub fn data(&mut self, addr: u32, write: bool) -> u64 {
        self.data_at(addr, write).0
    }

    /// [`Self::data`], also returning the L1D slot holding the line.
    pub fn data_at(&mut self, addr: u32, write: bool) -> (u64, usize) {
        let (outcome, slot) = self.l1d.access_at(addr, write);
        let stall = match outcome {
            Outcome::Hit => 0,
            Outcome::Miss { writeback } => {
                if writeback {
                    // Write-back to L2 (buffered; energy only, via counts).
                    self.l2.access(addr, true);
                }
                match self.l2.access(addr, false) {
                    Outcome::Hit => self.l2_latency,
                    Outcome::Miss { writeback: wb2 } => {
                        self.dram_accesses += 1;
                        if wb2 {
                            self.dram_accesses += 1;
                        }
                        self.l2_latency + self.dram_latency
                    }
                }
            }
        };
        (stall, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(8 << 10, 4, 32);
        assert_eq!(c.access(0x100, false), Outcome::Miss { writeback: false });
        assert_eq!(c.access(0x104, false), Outcome::Hit); // same line
        assert_eq!(c.access(0x120, false), Outcome::Miss { writeback: false });
        assert_eq!(c.hits + c.misses, 3);
    }

    #[test]
    fn lru_eviction_and_writeback() {
        // 4-way set: fill 5 distinct lines mapping to the same set.
        let mut c = Cache::new(8 << 10, 4, 32);
        let sets = (8 << 10) / 32 / 4; // 64 sets
        let stride = 32 * sets as u32;
        for i in 0..4 {
            c.access(i * stride, true); // dirty fills
        }
        // 5th line evicts the LRU (line 0), which is dirty → writeback.
        assert_eq!(
            c.access(4 * stride, false),
            Outcome::Miss { writeback: true }
        );
        assert_eq!(c.writebacks, 1);
        // Line 0 is gone — and refetching it evicts the next dirty victim.
        assert_eq!(c.access(0, false), Outcome::Miss { writeback: true });
        assert_eq!(c.writebacks, 2);
    }

    #[test]
    fn accounting_is_conservative() {
        let mut c = Cache::new(1 << 10, 2, 32);
        for a in (0..4096).step_by(4) {
            c.access(a, a % 8 == 0);
        }
        assert_eq!(c.accesses(), 1024);
        assert!(c.misses >= (4096 / 32), "each line missed at least once");
    }

    #[test]
    fn touch_hit_matches_access_hit() {
        // Two caches, same access stream (reads and writes); one routes
        // repeat hits through slot_of + touch_hit. All observable state
        // must match, including dirty bits.
        let mut a = Cache::new(1 << 10, 2, 32);
        let mut b = Cache::new(1 << 10, 2, 32);
        let stream = [
            (0x100u32, false),
            (0x104, true),
            (0x108, false),
            (0x200, true),
            (0x104, false),
            (0x100, true),
            (0x300, false),
        ];
        for &(addr, write) in &stream {
            a.access(addr, write);
            match b.slot_of(addr) {
                Some(slot) => b.touch_hit(slot, write),
                None => {
                    b.access(addr, write);
                }
            }
        }
        assert_eq!((a.hits, a.misses, a.tick), (b.hits, b.misses, b.tick));
        assert_eq!(a.tags, b.tags);
        assert_eq!(a.lru, b.lru);
        assert_eq!(a.dirty, b.dirty);
    }

    #[test]
    fn touch_hits_batches_read_hits() {
        // touch_hits(slot, n) must leave exactly the state n separate
        // read touch_hit calls would, for any n — including interleaved
        // with real accesses that move the LRU clock.
        for n in [1u64, 2, 3, 7, 32] {
            let mut a = Cache::new(1 << 10, 2, 32);
            let mut b = a.clone();
            a.access(0x100, false);
            b.access(0x100, false);
            a.access(0x200, true);
            b.access(0x200, true);
            let slot = a.slot_of(0x100).expect("resident");
            for _ in 0..n {
                a.touch_hit(slot, false);
            }
            b.touch_hits(slot, n);
            assert_eq!((a.hits, a.misses, a.tick), (b.hits, b.misses, b.tick));
            assert_eq!(a.tags, b.tags);
            assert_eq!(a.lru, b.lru);
            assert_eq!(a.dirty, b.dirty);
            // And both caches keep behaving identically afterwards.
            assert_eq!(a.access(0x100, false), b.access(0x100, false));
            assert_eq!(a.access(0x340, true), b.access(0x340, true));
            assert_eq!(a.lru, b.lru);
        }
    }

    #[test]
    fn hierarchy_latencies() {
        let mut h = Hierarchy::default();
        let cold = h.fetch(0x4000);
        assert_eq!(cold, h.l2_latency + h.dram_latency);
        let warm = h.fetch(0x4000);
        assert_eq!(warm, 0);
        // A second cold line goes all the way to DRAM as well.
        let cold2 = h.fetch(0x4000 + 64 * 32 * 4);
        assert_eq!(cold2, h.l2_latency + h.dram_latency);
        assert_eq!(h.dram_accesses, 2);
    }
}
