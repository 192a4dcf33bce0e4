//! One single-flight memo behind every process-wide cache.
//!
//! A [`Memo<V>`] maps a `u64` content key to a shared `Arc<V>` and looks
//! it up memory → disk (when the memo has a [`Codec`] and a
//! [`crate::store`] is active) → compute. A disk hit is adopted into
//! memory; a computed value is published to both tiers.
//!
//! **Single-flight.** The first lookup to miss a key *leads*: it parks an
//! in-flight slot, consults the disk and runs `make` without holding the
//! map lock. Concurrent lookups of the same key wait for the leader's
//! `Arc` instead of computing it again, so every value is computed once
//! and the counters are the same at any worker count. If `make` returns
//! `Err` or panics, the slot is released and one waiter leads the
//! recompute; failures are never published, so they recur per caller.
//!
//! Waiting cannot deadlock: a leader's `make` only looks up kinds
//! strictly below its own in the DAG `expand → front`,
//! `gate → {fnmir, sim}`, `manifest → all`, so no chain of waits can
//! close a cycle. (Content-keyed kinds such as `profile` and `gate` look
//! their upstream artifact up *before* leading, to compute the key, never
//! inside `make`.)
//!
//! **Counters.** One process-wide table keyed by kind name ([`stats`])
//! holds every memo's [`Counts`], the disk tier's included: the store
//! only reads and writes files, and [`Memo`] classifies each read it
//! makes. Bypassed lookups skip both tiers and leave the counters
//! unchanged.

use crate::store::{self, Read, Store};
use crate::wire::WireError;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Where a [`Memo::get`] value came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The memory tier, including a wait on a concurrent leader.
    Memory,
    /// The persistent artifact store ([`crate::store`]).
    Disk,
    /// Computed by this lookup (then published to both tiers).
    Computed,
}

impl Source {
    /// Stable lowercase label for JSONL output.
    pub fn label(self) -> &'static str {
        match self {
            Source::Memory => "memory",
            Source::Disk => "disk",
            Source::Computed => "computed",
        }
    }

    /// Whether the lookup was served without computing.
    pub fn hit(self) -> bool {
        self != Source::Computed
    }
}

/// How a memo's values round-trip through the persistent store (under
/// the memo's kind name).
pub struct Codec<V> {
    pub enc: fn(&V) -> Vec<u8>,
    pub dec: fn(&[u8]) -> Result<V, WireError>,
}

/// Cumulative counters of one memo kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Lookups served without computing (memory, disk or a wait).
    pub hits: u64,
    /// Lookups that computed a value successfully.
    pub misses: u64,
    /// Hits served from the store after a memory miss (also in `hits`).
    pub disk_hits: u64,
    /// Memory misses that found nothing usable in an active store.
    pub disk_misses: u64,
    /// Disk misses that found a damaged entry or an undecodable payload.
    /// Also in `disk_misses`.
    pub corrupt: u64,
    /// Entries this memo handed to the store to write (the store drops
    /// a write that fails, as on a full disk).
    pub puts: u64,
    /// Lookups that waited on a concurrent leader (also in `hits`, or a
    /// recompute when the leader failed).
    pub waits: u64,
}

impl Counts {
    /// Field-wise `self - before`.
    pub fn since(self, before: Counts) -> Counts {
        Counts {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            disk_hits: self.disk_hits - before.disk_hits,
            disk_misses: self.disk_misses - before.disk_misses,
            corrupt: self.corrupt - before.corrupt,
            puts: self.puts - before.puts,
            waits: self.waits - before.waits,
        }
    }
}

/// A snapshot of the counter table, one [`Counts`] row per kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats(BTreeMap<&'static str, Counts>);

impl Stats {
    /// One kind's counters (zero for a kind never looked up).
    pub fn get(&self, kind: &str) -> Counts {
        self.0.get(kind).copied().unwrap_or_default()
    }

    /// The rows, in kind-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Counts)> + '_ {
        self.0.iter().map(|(&k, &c)| (k, c))
    }

    /// Per-kind deltas from `before` to `self`.
    pub fn since(&self, before: &Stats) -> Stats {
        Stats(
            self.iter()
                .map(|(k, c)| (k, c.since(before.get(k))))
                .collect(),
        )
    }
}

static TABLE: Mutex<BTreeMap<&'static str, Counts>> = Mutex::new(BTreeMap::new());

/// Snapshot of every kind's cumulative counters.
pub fn stats() -> Stats {
    Stats(TABLE.lock().expect("memo counters").clone())
}

fn count(kind: &'static str, bump: impl FnOnce(&mut Counts)) {
    let mut table = TABLE.lock().expect("memo counters");
    bump(table.entry(kind).or_default());
}

enum Slot<V> {
    Ready(Arc<V>),
    /// A leader is computing this key.
    Running,
}

/// A process-wide single-flight memo for one kind of value.
pub struct Memo<V> {
    kind: &'static str,
    codec: Option<Codec<V>>,
    slots: Mutex<BTreeMap<u64, Slot<V>>>,
    /// Signalled whenever a leader publishes or releases a slot.
    settled: Condvar,
}

impl<V> Memo<V> {
    /// An empty memo counted (and stored, with a codec) as `kind`.
    pub const fn new(kind: &'static str, codec: Option<Codec<V>>) -> Memo<V> {
        Memo {
            kind,
            codec,
            slots: Mutex::new(BTreeMap::new()),
            settled: Condvar::new(),
        }
    }

    /// Every update of the slot map is one insert, remove or retain, so
    /// the map stays valid even if a holder panicked; recovering the
    /// guard also keeps [`Lead`]'s `Drop` from panicking.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, Slot<V>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drops every published value (in-flight computes still publish).
    pub fn clear(&self) {
        self.lock().retain(|_, s| matches!(s, Slot::Running));
    }

    /// Looks `key` up memory → disk → `make`, waiting on a concurrent
    /// leader instead of computing twice. With `bypass`, `make` runs
    /// directly and nothing is read, published or counted.
    ///
    /// # Errors
    /// Propagates `make`'s error (never published).
    pub fn get<E>(
        &self,
        key: u64,
        bypass: bool,
        make: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, Source), E> {
        if bypass {
            return Ok((Arc::new(make()?), Source::Computed));
        }
        let mut slots = self.lock();
        let mut waited = false;
        loop {
            match slots.get(&key) {
                Some(Slot::Ready(v)) => {
                    let v = Arc::clone(v);
                    drop(slots);
                    count(self.kind, |c| c.hits += 1);
                    return Ok((v, Source::Memory));
                }
                Some(Slot::Running) => {
                    if !waited {
                        waited = true;
                        count(self.kind, |c| c.waits += 1);
                    }
                    slots = self
                        .settled
                        .wait(slots)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => break,
            }
        }
        slots.insert(key, Slot::Running);
        drop(slots);
        let lead = Lead { memo: self, key };
        let disk = self.codec.as_ref().zip(store::active());
        if let Some((codec, store)) = &disk {
            if let Some(v) = self.read(codec, store, key) {
                return Ok((lead.fill(v), Source::Disk));
            }
        }
        let v = lead.fill(make()?);
        count(self.kind, |c| c.misses += 1);
        if let Some((codec, store)) = &disk {
            store.put(self.kind, key, &(codec.enc)(&v));
            count(self.kind, |c| c.puts += 1);
        }
        Ok((v, Source::Computed))
    }

    /// Reads `key` from `store` and counts the outcome: a decoded value
    /// is a disk hit, anything else a disk miss. A damaged entry and a
    /// payload that does not decode (codec drift within one schema
    /// version; the entry is deleted) also count as `corrupt`.
    fn read(&self, codec: &Codec<V>, store: &Store, key: u64) -> Option<V> {
        let (v, corrupt) = match store.read(self.kind, key) {
            Read::Payload(bytes) => match (codec.dec)(&bytes) {
                Ok(v) => (Some(v), false),
                Err(_) => {
                    store.remove(self.kind, key);
                    (None, true)
                }
            },
            Read::Absent => (None, false),
            Read::Damaged => (None, true),
        };
        count(self.kind, |c| {
            if v.is_some() {
                c.hits += 1;
                c.disk_hits += 1;
            } else {
                c.disk_misses += 1;
                c.corrupt += u64::from(corrupt);
            }
        });
        v
    }
}

/// A leader's claim on one in-flight slot. Dropping it without
/// publishing (an `Err` or a panic in `make`) releases the slot; either
/// way the waiters wake.
struct Lead<'a, V> {
    memo: &'a Memo<V>,
    key: u64,
}

impl<V> Lead<'_, V> {
    /// Replaces the in-flight slot with `v` (the drop then wakes the
    /// waiters).
    fn fill(self, v: V) -> Arc<V> {
        let v = Arc::new(v);
        self.memo
            .lock()
            .insert(self.key, Slot::Ready(Arc::clone(&v)));
        v
    }
}

impl<V> Drop for Lead<'_, V> {
    fn drop(&mut self) {
        let mut slots = self.memo.lock();
        if let Some(Slot::Running) = slots.get(&self.key) {
            slots.remove(&self.key);
        }
        drop(slots);
        self.memo.settled.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread;
    use std::time::{Duration, Instant};

    const THREADS: usize = 8;

    /// Spins until `kind` has counted `n` waits (the leader holds its
    /// compute open until every other thread is parked on the slot), or
    /// gives up after a while so a memo that never waits fails the test
    /// instead of hanging it.
    fn await_waits(kind: &str, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while stats().get(kind).waits < n && Instant::now() < deadline {
            thread::yield_now();
        }
    }

    #[test]
    fn concurrent_misses_compute_once() {
        static M: Memo<u64> = Memo::new("memo-test-once", None);
        let runs = AtomicUsize::new(0);
        let barrier = Barrier::new(THREADS);
        let got: Vec<Arc<u64>> = thread::scope(|s| {
            let hs: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let (v, _) = M
                            .get(7, false, || {
                                runs.fetch_add(1, Ordering::SeqCst);
                                await_waits("memo-test-once", THREADS as u64 - 1);
                                Ok::<_, ()>(42)
                            })
                            .unwrap();
                        v
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "make ran more than once");
        assert!(got.iter().all(|v| Arc::ptr_eq(v, &got[0]) && **v == 42));
        let c = stats().get("memo-test-once");
        assert_eq!((c.misses, c.hits, c.waits), (1, 7, 7));
    }

    /// A leader that fails (by `Err` or by panic) releases its slot; one
    /// waiter then leads the recompute and the rest share its value.
    fn failed_leader_releases(kind: &'static str, memo: &'static Memo<u64>, panic: bool) {
        let runs = AtomicUsize::new(0);
        let barrier = Barrier::new(THREADS);
        let outcomes: Vec<Result<u64, ()>> = thread::scope(|s| {
            let hs: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            memo.get(1, false, || {
                                if runs.fetch_add(1, Ordering::SeqCst) == 0 {
                                    await_waits(kind, THREADS as u64 - 1);
                                    if panic {
                                        panic!("leader panics");
                                    }
                                    return Err(());
                                }
                                Ok(5)
                            })
                        }));
                        match r {
                            Ok(Ok((v, _))) => Ok(*v),
                            _ => Err(()),
                        }
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 2, "one failure, one recompute");
        assert_eq!(outcomes.iter().filter(|o| o.is_err()).count(), 1);
        assert!(outcomes.iter().filter_map(|o| o.ok()).all(|v| v == 5));
        let c = stats().get(kind);
        assert_eq!((c.misses, c.hits), (1, THREADS as u64 - 2));
    }

    #[test]
    fn erring_leader_releases_the_slot() {
        static M: Memo<u64> = Memo::new("memo-test-err", None);
        failed_leader_releases("memo-test-err", &M, false);
    }

    #[test]
    fn panicking_leader_releases_the_slot() {
        static M: Memo<u64> = Memo::new("memo-test-panic", None);
        failed_leader_releases("memo-test-panic", &M, true);
    }

    #[test]
    fn bypass_skips_both_tiers_and_counters() {
        static M: Memo<u64> = Memo::new("memo-test-bypass", None);
        let (v, src) = M.get(3, true, || Ok::<_, ()>(1)).unwrap();
        assert_eq!((*v, src), (1, Source::Computed));
        // Nothing was published: the next lookup computes its own value.
        let (v, src) = M.get(3, false, || Ok::<_, ()>(2)).unwrap();
        assert_eq!((*v, src), (2, Source::Computed));
        let before = stats().get("memo-test-bypass");
        let (v, _) = M.get(3, true, || Ok::<_, ()>(9)).unwrap();
        assert_eq!(*v, 9, "bypass never reads the memory tier");
        assert_eq!(stats().get("memo-test-bypass"), before);
    }

    const U64: Codec<u64> = Codec {
        enc: crate::wire::encode,
        dec: crate::wire::decode,
    };

    /// A private store under the temp dir (the process-wide store stays
    /// off, so the crate's other tests never see it), removed on drop.
    struct Scratch(std::path::PathBuf, Store);

    impl Scratch {
        fn new(name: &str) -> Scratch {
            let dir = std::env::temp_dir()
                .join(format!("bitspec-memo-unit-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = Store::open(&dir, None).unwrap();
            Scratch(dir, store)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Zero counts but for the fields `set` sets.
    fn only(set: impl FnOnce(&mut Counts)) -> Counts {
        let mut c = Counts::default();
        set(&mut c);
        c
    }

    /// `kind`'s counters moved by `read`.
    fn counted<T>(kind: &str, read: impl FnOnce() -> T) -> (T, Counts) {
        let before = stats().get(kind);
        let got = read();
        (got, stats().get(kind).since(before))
    }

    #[test]
    fn damaged_entries_count_corrupt_under_their_kind_only() {
        static A: Memo<u64> = Memo::new("memo-test-damaged", Some(U64));
        static B: Memo<u64> = Memo::new("memo-test-damaged-other", Some(U64));
        let s = Scratch::new("damaged");
        let store = &s.1;
        // Kind A, key 1: a whole frame whose payload is not a u64. Key 2:
        // a frame cut short. Kind B holds a whole entry under both keys.
        store.put(A.kind, 1, b"not a u64");
        store.put(A.kind, 2, &crate::wire::encode(&7u64));
        let cut =
            s.0.join(A.kind)
                .join(format!("{:016x}.art", store::versioned_key(A.kind, 2)));
        let bytes = std::fs::read(&cut).unwrap();
        std::fs::write(&cut, &bytes[..12]).unwrap();
        for key in [1, 2] {
            store.put(B.kind, key, &crate::wire::encode(&9u64));
        }

        for key in [1, 2] {
            let other = stats().get(B.kind);
            let (got, moved) = counted(A.kind, || A.read(&U64, store, key));
            assert_eq!(got, None);
            assert_eq!(
                moved,
                only(|c| {
                    c.disk_misses = 1;
                    c.corrupt = 1;
                }),
                "key {key}: a damaged entry"
            );
            assert_eq!(stats().get(B.kind), other, "kind B counted A's read");
            // The read deleted the entry: the next finds nothing, which a
            // plain lookup counts as a disk miss only.
            assert_eq!(store.get(A.kind, key), None);
            let (_, moved) = counted(A.kind, || A.read(&U64, store, key));
            assert_eq!(moved, only(|c| c.disk_misses = 1), "key {key}: deleted");
            let (got, moved) = counted(B.kind, || B.read(&U64, store, key));
            assert_eq!(got, Some(9), "B's entry is whole");
            assert_eq!(
                moved,
                only(|c| {
                    c.hits = 1;
                    c.disk_hits = 1;
                })
            );
        }
    }

    #[test]
    fn missing_entry_is_a_plain_miss() {
        static M: Memo<u64> = Memo::new("memo-test-missing", Some(U64));
        let s = Scratch::new("missing");
        let (got, plain) = counted(M.kind, || M.read(&U64, &s.1, 5));
        assert_eq!(got, None);
        assert_eq!(
            plain,
            only(|c| c.disk_misses = 1),
            "a plain lookup of a cold key is only a disk miss"
        );
    }
}
