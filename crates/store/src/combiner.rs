//! Flat-combining concurrent writer front-end over a batch-parallel set.
//!
//! # Combining epochs
//!
//! Point operations from concurrent threads are collected into *epochs*.
//! A submitting thread appends its operation to the open epoch's
//! publication buffer, then either becomes the **leader** (if the
//! single leader slot — a `Mutex` around the authoritative set — is free)
//! or waits for its epoch's completion. The leader:
//!
//! 1. seals the open epoch at once (a fresh epoch opens for later
//!    submitters) and replays the drained operations *in submission
//!    order* against a presence overlay, recording each operation's
//!    individual result — this is what makes the epoch linearizable:
//!    every operation observes exactly the operations submitted before it;
//! 2. folds the overlay's net effect into **one mixed op batch**
//!    (normalized by [`cpma_api::normalize_ops`]) and applies it with a
//!    single [`BatchSet::apply_batch_sorted`] call — one batch-parallel
//!    update per epoch, and one structure traversal where the former
//!    remove-batch + insert-batch split paid two;
//! 3. records the epoch as applied, publishes a fresh snapshot only if a
//!    reader is waiting for one (see below), then marks the epoch done
//!    and wakes all waiters with their results.
//!
//! Leadership is re-elected per epoch by `try_lock`: whichever waiter
//! finds the leader slot free next drives the next epoch, so the design
//! needs no dedicated combiner thread and quiesces to zero cost when
//! idle. Everything is built on `std` `Mutex`/`Condvar` only.
//!
//! # Reactive combining
//!
//! The leader never holds an epoch open waiting for more traffic: batch
//! size adapts to load by itself. While one leader applies an epoch, the
//! next publications pile up in the open one, so the busier the store,
//! the bigger the next batch; a [`Combiner::submit_many`] burst is one
//! publication and never splits across epochs. An idle store pays no
//! window latency at all. Every epoch's size feeds the always-on
//! [`CombinerStats`] (mirroring `PmaStats`).
//!
//! # Snapshot readers
//!
//! [`Combiner::snapshot`] returns an `Arc` snapshot that covers every
//! epoch applied before the call — so an acknowledged operation is always
//! visible to a later snapshot read. Snapshots are cut on *demand*, never
//! per epoch: a write-only stream clones nothing. Each published snapshot
//! carries the epoch count it was cloned at. A reader whose tag is current
//! pays one pointer clone. A stale reader clones and publishes the set
//! itself when the leader slot is free; otherwise it flags demand, and the
//! leader publishes after its epoch (or before it, if the flag
//! landed just after the previous leader looked). A stale read therefore
//! waits for at most one in-flight epoch plus one clone, and concurrent
//! stale readers share that one clone.
//!
//! # Examples
//!
//! ```
//! use cpma_store::Combiner;
//! use std::collections::BTreeSet;
//!
//! let store: Combiner<BTreeSet<u64>> = Combiner::new(BTreeSet::new());
//! assert!(store.insert(7));
//! assert!(store.snapshot().contains(&7));
//! let stats = store.stats();
//! assert_eq!((stats.epochs, stats.ops), (1, 1));
//! ```

use cpma_api::{
    normalize_batch, normalize_ops, BatchOp, BatchSet, Persist, PersistError, RangeSet, SetKey,
};
use cpma_obs::{Counter, Gauge, Histogram, Unit};
use cpma_persist::{recover, RecoveryReport, WalConfig, WalWriter};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::time::Duration;

/// One point operation submitted to a [`Combiner`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op<K> {
    /// Insert the key; acknowledged `true` iff the key was newly added.
    Insert(K),
    /// Remove the key; acknowledged `true` iff the key was present.
    Remove(K),
    /// Linearized membership test (goes through the op stream; use
    /// [`Combiner::snapshot`] for batch reads off the write path).
    Contains(K),
}

impl<K: Copy> Op<K> {
    fn key(&self) -> K {
        match *self {
            Op::Insert(k) | Op::Remove(k) | Op::Contains(k) => k,
        }
    }
}

/// Always-on combining statistics, mirroring `PmaStats`: a handful of
/// integer adds per *epoch*, kept under the leader lock, so they are
/// cheap, coherent, and need no feature flag.
///
/// # Examples
///
/// ```
/// use cpma_store::Combiner;
/// use std::collections::BTreeSet;
///
/// let c: Combiner<BTreeSet<u64>> = Combiner::new(BTreeSet::new());
/// c.insert_many(&[1, 2, 3, 4]);
/// let stats = c.stats();
/// assert_eq!((stats.epochs, stats.ops), (1, 4));
/// // A 4-op epoch lands in the ops-histogram bucket for log2(4) == 2.
/// assert_eq!(stats.ops_per_epoch_log2[2], 1);
/// assert_eq!(stats.summary().contains("epochs=1"), true);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CombinerStats {
    /// Epochs applied (each applied exactly one combined batch).
    pub epochs: u64,
    /// Operations acknowledged across all epochs.
    pub ops: u64,
    /// Histogram of epoch sizes: bucket `i` counts epochs with
    /// `ops_in_epoch.ilog2() == i` (bucket 15 collects everything of
    /// 2^15 ops and larger).
    pub ops_per_epoch_log2: [u64; 16],
    /// Snapshots cloned and published (on reader demand; see the module
    /// docs).
    pub publishes: u64,
}

impl CombinerStats {
    /// Mean operations per epoch so far.
    pub fn mean_ops_per_epoch(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.ops as f64 / self.epochs as f64
        }
    }

    /// One compact human-readable line (the bench drivers print this).
    pub fn summary(&self) -> String {
        format!(
            "epochs={} ops={} mean_ops/epoch={:.1} publishes={}",
            self.epochs,
            self.ops,
            self.mean_ops_per_epoch(),
            self.publishes
        )
    }
}

/// The registry-backed cells behind [`CombinerStats`]: each combiner
/// registers its own under `combiner.*` names, and [`Combiner::stats`]
/// is a point-in-time [`CombinerCounters::view`] over them.
///
/// The epoch-size distribution lives in a full `cpma-obs` histogram
/// (`combiner.ops_per_epoch`); the public `ops_per_epoch_log2` array is
/// reconstructed exactly from its per-octave counts, because obs buckets
/// never span an octave boundary. This replaces the hand-rolled ilog2
/// bucketing that used to live here.
struct CombinerCounters {
    epochs: Counter,
    ops: Counter,
    publishes: Counter,
    /// Deterministic epoch-size distribution (unit: ops).
    ops_per_epoch: Histogram,
    /// Timing-derived seal→wake latency (unit: ns); see the span in
    /// `lead`.
    epoch_ns: Histogram,
    /// Timing-derived snapshot clone latency (unit: ns); see `publish`.
    publish_ns: Histogram,
}

impl CombinerCounters {
    fn new() -> Self {
        let r = cpma_obs::global();
        Self {
            epochs: r.counter("combiner.epochs", Unit::Count),
            ops: r.counter("combiner.ops", Unit::Count),
            publishes: r.counter("combiner.publishes", Unit::Count),
            ops_per_epoch: r.histogram("combiner.ops_per_epoch", Unit::Count),
            epoch_ns: r.histogram("combiner.epoch.ns", Unit::Nanos),
            publish_ns: r.histogram("combiner.publish.ns", Unit::Nanos),
        }
    }

    fn record_epoch(&self, ops: usize) {
        self.epochs.inc();
        self.ops.add(ops as u64);
        self.ops_per_epoch.record(ops as u64);
    }

    fn view(&self) -> CombinerStats {
        CombinerStats {
            epochs: self.epochs.value(),
            ops: self.ops.value(),
            ops_per_epoch_log2: self.ops_per_epoch.snapshot().octave_counts::<16>(),
            publishes: self.publishes.value(),
        }
    }
}

/// Combiner configuration: how long its waiters sleep between polls.
#[derive(Clone, Debug)]
pub struct CombinerConfig {
    /// How long a waiter — a submitter or a stale snapshot reader —
    /// sleeps before re-checking whether the leader slot has freed up
    /// (bounds leader-handoff latency).
    pub retry_wait: Duration,
}

impl Default for CombinerConfig {
    fn default() -> Self {
        Self {
            retry_wait: Duration::from_micros(50),
        }
    }
}

/// The publication buffer for one epoch, shared between its submitters
/// and the leader that drains it.
struct EpochState<K> {
    ops: Vec<Op<K>>,
    /// Set by the leader when it drains the buffer; submitters that find
    /// their epoch sealed re-route to the freshly opened one.
    sealed: bool,
    /// Set (with `results`) after the batch is applied.
    done: bool,
    /// `results[i]` answers `ops[i]`; valid once `done`.
    results: Vec<bool>,
}

struct Epoch<K> {
    state: Mutex<EpochState<K>>,
    /// Waiters (submitters) block here until `done`.
    done_cv: Condvar,
}

impl<K> Epoch<K> {
    fn new() -> Self {
        Self {
            state: Mutex::new(EpochState {
                ops: Vec::new(),
                sealed: false,
                done: false,
                results: Vec::new(),
            }),
            done_cv: Condvar::new(),
        }
    }
}

/// Durability attachment of a [`Combiner`] opened via
/// [`Combiner::open_durable`]: the epoch write-ahead log plus the
/// checkpoint entry point.
///
/// The checkpoint is a plain function pointer captured where the
/// `S: Persist` bound is in scope (`open_durable`), so the epoch path
/// (`lead`) needs no persistence bound of its own.
struct DurableState<S> {
    writer: WalWriter,
    checkpoint: fn(&S, &Path) -> Result<(), PersistError>,
}

/// Leader-exclusive state: the authoritative set, the epoch counter, and
/// the combining statistics.
struct Core<S> {
    set: S,
    epochs_applied: u64,
    /// `Some` iff this combiner is durable: every epoch's net batch is
    /// WAL-appended before it is applied, and rotation checkpoints the
    /// set. The WAL sequence number of an epoch *is* its position in
    /// `epochs_applied` (empty epochs are logged too, so the two never
    /// drift).
    wal: Option<DurableState<S>>,
    stats: CombinerCounters,
}

/// Nothing panics while holding the `published` lock (clones happen
/// outside it), so a poisoned lock is a bug in this module.
const PUBLISHED_POISONED: &str = "combiner snapshot state poisoned";

/// What snapshot readers see, plus the bookkeeping that decides when a
/// fresh snapshot must be cut. One short lock guards it all, so a reader
/// compares its tag against the applied count atomically.
struct Published<S> {
    /// The last published snapshot; `None` until the first read.
    snap: Option<Arc<S>>,
    /// `Core::epochs_applied` when `snap` was cloned.
    tag: u64,
    /// Mirror of `Core::epochs_applied`, stored by the leader before it
    /// wakes the epoch's waiters.
    applied: u64,
    /// Set by a stale reader that found the leader slot taken; the next
    /// leader to look publishes. Cleared by every publish.
    demand: bool,
}

impl<S> Published<S> {
    fn new(applied: u64) -> Self {
        Self {
            snap: None,
            tag: 0,
            applied,
            demand: false,
        }
    }

    /// The published snapshot and its tag, if it covers `want` epochs.
    fn covering(&self, want: u64) -> Option<(Arc<S>, u64)> {
        let snap = self.snap.as_ref().filter(|_| self.tag >= want)?;
        Some((snap.clone(), self.tag))
    }
}

/// A flat-combining concurrent front-end over any batch-parallel set.
///
/// Share it by reference (or `Arc`) across threads; the module header
/// in `combiner.rs` documents the epoch protocol and reactive combining.
///
/// # Examples
///
/// ```
/// use cpma_store::{Combiner, Op};
/// use std::collections::BTreeSet;
///
/// let store: Combiner<BTreeSet<u64>> = Combiner::new(BTreeSet::new());
/// std::thread::scope(|scope| {
///     for t in 0..4u64 {
///         let store = &store;
///         scope.spawn(move || {
///             for i in 0..100 {
///                 store.insert(t * 1000 + i);
///             }
///         });
///     }
/// });
/// assert_eq!(store.snapshot().len(), 400);
/// let results = store.submit_many(&[Op::Remove(1), Op::Contains(1)]);
/// assert_eq!(results, vec![true, false]);
/// ```
pub struct Combiner<S, K: SetKey = u64> {
    core: Mutex<Core<S>>,
    current: Mutex<Arc<Epoch<K>>>,
    published: Mutex<Published<S>>,
    /// Stale readers wait here for the next publish.
    publish_cv: Condvar,
    cfg: CombinerConfig,
    /// Open-epoch occupancy (`combiner.queue_depth`): set by every
    /// enqueue, zeroed when the leader seals. Lives outside `Core` so the
    /// submit path never touches the leader lock for it.
    queue_depth: Gauge,
}

impl<S, K> Combiner<S, K>
where
    K: SetKey,
    S: BatchSet<K> + RangeSet<K> + Clone + Sync,
{
    /// Wrap `set` with the default configuration.
    pub fn new(set: S) -> Self {
        Self::with_config(set, CombinerConfig::default())
    }

    /// Wrap `set` with an explicit configuration.
    pub fn with_config(set: S, cfg: CombinerConfig) -> Self {
        Self {
            published: Mutex::new(Published::new(0)),
            publish_cv: Condvar::new(),
            core: Mutex::new(Core {
                set,
                epochs_applied: 0,
                wal: None,
                stats: CombinerCounters::new(),
            }),
            current: Mutex::new(Arc::new(Epoch::new())),
            cfg,
            queue_depth: cpma_obs::global().gauge("combiner.queue_depth"),
        }
    }

    /// Insert `key`; returns whether it was newly added, linearized
    /// against every other submitted operation.
    pub fn insert(&self, key: K) -> bool {
        self.submit(Op::Insert(key))
    }

    /// Remove `key`; returns whether it was present.
    pub fn remove(&self, key: K) -> bool {
        self.submit(Op::Remove(key))
    }

    /// Linearized membership test (goes through the op stream; for
    /// batch reads off the write path use [`Combiner::snapshot`]).
    pub fn contains(&self, key: K) -> bool {
        self.submit(Op::Contains(key))
    }

    /// A snapshot covering every epoch applied before the call, so every
    /// operation acknowledged before it is visible. A pointer clone when
    /// the published snapshot is current; otherwise this waits for at
    /// most one in-flight epoch plus one clone of the set, shared with
    /// any other stale reader (see the module docs).
    pub fn snapshot(&self) -> Arc<S> {
        self.tagged_snapshot().0
    }

    /// [`Combiner::snapshot`] plus the epoch count the snapshot was
    /// cloned at (at least the applied count when the call began).
    fn tagged_snapshot(&self) -> (Arc<S>, u64) {
        let mut p = self.published();
        let want = p.applied;
        loop {
            if let Some(hit) = p.covering(want) {
                return hit;
            }
            drop(p);
            match self.core.try_lock() {
                Ok(core) => {
                    // Another stale reader may have published while we
                    // took the slot; its snapshot covers `want` too.
                    if let Some(hit) = self.published().covering(want) {
                        return hit;
                    }
                    return self.publish(&core);
                }
                Err(TryLockError::WouldBlock) => {}
                Err(TryLockError::Poisoned(e)) => panic!("combiner poisoned: {e}"),
            }
            // A leader (or a publishing reader) holds the slot: flag
            // demand and wait for its publish. On timeout, loop to
            // contend for the slot again.
            p = self.published();
            if p.covering(want).is_none() {
                p.demand = true;
                p = self
                    .publish_cv
                    .wait_timeout(p, self.cfg.retry_wait)
                    .expect(PUBLISHED_POISONED)
                    .0;
            }
        }
    }

    /// Clone the authoritative set, publish the clone tagged with its
    /// epoch count, clear the demand flag and wake stale readers. The
    /// caller holds the leader slot.
    fn publish(&self, core: &Core<S>) -> (Arc<S>, u64) {
        let snap = {
            let _span = cpma_obs::span_with(&core.stats.publish_ns, "combiner.publish");
            Arc::new(core.set.clone())
        };
        core.stats.publishes.inc();
        let mut p = self.published();
        let old = p.snap.replace(snap.clone());
        p.tag = core.epochs_applied;
        p.demand = false;
        drop(p);
        self.publish_cv.notify_all();
        // The superseded snapshot may be the last reference to a full
        // copy of the set; free it outside the lock.
        drop(old);
        (snap, core.epochs_applied)
    }

    /// Publish iff a stale reader has flagged demand since the last
    /// publish.
    fn publish_if_demanded(&self, core: &Core<S>) {
        if self.published().demand {
            self.publish(core);
        }
    }

    fn published(&self) -> MutexGuard<'_, Published<S>> {
        self.published.lock().expect(PUBLISHED_POISONED)
    }

    /// Epochs applied so far (each applied exactly one combined batch).
    /// Never waits for an in-flight epoch.
    pub fn epochs_applied(&self) -> u64 {
        self.published().applied
    }

    /// A copy of the combining statistics so far. Taken under the leader
    /// lock, so it may briefly wait for an in-flight epoch to finish.
    pub fn stats(&self) -> CombinerStats {
        self.core.lock().unwrap().stats.view()
    }

    /// Zero the combining statistics (e.g. between measured phases).
    pub fn reset_stats(&self) {
        self.core.lock().unwrap().stats = CombinerCounters::new();
    }

    /// Unwrap the authoritative set (consumes the combiner, so every
    /// acknowledged operation is included).
    pub fn into_inner(self) -> S {
        self.core.into_inner().unwrap().set
    }

    /// Submit one operation and block until its epoch is applied;
    /// returns the operation's individual result.
    pub fn submit(&self, op: Op<K>) -> bool {
        let (epoch, idx) = self.enqueue(std::slice::from_ref(&op));
        self.await_epoch(&epoch, |st| st.results[idx])
    }

    /// Submit a burst of operations as one publication — one enqueue,
    /// one wait — and block until their epoch is applied. Returns the
    /// per-operation results in submission order. This is the ingest
    /// path: a burst keeps the combined batch large even when writers
    /// are synchronous, which is where batch-parallel updates pull ahead
    /// of per-operation locking.
    pub fn submit_many(&self, ops: &[Op<K>]) -> Vec<bool> {
        if ops.is_empty() {
            return Vec::new();
        }
        let (epoch, start) = self.enqueue(ops);
        let end = start + ops.len();
        self.await_epoch(&epoch, |st| st.results[start..end].to_vec())
    }

    /// Burst-insert convenience: returns how many keys were newly added.
    pub fn insert_many(&self, keys: &[K]) -> usize {
        let ops: Vec<Op<K>> = keys.iter().map(|&k| Op::Insert(k)).collect();
        self.submit_many(&ops).into_iter().filter(|&b| b).count()
    }

    /// Append `ops` to the open epoch (re-routing if a leader seals it
    /// between lookup and push — the new epoch is installed while
    /// `current` is held, so the retry loop is bounded). Returns the
    /// epoch and the index of the first appended op.
    fn enqueue(&self, ops: &[Op<K>]) -> (Arc<Epoch<K>>, usize) {
        loop {
            let cur = self.current.lock().unwrap().clone();
            let mut st = cur.state.lock().unwrap();
            if !st.sealed {
                let idx = st.ops.len();
                st.ops.extend_from_slice(ops);
                self.queue_depth.set(st.ops.len() as i64);
                drop(st);
                return (cur, idx);
            }
            drop(st);
            std::thread::yield_now();
        }
    }

    /// Wait until `epoch` completes (leading it ourselves if the leader
    /// slot frees first), then return `extract` of its final state.
    fn await_epoch<R>(&self, epoch: &Arc<Epoch<K>>, extract: impl Fn(&EpochState<K>) -> R) -> R {
        loop {
            // Try to take the leader slot. `try_lock` never blocks, so a
            // running leader just sends us to the wait below.
            match self.core.try_lock() {
                Ok(core) => {
                    // Our epoch may have been completed between enqueue
                    // and lock acquisition.
                    {
                        let st = epoch.state.lock().unwrap();
                        if st.done {
                            return extract(&st);
                        }
                    }
                    // Not done and the leader slot is ours: our epoch is
                    // unsealed (sealed epochs complete before the leader
                    // slot frees), i.e. it is the current epoch — lead it.
                    self.lead(core);
                    let st = epoch.state.lock().unwrap();
                    debug_assert!(st.done, "leader must complete its own epoch");
                    return extract(&st);
                }
                Err(TryLockError::WouldBlock) => {}
                Err(TryLockError::Poisoned(e)) => panic!("combiner poisoned: {e}"),
            }
            let st = epoch.state.lock().unwrap();
            if st.done {
                return extract(&st);
            }
            // Timed wait: on `done` notification we return; on timeout we
            // loop to contend for the (possibly freed) leader slot.
            let (st, _) = epoch.done_cv.wait_timeout(st, self.cfg.retry_wait).unwrap();
            if st.done {
                return extract(&st);
            }
        }
    }

    /// Drive one epoch: seal, replay, apply, publish on demand,
    /// wake, then release the leader slot and hand leadership to a
    /// waiter of the next epoch if one is already pending.
    fn lead(&self, mut guard: std::sync::MutexGuard<'_, Core<S>>) {
        let core = &mut *guard;
        // A reader that flagged demand just after the previous leader
        // looked is served before this epoch, not after it.
        self.publish_if_demanded(core);
        let epoch = self.current.lock().unwrap().clone();

        // Reactive combining: seal whatever has piled up in the open
        // epoch; later publications go to the fresh epoch opened below.
        let ops = {
            let mut st = epoch.state.lock().unwrap();
            st.sealed = true;
            std::mem::take(&mut st.ops)
        };
        // Open a fresh epoch for subsequent submitters.
        *self.current.lock().unwrap() = Arc::new(Epoch::new());
        self.queue_depth.set(0);

        // Timing span over the epoch's seal-to-wake work (replay, WAL
        // append, batch apply, checkpoint, publication on demand).
        let mut epoch_span = cpma_obs::span_with(&core.stats.epoch_ns, "combiner.epoch");
        epoch_span.set_items(ops.len() as u64);

        // Prefetch the base presence of every distinct key in one batched
        // lookup — the replay's dominant cost on large backends. `uniq` is
        // already sorted and deduplicated, exactly the shape the backend's
        // `contains_batch` fast path wants (a sharded backend further fans
        // the probe run out shard-parallel).
        let mut uniq: Vec<K> = ops.iter().map(|op| op.key()).collect();
        let uniq = normalize_batch(&mut uniq);
        let presence: Vec<bool> = core.set.contains_batch(uniq);
        // Replay in submission order against the presence overlay: each
        // operation observes the set as of all operations before it.
        let mut overlay: HashMap<u64, (bool, bool)> = uniq
            .iter()
            .zip(presence)
            .map(|(&k, p)| (k.to_u64(), (p, p))) // key -> (before, now)
            .collect();
        let mut results = Vec::with_capacity(ops.len());
        for op in &ops {
            let entry = overlay
                .get_mut(&op.key().to_u64())
                .expect("every op key was prefetched");
            let result = match op {
                Op::Insert(_) => {
                    let was = entry.1;
                    entry.1 = true;
                    !was
                }
                Op::Remove(_) => {
                    let was = entry.1;
                    entry.1 = false;
                    was
                }
                Op::Contains(_) => entry.1,
            };
            results.push(result);
        }

        // Net effect of the epoch as ONE mixed batch: each changed key
        // becomes its net op, and the backend applies inserts and removes
        // in a single batch-parallel pass. Keys are unique by
        // construction (one overlay entry each); normalize_ops supplies
        // the key ordering the normal form requires.
        let mut net: Vec<BatchOp<K>> = overlay
            .iter()
            .filter_map(|(&key, &(before, now))| match (before, now) {
                (false, true) => Some(BatchOp::Insert(K::from_u64(key))),
                (true, false) => Some(BatchOp::Remove(K::from_u64(key))),
                _ => None,
            })
            .collect();
        let net = normalize_ops(&mut net);
        // Durability: the epoch's net batch reaches the WAL *before* the
        // set applies it — a crash after the append replays the epoch, a
        // crash before it loses only unacknowledged operations. Empty
        // nets are logged too (a pure-`Contains` epoch still advances
        // the sequence), so WAL seq stays equal to `epochs_applied`.
        // WAL I/O failure is fail-stop: acknowledging an operation whose
        // log write failed would break the durability contract.
        if let Some(durable) = core.wal.as_mut() {
            let seq = core.epochs_applied + 1;
            let widened: Vec<BatchOp<u64>> = net
                .iter()
                .map(|op| match *op {
                    BatchOp::Insert(k) => BatchOp::Insert(k.to_u64()),
                    BatchOp::Remove(k) => BatchOp::Remove(k.to_u64()),
                })
                .collect();
            if let Err(e) = durable.writer.append(seq, &widened) {
                panic!("WAL append for epoch {seq} failed: {e}");
            }
        }
        if !net.is_empty() {
            core.set.apply_batch_sorted(net);
        }
        core.epochs_applied += 1;
        core.stats.record_epoch(ops.len());
        // Size-triggered checkpoint + WAL rotation, after the apply so
        // the checkpoint image contains everything up to `epochs_applied`.
        if let Some(durable) = core.wal.as_mut() {
            if durable.writer.should_rotate() {
                let seq = core.epochs_applied;
                let path = durable.writer.checkpoint_path(seq);
                if let Err(e) = (durable.checkpoint)(&core.set, &path) {
                    panic!("checkpoint at epoch {seq} failed: {e}");
                }
                if let Err(e) = durable.writer.rotate(seq) {
                    panic!("WAL rotation at epoch {seq} failed: {e}");
                }
            }
        }

        // Mirror the applied count before waking: a snapshot taken after
        // an acknowledgement must cover its epoch. Clone only for a
        // reader already waiting.
        self.published().applied = core.epochs_applied;
        self.publish_if_demanded(core);
        drop(epoch_span);

        let mut st = epoch.state.lock().unwrap();
        st.results = results;
        st.done = true;
        drop(st);
        epoch.done_cv.notify_all();

        // Leadership handoff: if the next epoch already has submitters,
        // wake one *after* releasing the leader slot so it can take over
        // immediately instead of sleeping out its retry timeout.
        let next = self.current.lock().unwrap().clone();
        let pending = !next.state.lock().unwrap().ops.is_empty();
        drop(guard);
        if pending {
            next.done_cv.notify_one();
        }
    }
}

impl<S, K> Combiner<S, K>
where
    K: SetKey,
    S: BatchSet<K> + RangeSet<K> + Clone + Sync + Persist,
{
    /// Open a **durable** combiner backed by the WAL directory in `wal`:
    /// recover the newest valid checkpoint, replay the WAL tail
    /// (truncating a torn final record), and resume logging at the next
    /// epoch. A missing or empty directory starts from `S::new_set()`.
    ///
    /// Every subsequent epoch appends its net batch to the WAL *before*
    /// applying it, under `wal.fsync`; once the live segment exceeds
    /// `wal.rotate_bytes` the leader checkpoints the set and rotates.
    /// After a crash, `open_durable` on the same directory restores
    /// exactly the state of the last acknowledged epoch.
    ///
    /// Returns the combiner and a [`RecoveryReport`] describing what was
    /// recovered (`report.last_seq` epochs; `epochs_applied` resumes
    /// from there).
    pub fn open_durable(
        cfg: CombinerConfig,
        wal: WalConfig,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let (set, report) = recover::<K, S>(&wal.dir)?;
        let writer = WalWriter::open(wal, report.last_seq + 1)?;
        let combiner = Self {
            published: Mutex::new(Published::new(report.last_seq)),
            publish_cv: Condvar::new(),
            core: Mutex::new(Core {
                set,
                epochs_applied: report.last_seq,
                wal: Some(DurableState {
                    writer,
                    checkpoint: |set, path| set.save(path),
                }),
                stats: CombinerCounters::new(),
            }),
            current: Mutex::new(Arc::new(Epoch::new())),
            cfg,
            queue_depth: cpma_obs::global().gauge("combiner.queue_depth"),
        };
        Ok((combiner, report))
    }

    /// Force a checkpoint of the authoritative set and rotate the WAL
    /// now (the size-triggered rotation does the same when the live
    /// segment outgrows `rotate_bytes`). Waits for an in-flight epoch.
    ///
    /// Returns the epoch sequence the checkpoint covers. Errors if this
    /// combiner was not opened with [`Combiner::open_durable`].
    pub fn checkpoint(&self) -> Result<u64, PersistError> {
        let mut guard = self.core.lock().unwrap();
        let core = &mut *guard;
        let Some(durable) = core.wal.as_mut() else {
            return Err(PersistError::Corrupt(
                "checkpoint() on a combiner without a WAL (use open_durable)".into(),
            ));
        };
        let seq = core.epochs_applied;
        let path = durable.writer.checkpoint_path(seq);
        (durable.checkpoint)(&core.set, &path)?;
        durable.writer.rotate(seq)?;
        Ok(seq)
    }

    /// Flush WAL appends to disk regardless of the [`FsyncPolicy`]
    /// (a planned-shutdown aid for `EveryN`/`Never` deployments).
    /// No-op on a non-durable combiner.
    ///
    /// [`FsyncPolicy`]: cpma_persist::FsyncPolicy
    pub fn wal_sync(&self) -> Result<(), PersistError> {
        if let Some(durable) = self.core.lock().unwrap().wal.as_mut() {
            durable.writer.sync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Instant;

    #[test]
    fn single_thread_ops_match_oracle() {
        let c: Combiner<BTreeSet<u64>> = Combiner::new(BTreeSet::new());
        let mut model = BTreeSet::new();
        let mut rng = cpma_api::testkit::Rng::new(0xC0B1);
        for _ in 0..500 {
            let k = rng.bits(6);
            match rng.below(3) {
                0 => assert_eq!(c.insert(k), model.insert(k), "insert({k})"),
                1 => assert_eq!(c.remove(k), model.remove(&k), "remove({k})"),
                _ => assert_eq!(c.contains(k), model.contains(&k), "contains({k})"),
            }
        }
        let snap = c.snapshot();
        assert_eq!(
            snap.iter().copied().collect::<Vec<_>>(),
            model.iter().copied().collect::<Vec<_>>()
        );
        assert_eq!(c.into_inner(), model);
    }

    #[test]
    fn submit_many_matches_per_op_results() {
        let c: Combiner<BTreeSet<u64>> = Combiner::new(BTreeSet::new());
        let burst = [
            Op::Insert(3),
            Op::Insert(3),
            Op::Contains(3),
            Op::Remove(3),
            Op::Contains(3),
            Op::Insert(9),
        ];
        assert_eq!(
            c.submit_many(&burst),
            vec![true, false, true, true, false, true]
        );
        // The whole burst shares one epoch (single-thread: it leads it).
        assert_eq!(c.epochs_applied(), 1);
        assert_eq!(c.insert_many(&[9, 10, 11]), 2);
        assert_eq!(
            c.snapshot().iter().copied().collect::<Vec<_>>(),
            vec![9, 10, 11]
        );
        assert!(c.submit_many(&[]).is_empty());
    }

    #[test]
    fn acked_ops_are_snapshot_visible() {
        let c: Combiner<BTreeSet<u64>> = Combiner::new(BTreeSet::new());
        assert!(c.insert(42));
        assert!(c.snapshot().contains(&42));
        assert!(c.remove(42));
        assert!(!c.snapshot().contains(&42));
    }

    #[test]
    fn ops_resolve_in_submission_order() {
        let c: Combiner<BTreeSet<u64>> = Combiner::new(BTreeSet::new());
        assert!(c.insert(7));
        assert!(!c.insert(7), "second insert sees the first");
        assert!(c.remove(7));
        assert!(!c.remove(7), "second remove sees the first");
        assert!(!c.contains(7));
        assert_eq!(c.epochs_applied(), 5);
        let stats = c.stats();
        assert_eq!(stats.ops_per_epoch_log2[0], 5);
        c.reset_stats();
        assert_eq!(c.stats(), CombinerStats::default());
    }

    #[test]
    fn write_only_epochs_never_publish() {
        let c: Combiner<BTreeSet<u64>> = Combiner::new(BTreeSet::new());
        for k in 0..50u64 {
            assert!(c.insert(k));
        }
        assert_eq!(c.insert_many(&[100, 101, 102]), 3);
        let stats = c.stats();
        assert_eq!((stats.epochs, stats.publishes), (51, 0));
        // The first read clones once; a read with no epoch since is a
        // pointer clone of the same snapshot.
        let first = c.snapshot();
        assert_eq!(first.len(), 53);
        assert!(Arc::ptr_eq(&first, &c.snapshot()));
        assert_eq!(c.stats().publishes, 1);
        // Writes after a read again publish nothing until the next read.
        c.remove(0);
        c.remove(1);
        assert_eq!(c.stats().publishes, 1);
        assert_eq!(c.snapshot().len(), 51);
        assert_eq!(c.stats().publishes, 2);
    }

    #[test]
    fn concurrent_stale_readers_share_one_publish() {
        const READERS: usize = 8;
        let c: Combiner<BTreeSet<u64>> = Combiner::new(BTreeSet::new());
        assert_eq!(c.insert_many(&[1, 2, 3]), 3);
        let start = std::sync::Barrier::new(READERS);
        let snaps: Vec<Arc<BTreeSet<u64>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..READERS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        c.snapshot()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for snap in &snaps {
            assert!(
                Arc::ptr_eq(snap, &snaps[0]),
                "every reader shares one clone"
            );
            assert_eq!(snap.len(), 3);
        }
        assert_eq!(c.stats().publishes, 1);
    }

    #[test]
    fn stale_reader_behind_a_leader_is_served_by_its_publish() {
        // A retry timeout beyond the test's patience: the reader must
        // return through the leader's publish, not by re-polling.
        let cfg = CombinerConfig {
            retry_wait: Duration::from_secs(20),
        };
        let c: Combiner<BTreeSet<u64>> = Combiner::with_config(BTreeSet::new(), cfg);
        assert!(c.insert(5));
        let started = Instant::now();
        let leader_slot = c.core.lock().unwrap();
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| c.tagged_snapshot());
            while !c.published().demand {
                assert!(
                    started.elapsed() < Duration::from_secs(10),
                    "no demand flagged"
                );
                std::thread::yield_now();
            }
            // Drive an (empty) epoch from the held slot.
            c.lead(leader_slot);
            let (snap, tag) = reader.join().unwrap();
            assert!(snap.contains(&5));
            assert!(tag >= 1);
        });
        assert!(started.elapsed() < Duration::from_secs(10));
        assert_eq!(c.stats().publishes, 1);
        assert_eq!(c.epochs_applied(), 2);
    }

    #[test]
    fn racing_reader_snapshot_covers_every_applied_epoch() {
        const WRITERS: u64 = 2;
        const OPS: u64 = 400;
        let c: Combiner<BTreeSet<u64>> = Combiner::new(BTreeSet::new());
        // acked[w] = keys writer `w` has had acknowledged, in order.
        let acked: Vec<AtomicU64> = (0..WRITERS).map(|_| AtomicU64::new(0)).collect();
        let done = AtomicBool::new(false);
        let key = |w: u64, i: u64| (w << 32) | i;
        let reads = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (c, acked) = (&c, &acked);
                    scope.spawn(move || {
                        for i in 0..OPS {
                            assert!(c.insert(key(w, i)));
                            acked[w as usize].store(i + 1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            let reader = scope.spawn(|| {
                let mut reads = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let seen: Vec<u64> = acked.iter().map(|a| a.load(Ordering::SeqCst)).collect();
                    let applied = c.epochs_applied();
                    let (snap, tag) = c.tagged_snapshot();
                    assert!(tag >= applied, "snapshot tag {tag} < applied {applied}");
                    for (w, &n) in seen.iter().enumerate() {
                        if n > 0 {
                            let last = key(w as u64, n - 1);
                            assert!(snap.contains(&last), "acked key {last:#x} not visible");
                        }
                    }
                    assert!(snap.len() as u64 >= seen.iter().sum::<u64>());
                    reads += 1;
                }
                reads
            });
            // Stop the reader once the writers finish (or fail).
            let written: Vec<_> = writers.into_iter().map(|h| h.join()).collect();
            done.store(true, Ordering::SeqCst);
            let reads = reader.join().unwrap();
            for w in written {
                w.unwrap();
            }
            reads
        });
        assert!(reads > 0);
        assert_eq!(c.snapshot().len() as u64, WRITERS * OPS);
        // Each stale read causes at most one publish; none come from
        // the writers themselves.
        assert!(c.stats().publishes <= reads + 1);
    }
}
