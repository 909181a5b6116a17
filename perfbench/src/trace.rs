//! Per-layer attribution for the traced run.
//!
//! Server side: [`Collector`] drains the program's existing `cpma-obs`
//! span journal while the measured phase runs, and [`analyze`] splits
//! the time inside each `service.combine` span into the layers below it
//! by interval arithmetic (a layer's self time is its span minus the part
//! its child spans cover).
//!
//! Client side: [`replays`] times direct calls into each layer's public
//! functions on an in-process copy of the same store and inputs.

use crate::gen::{Inputs, Req, CONNS};
use crate::server::{disk_bytes, Store};
use cpma_api::{normalize_ops, BatchOp, BatchSet, OrderedSet, RangeSet};
use cpma_obs::{journal, Event};
use cpma_persist::wal::checkpoint_file_name;
use cpma_persist::{WalConfig, WalWriter};
use cpma_store::{Combiner, CombinerConfig, Op, Persist};
use cpma_workloads::SplitMix64;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Copies journal events out of the bounded ring until stopped, counting
/// any the ring dropped before they were copied.
pub struct Collector {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<(Vec<Event>, u64)>,
}

impl Collector {
    pub fn start() -> Collector {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let mut last = journal().total_events();
        let handle = std::thread::spawn(move || {
            let mut out = Vec::new();
            let mut lost = 0;
            loop {
                let done = flag.load(Ordering::SeqCst);
                for e in journal().events() {
                    if e.seq > last {
                        lost += e.seq - last - 1;
                        last = e.seq;
                        out.push(e);
                    }
                }
                if done {
                    return (out, lost);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        Collector { stop, handle }
    }

    pub fn finish(self) -> (Vec<Event>, u64) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("journal collector panicked")
    }
}

/// Sorted, merged `[start, end)` intervals (ns) of every event named in
/// `names`.
fn union(events: &[Event], names: &[&str]) -> Vec<(u64, u64)> {
    let mut iv: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| names.contains(&e.name))
        .map(|e| (e.at_ns.saturating_sub(e.dur_ns), e.at_ns))
        .collect();
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Length of `[s, e)` covered by the merged intervals `u`.
fn covered(u: &[(u64, u64)], s: u64, e: u64) -> u64 {
    let first = u.partition_point(|iv| iv.1 <= s);
    u[first..]
        .iter()
        .take_while(|iv| iv.0 < e)
        .map(|iv| iv.1.min(e) - iv.0.max(s))
        .sum()
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

const PMA: [&str; 4] = ["pma.route", "pma.merge", "pma.count", "pma.redistribute"];
const WAL: [&str; 1] = ["persist.wal.append"];
const REBALANCE: [&str; 1] = ["store.rebalance"];

/// Server-side span attribution. Totals are milliseconds summed over the
/// measured phase; the client process divides them by its step count.
///
/// Inside each `service.combine` span (one pipeline drain's serving),
/// time is split by the deepest span active: PMA phases, WAL append
/// (with its fsync), shard rebalance, the rest of `combiner.epoch`, and
/// the remainder, which is combining-window wait plus snapshot reads.
pub fn analyze(events: &[Event]) -> Vec<(String, f64)> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let total = |name: &str| -> u64 {
        events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur_ns)
            .sum()
    };
    let epochs: Vec<&Event> = events
        .iter()
        .filter(|e| e.name == "combiner.epoch")
        .collect();
    let mut epoch_ns: Vec<u64> = epochs.iter().map(|e| e.dur_ns).collect();
    epoch_ns.sort_unstable();
    let mut epoch_ops: Vec<u64> = epochs.iter().map(|e| e.items).collect();
    epoch_ops.sort_unstable();

    let u_epoch = union(events, &["combiner.epoch"]);
    let u_pma = union(events, &PMA);
    let u_wal = union(events, &WAL);
    let u_reb = union(events, &REBALANCE);
    let children: Vec<&str> = PMA.iter().chain(&WAL).chain(&REBALANCE).copied().collect();
    let u_child = union(events, &children);

    let (mut combine, mut epoch, mut pma, mut wal, mut reb, mut child) = (0, 0, 0, 0, 0, 0);
    for e in events.iter().filter(|e| e.name == "service.combine") {
        let (s, t) = (e.at_ns.saturating_sub(e.dur_ns), e.at_ns);
        combine += e.dur_ns;
        epoch += covered(&u_epoch, s, t);
        pma += covered(&u_pma, s, t);
        wal += covered(&u_wal, s, t);
        reb += covered(&u_reb, s, t);
        child += covered(&u_child, s, t);
    }
    vec![
        ("decode_ms".into(), ms(total("service.decode"))),
        ("combine_ms".into(), ms(combine)),
        ("reply_ms".into(), ms(total("service.reply"))),
        ("combine_outside_epoch_ms".into(), ms(combine - epoch)),
        ("combiner_self_ms".into(), ms(epoch.saturating_sub(child))),
        ("pma_self_ms".into(), ms(pma)),
        ("persist_self_ms".into(), ms(wal)),
        ("sharded_self_ms".into(), ms(reb)),
        ("epoch_p50_ms".into(), ms(quantile(&epoch_ns, 0.5))),
        ("epoch_p99_ms".into(), ms(quantile(&epoch_ns, 0.99))),
        ("ops_per_epoch_p50".into(), quantile(&epoch_ops, 0.5) as f64),
    ]
}

fn median_ms(mut ns: Vec<u64>) -> f64 {
    ns.sort_unstable();
    quantile(&ns, 0.5) as f64 / 1e6
}

fn time<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, t.elapsed().as_nanos() as u64)
}

/// The write bursts among `steps`, in order.
fn bursts<'a>(steps: impl Iterator<Item = &'a Vec<Req>>) -> Vec<&'a [BatchOp<u64>]> {
    steps
        .flat_map(|s| s.iter())
        .filter_map(|r| match r {
            Req::Burst { ops, .. } => Some(ops.as_slice()),
            _ => None,
        })
        .collect()
}

/// Result of [`replays`]: named per-layer numbers, plus the in-process
/// replay time of connection 0's first measured steps.
pub struct Replays {
    pub metrics: Vec<(String, f64)>,
    pub step_ns: Vec<u64>,
    /// Mean time per replayed step in snapshot reads, which have no span
    /// of their own in the program.
    pub read_ms_per_step: f64,
}

/// Time each layer's public functions directly, in this process, on the
/// run's own base and requests: `ShardedSet::clone` (the per-epoch
/// publish), `normalize_ops`, `apply_batch_sorted`, the snapshot read
/// kernels, a `Combiner` replay of connection 0's first measured `k`
/// steps, and on the durable workload `WalWriter::append`/`sync` and a
/// checkpoint `save`.
pub fn replays(inputs: &Inputs, k: usize, dir: &Path, seed: u64) -> Replays {
    let mut m: Vec<(String, f64)> = Vec::new();
    let warm = inputs.sizing.warmup;
    let mut set = Store::build_sorted(&inputs.base);

    let clones: Vec<u64> = (0..5).map(|_| time(|| set.clone()).1).collect();
    m.push(("sharded.publish_clone_ms".into(), median_ms(clones)));

    read_kernels(&set, &inputs.base, seed, &mut m);

    // Connection 1's bursts: normalize, then apply straight to the set.
    let other = bursts(inputs.steps[CONNS - 1].iter().skip(warm).take(k));
    let mut norm_ns = 0u64;
    let mut norm_ops = 0u64;
    let mut apply = Vec::new();
    let mut nets = Vec::new();
    for ops in &other {
        let mut v = ops.to_vec();
        let (_, ns) = time(|| normalize_ops(&mut v).len());
        norm_ns += ns;
        norm_ops += ops.len() as u64;
        let net = normalize_ops(&mut v).to_vec();
        apply.push(time(|| set.apply_batch_sorted(&net)).1);
        nets.push(net);
    }
    let per_op = if norm_ops > 0 {
        norm_ns as f64 / norm_ops as f64
    } else {
        0.0
    };
    m.push(("api.normalize_ns_per_op".into(), per_op));
    m.push(("sharded.apply_ms".into(), median_ms(apply)));

    // Connection 0's steps through an in-process combiner, configured as
    // the service configures its own.
    let durable = inputs.workload.durable();
    let combiner = if durable {
        let cdir = dir.join("replay-combiner");
        let _ = std::fs::remove_dir_all(&cdir);
        std::fs::create_dir_all(&cdir).expect("replay directory");
        set.save(&cdir.join(checkpoint_file_name(0)))
            .expect("save replay base");
        Combiner::<Store>::open_durable(CombinerConfig::default(), WalConfig::new(&cdir))
            .expect("open replay combiner")
            .0
    } else {
        Combiner::with_config(set, CombinerConfig::default())
    };
    let mut step_ns = Vec::with_capacity(k);
    let mut read_ns = 0u64;
    for step in inputs.steps[0].iter().skip(warm).take(k) {
        let t = Instant::now();
        for req in step {
            let r = Instant::now();
            match req {
                Req::Burst { ops, .. } => {
                    let ops: Vec<Op<u64>> = ops
                        .iter()
                        .map(|op| match *op {
                            BatchOp::Insert(k) => Op::Insert(k),
                            BatchOp::Remove(k) => Op::Remove(k),
                        })
                        .collect();
                    std::hint::black_box(combiner.submit_many(&ops));
                }
                Req::RangeSum { lo, hi, .. } => {
                    std::hint::black_box(combiner.snapshot().range_sum(*lo..=*hi));
                }
                Req::Scan { lo, max, .. } => {
                    let snap = combiner.snapshot();
                    let mut n = 0;
                    snap.scan_from(*lo, &mut |_| {
                        n += 1;
                        n < *max
                    });
                    std::hint::black_box(n);
                }
                Req::Contains { keys, .. } => {
                    std::hint::black_box(combiner.snapshot().contains_batch(keys));
                }
            }
            if !req.is_write() {
                read_ns += r.elapsed().as_nanos() as u64;
            }
        }
        step_ns.push(t.elapsed().as_nanos() as u64);
    }
    let read_ms_per_step = read_ns as f64 / 1e6 / step_ns.len().max(1) as f64;
    let set = combiner.into_inner();

    let (mut append, mut sync, mut ckpt_ms, mut ckpt_bytes) = (vec![], vec![], 0.0, 0.0);
    if durable {
        let wdir = dir.join("replay-wal");
        let _ = std::fs::remove_dir_all(&wdir);
        let mut w = WalWriter::open(WalConfig::new(&wdir), 1).expect("open replay WAL");
        for (i, net) in nets.iter().enumerate() {
            append.push(time(|| w.append(i as u64 + 1, net).expect("WAL append")).1);
            sync.push(time(|| w.sync().expect("WAL sync")).1);
        }
        let path = dir.join("replay-checkpoint");
        let (_, ns) = time(|| set.save(&path).expect("checkpoint save"));
        ckpt_ms = ns as f64 / 1e6;
        ckpt_bytes = disk_bytes(&path) as f64;
    }
    m.push(("persist.replay_append_ms".into(), median_ms(append)));
    m.push(("persist.replay_sync_ms".into(), median_ms(sync)));
    m.push(("persist.checkpoint_ms".into(), ckpt_ms));
    m.push(("persist.checkpoint_bytes".into(), ckpt_bytes));
    Replays {
        metrics: m,
        step_ns,
        read_ms_per_step,
    }
}

/// The snapshot read kernels through `RangeSet`/`OrderedSet`, on a fixed
/// seeded probe set over the base: range sums of 2^10..2^16 keys, scans
/// of 1024 keys, and 1024-probe batches with half hits.
fn read_kernels(set: &Store, base: &[u64], seed: u64, m: &mut Vec<(String, f64)>) {
    let mut rng = SplitMix64::new(seed ^ 0x4E4D);
    let n = base.len() as u64;
    let (mut sum_ns, mut sum_keys) = (0u64, 0u64);
    let (mut scan_ns, mut scan_keys) = (0u64, 0u64);
    let (mut probe_ns, mut probes) = (0u64, 0u64);
    for _ in 0..200 {
        let len = (1u64 << (10 + rng.next_below(7))).min(n);
        let i = rng.next_below(n - len + 1) as usize;
        let (lo, hi) = (base[i], base[i + len as usize - 1]);
        sum_ns += time(|| set.range_sum(lo..=hi)).1;
        sum_keys += len;

        let start = base[rng.next_below(n) as usize];
        let (got, ns) = time(|| {
            let mut got = 0u64;
            set.scan_from(start, &mut |_| {
                got += 1;
                got < 1024
            });
            got
        });
        scan_ns += ns;
        scan_keys += got;

        let keys: Vec<u64> = (0..1024)
            .map(|j| {
                if j % 2 == 0 {
                    base[rng.next_below(n) as usize]
                } else {
                    rng.next_bits(40)
                }
            })
            .collect();
        probe_ns += time(|| set.contains_batch(&keys)).1;
        probes += keys.len() as u64;
    }
    let per = |ns: u64, k: u64| ns as f64 / k.max(1) as f64;
    m.push(("pma.range_sum_ns_per_key".into(), per(sum_ns, sum_keys)));
    m.push(("pma.scan_ns_per_key".into(), per(scan_ns, scan_keys)));
    m.push((
        "pma.contains_batch_ns_per_probe".into(),
        per(probe_ns, probes),
    ));
}
