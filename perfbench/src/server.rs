//! The server process: the real `cpma-service` front door, run in a
//! process of its own so its registry, memory peak and threads belong to
//! one workload only.
//!
//! Control protocol over stdin/stdout with the client process:
//! 1. stdin: `u64` key count, then the sorted base keys (little endian);
//! 2. the server sets up `setups` times (build + serve, and save +
//!    recover on the durable workload), keeps the last one, and prints
//!    `ready <addr> <setup seconds>...`;
//! 3. `mark` line: registry snapshot and memory-peak reset, then
//!    `marked`; in traced mode the span journal is collected from here;
//! 4. `stop` line: prints `c <name> <delta>` for every counter,
//!    `h <name> <count> <sum>` for every histogram (deltas since `mark`),
//!    `x <name> <value>` extras, then `end`;
//! 5. stdin EOF: shuts the service down and exits.

use crate::gen::Workload;
use crate::trace::{self, Collector};
use cpma_api::OrderedSet;
use cpma_obs::{MetricValue, Snapshot};
use cpma_persist::wal::{checkpoint_file_name, scan_dir};
use cpma_service::{CombinerEngine, Engine, Service, ServiceConfig};
use cpma_store::{Combiner, Op, Persist, WalConfig};
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub type Store = cpma_store::ShardedSet<cpma_pma::Cpma, 8>;

pub struct ServeArgs {
    pub workload: Workload,
    pub setups: usize,
    pub trace: bool,
    /// Flip the reply of this engine call (1-based; 0 = never).
    pub flip: u64,
    pub dir: PathBuf,
}

pub fn serve(args: ServeArgs) -> Result<(), String> {
    cpma_obs::set_timing_enabled(args.trace);
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let base = read_keys(&mut input).map_err(|e| format!("reading base keys: {e}"))?;

    let mut setup_s = Vec::with_capacity(args.setups);
    let mut running = None;
    for i in 0..args.setups.max(1) {
        drop(running.take());
        let dir = args.dir.join(format!("wal-{i}"));
        let t = Instant::now();
        running = Some(start(&args, &base, &dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (service, combiner, wal_dir) = running.expect("at least one setup");
    drop(base);

    let mut out = std::io::stdout().lock();
    let times: Vec<String> = setup_s.iter().map(|s| s.to_string()).collect();
    writeln!(out, "ready {} {}", service.local_addr(), times.join(" ")).map_err(io)?;
    out.flush().map_err(io)?;

    let mut before = Snapshot::default();
    let mut collector: Option<Collector> = None;
    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line).map_err(io)? == 0 {
            break;
        }
        match line.trim() {
            "mark" => {
                // Peak RSS from here on (Linux: "5" resets VmHWM).
                let _ = std::fs::write("/proc/self/clear_refs", "5");
                before = cpma_obs::global().snapshot();
                if args.trace {
                    collector = Some(Collector::start());
                }
                writeln!(out, "marked").map_err(io)?;
            }
            "stop" => {
                let events = collector.take().map(Collector::finish);
                let after = cpma_obs::global().snapshot();
                report_deltas(&mut out, &before, &after).map_err(io)?;
                let snap = combiner.snapshot();
                let len = snap.len().max(1);
                extra(
                    &mut out,
                    "bytes_per_key",
                    snap.size_bytes() as f64 / len as f64,
                )?;
                extra(&mut out, "peak_rss_mb", peak_rss_mb())?;
                if let Some(dir) = &wal_dir {
                    let (n, bytes) = run_checkpoints(dir);
                    extra(&mut out, "checkpoints", n as f64)?;
                    extra(&mut out, "checkpoint_bytes", bytes as f64)?;
                }
                if let Some((events, lost)) = events {
                    for (name, v) in trace::analyze(&events) {
                        extra(&mut out, &name, v)?;
                    }
                    extra(&mut out, "journal_lost", lost as f64)?;
                }
                writeln!(out, "end").map_err(io)?;
            }
            other => return Err(format!("unknown control line {other:?}")),
        }
        out.flush().map_err(io)?;
    }
    drop(service);
    Ok(())
}

type Running = (Service, Arc<Combiner<Store>>, Option<PathBuf>);

/// One setup: build the store from `base` and open the front door on it
/// with `ServiceConfig::default()`. The durable workload saves the base
/// as the WAL directory's first checkpoint and recovers it through
/// `Service::serve_durable` with the default `WalConfig`.
fn start(args: &ServeArgs, base: &[u64], dir: &Path) -> Result<Running, String> {
    let cfg = ServiceConfig::default();
    let set = <Store as cpma_api::BatchSet<u64>>::build_sorted(base);
    if !args.workload.durable() {
        if args.flip == 0 {
            let (service, combiner) = Service::serve(set, cfg).map_err(|e| e.to_string())?;
            return Ok((service, combiner, None));
        }
        let combiner = Arc::new(Combiner::with_config(set, cfg.combiner.clone()));
        let service = serve_flipped(combiner.clone(), cfg, args.flip)?;
        return Ok((service, combiner, None));
    }
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(io)?;
    set.save(&dir.join(checkpoint_file_name(0)))
        .map_err(|e| e.to_string())?;
    drop(set);
    let wal = WalConfig::new(dir);
    if args.flip == 0 {
        let (service, combiner, _) =
            Service::serve_durable::<Store>(cfg, wal).map_err(|e| e.to_string())?;
        return Ok((service, combiner, Some(dir.to_path_buf())));
    }
    let (combiner, _) =
        Combiner::<Store>::open_durable(cfg.combiner.clone(), wal).map_err(|e| e.to_string())?;
    let combiner = Arc::new(combiner);
    let service = serve_flipped(combiner.clone(), cfg, args.flip)?;
    Ok((service, combiner, Some(dir.to_path_buf())))
}

/// The self-check's fault: the production engine, except that the
/// `flip`-th call answers wrongly.
struct FlipEngine {
    inner: CombinerEngine<Store>,
    calls: AtomicU64,
    flip: u64,
}

impl FlipEngine {
    fn hit(&self) -> bool {
        self.calls.fetch_add(1, Ordering::SeqCst) + 1 == self.flip
    }
}

impl Engine for FlipEngine {
    fn submit(&self, ops: &[Op<u64>]) -> Vec<bool> {
        let mut r = self.inner.submit(ops);
        if self.hit() {
            r[0] = !r[0];
        }
        r
    }

    fn contains_batch(&self, keys: &[u64]) -> Vec<bool> {
        let mut r = self.inner.contains_batch(keys);
        if self.hit() && !r.is_empty() {
            r[0] = !r[0];
        }
        r
    }

    fn range_sum(&self, lo: u64, hi: u64) -> u64 {
        let r = self.inner.range_sum(lo, hi);
        if self.hit() {
            r.wrapping_add(1)
        } else {
            r
        }
    }

    fn scan(&self, lo: u64, max: usize) -> Vec<u64> {
        let mut r = self.inner.scan(lo, max);
        if self.hit() {
            r.pop();
        }
        r
    }
}

fn serve_flipped(
    combiner: Arc<Combiner<Store>>,
    cfg: ServiceConfig,
    flip: u64,
) -> Result<Service, String> {
    let engine = FlipEngine {
        inner: CombinerEngine::new(combiner),
        calls: AtomicU64::new(0),
        flip,
    };
    Service::serve_engine(Arc::new(engine), cfg).map_err(|e| e.to_string())
}

fn read_keys(r: &mut impl Read) -> std::io::Result<Vec<u64>> {
    let mut word = [0u8; 8];
    r.read_exact(&mut word)?;
    let n = u64::from_le_bytes(word) as usize;
    let mut bytes = vec![0u8; n * 8];
    r.read_exact(&mut bytes)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect())
}

fn report_deltas(out: &mut impl Write, before: &Snapshot, after: &Snapshot) -> std::io::Result<()> {
    for m in &after.metrics {
        match &m.value {
            MetricValue::Counter(v) => {
                let b = before.counter(&m.name).unwrap_or(0);
                writeln!(out, "c {} {}", m.name, v.wrapping_sub(b))?;
            }
            MetricValue::Histogram(h) => {
                let (bc, bs) = before
                    .histogram(&m.name)
                    .map_or((0, 0), |b| (b.count, b.sum));
                writeln!(
                    out,
                    "h {} {} {}",
                    m.name,
                    h.count - bc,
                    h.sum.wrapping_sub(bs)
                )?;
            }
            MetricValue::Gauge(_) => {}
        }
    }
    Ok(())
}

fn extra(out: &mut impl Write, name: &str, v: f64) -> Result<(), String> {
    writeln!(out, "x {name} {v}").map_err(io)
}

/// VmHWM of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checkpoints written while serving (sequence > 0, the base is 0) and
/// their total bytes on disk.
fn run_checkpoints(dir: &Path) -> (usize, u64) {
    let Ok((checkpoints, _)) = scan_dir(dir) else {
        return (0, 0);
    };
    let mut n = 0;
    let mut bytes = 0;
    for (seq, path) in checkpoints {
        if seq > 0 {
            n += 1;
            bytes += disk_bytes(&path);
        }
    }
    (n, bytes)
}

pub fn disk_bytes(path: &Path) -> u64 {
    match std::fs::metadata(path) {
        Ok(m) if m.is_dir() => std::fs::read_dir(path)
            .map(|rd| rd.flatten().map(|e| disk_bytes(&e.path())).sum())
            .unwrap_or(0),
        Ok(m) => m.len(),
        Err(_) => 0,
    }
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}
