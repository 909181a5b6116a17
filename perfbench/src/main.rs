//! `cpma-perfbench` — the repository's service-level benchmark.
//!
//! ```text
//! cpma-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cpma-perfbench --self-check
//! ```
//!
//! Each run starts the real `cpma-service` TCP front door in a process of
//! its own (`ServiceConfig::default()`), drives it over loopback from two
//! client threads with one connection each, and checks every reply
//! against answers computed from the seed before the timer starts.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload twice, untraced and then with the program's span timing on,
//! and prints the per-layer metrics. The last stdout line is one JSON
//! object; everything before it is `#`-prefixed human-readable detail.
//! See `perfbench/README.md` for the workloads and metrics.

mod drive;
mod gen;
mod server;
mod trace;

use drive::{run_pass, Pass, PassOpts};
use gen::{Inputs, Sizing, Workload};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Set-ups per untraced pass; `setup_s` is their median.
const SETUPS: usize = 5;

/// Connection 0's first measured steps replayed in-process (traced run).
const REPLAY_STEPS: usize = 256;

type Metric = (String, f64, &'static str);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => match serve_main(&args[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench server: {e}");
                1
            }
        },
        Some("--self-check") => self_check(),
        _ => bench_main(&args),
    };
    std::process::exit(code);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn serve_main(args: &[String]) -> Result<(), String> {
    let workload = flag(args, "--workload")
        .and_then(Workload::parse)
        .ok_or("missing --workload")?;
    let num = |name: &str| flag(args, name).and_then(|v| v.parse::<u64>().ok());
    server::serve(server::ServeArgs {
        workload,
        setups: num("--setups").unwrap_or(1) as usize,
        trace: num("--trace") == Some(1),
        flip: num("--flip").unwrap_or(0),
        dir: PathBuf::from(flag(args, "--dir").ok_or("missing --dir")?),
    })
}

fn bench_main(args: &[String]) -> i32 {
    let workload = flag(args, "--workload").and_then(Workload::parse);
    let num = |name: &str| flag(args, name).and_then(|v| v.parse::<u64>().ok());
    let (Some(workload), Some(seed), Some(seconds), Some(trace @ (0 | 1))) =
        (workload, num("--seed"), num("--seconds"), num("--trace"))
    else {
        eprintln!(
            "usage: cpma-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
             cpma-perfbench --self-check",
            Workload::ALL.map(Workload::name).join("|")
        );
        return 2;
    };
    let trace = trace == 1;
    let dir = work_dir();
    provenance(workload, seed, &dir);
    let result = run_workload(workload, Sizing::full(workload), seed, seconds, trace, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(r) => {
            for (name, v, unit) in &r.shown {
                println!("# {name} = {v} {unit}");
            }
            for n in &r.notes {
                println!("# note: {n}");
            }
            let correct = r.failed == 0;
            println!(
                "{}",
                result_json(correct, r.attempted, r.failed, &r.metrics)
            );
            if correct {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

/// Scratch space for WAL directories and replays, inside the checkout.
fn work_dir() -> PathBuf {
    let dir = Path::new(".perfbench_work").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct RunResult {
    /// The JSON metrics: end to end (untraced) or per layer (traced).
    metrics: Vec<Metric>,
    /// Everything printed as `#` lines.
    shown: Vec<Metric>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

fn run_workload(
    workload: Workload,
    sizing: Sizing,
    seed: u64,
    seconds: u64,
    trace: bool,
    dir: &Path,
) -> Result<RunResult, String> {
    let t = std::time::Instant::now();
    let inputs = Inputs::generate(workload, sizing, seed, seconds);
    let gen_s = t.elapsed().as_secs_f64();
    let opts = |trace: bool, setups: usize, flip: u64| PassOpts {
        seconds,
        trace,
        flip,
        setups,
        dir,
    };
    let t = std::time::Instant::now();
    let plain = run_pass(&inputs, &opts(false, SETUPS, 0))?;
    let pass_s = t.elapsed().as_secs_f64();
    let e2e = end_to_end(&plain);
    let client = client_metrics(&plain);
    let mut shown: Vec<Metric> = e2e.iter().chain(&client).cloned().collect();
    shown.push(("time.generate_s".into(), gen_s, "s"));
    shown.push(("time.pass_s".into(), pass_s, "s"));
    shown.extend(samples(&plain, ""));
    let mut notes = plain.notes.clone();
    let p99_samples = [
        ("client.write_p99_ms", plain.all(|c| &c.write_ns).len()),
        ("client.read_p99_ms", plain.all(|c| &c.read_ns).len()),
        ("client.sched_late_p99_ms", plain.all(|c| &c.late_ns).len()),
    ];
    for (name, n) in p99_samples {
        if (1..1000).contains(&n) {
            notes.push(format!(
                "{name} rests on {n} samples: fewer than ten lie beyond it"
            ));
        }
    }
    let (mut attempted, mut failed) = (plain.attempted, plain.failed);
    let metrics = if trace {
        let traced = run_pass(&inputs, &opts(true, 1, 0))?;
        attempted += traced.attempted;
        failed += traced.failed;
        notes.extend(traced.notes.iter().cloned());
        let replays = trace::replays(&inputs, REPLAY_STEPS, dir, seed);
        let layers = layer_metrics(&plain, &traced, &client, &replays);
        shown.extend(samples(&traced, "traced."));
        shown.extend(layers[client.len()..].iter().cloned());
        layers
    } else {
        e2e
    };
    Ok(RunResult {
        metrics,
        shown,
        attempted,
        failed,
        notes,
    })
}

fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0.0)
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Sample counts behind each quantile (a p99 needs 1000 for ten samples
/// beyond it).
fn samples(p: &Pass, prefix: &str) -> Vec<Metric> {
    let n = |f: fn(&drive::ConnResult) -> &Vec<u64>| p.all(f).len() as f64;
    vec![
        (format!("{prefix}samples.steps"), n(|c| &c.step_ns), "count"),
        (
            format!("{prefix}samples.writes"),
            n(|c| &c.write_ns),
            "count",
        ),
        (format!("{prefix}samples.reads"), n(|c| &c.read_ns), "count"),
        (format!("{prefix}measured_s"), p.elapsed, "s"),
        (
            format!("{prefix}samples.quiet_steps"),
            p.quiet_step_ns().len() as f64,
            "count",
        ),
        (format!("{prefix}host.steal_frac"), p.steal_frac, "ratio"),
        (
            format!("{prefix}host.quiet_steal_frac"),
            p.quiet_steal(),
            "ratio",
        ),
    ]
}

fn end_to_end(p: &Pass) -> Vec<Metric> {
    let steps = p.quiet_step_ns();
    vec![
        ("setup_s".into(), median(&p.setup_s), "s"),
        ("keys_per_s".into(), p.keys_per_s(), "1/s"),
        ("latency_p50_ms".into(), ms(quantile(&steps, 0.5)), "ms"),
        ("latency_p90_ms".into(), ms(quantile(&steps, 0.9)), "ms"),
        ("bytes_per_key".into(), p.server.extra("bytes_per_key"), "B"),
        ("peak_rss_mb".into(), p.server.extra("peak_rss_mb"), "MiB"),
    ]
}

/// The client-side split by request kind. Zero where a workload has no
/// such requests.
fn client_metrics(p: &Pass) -> Vec<Metric> {
    let writes = p.all(|c| &c.write_ns);
    let reads = p.all(|c| &c.read_ns);
    let late = p.all(|c| &c.late_ns);
    let write_ops: u64 = p.conns.iter().map(|c| c.write_ops).sum();
    let read_keys: u64 = p.conns.iter().map(|c| c.read_keys).sum();
    let secs = p.elapsed.max(1e-9);
    let stored =
        p.server.counter("persist.wal.appended_bytes") + p.server.extra("checkpoint_bytes");
    vec![
        (
            "client.write_ops_per_s".into(),
            write_ops as f64 / secs,
            "1/s",
        ),
        (
            "client.write_p50_ms".into(),
            ms(quantile(&writes, 0.5)),
            "ms",
        ),
        (
            "client.write_p99_ms".into(),
            ms(quantile(&writes, 0.99)),
            "ms",
        ),
        (
            "client.read_keys_per_s".into(),
            read_keys as f64 / secs,
            "1/s",
        ),
        ("client.read_p50_ms".into(), ms(quantile(&reads, 0.5)), "ms"),
        (
            "client.read_p99_ms".into(),
            ms(quantile(&reads, 0.99)),
            "ms",
        ),
        (
            "client.sched_late_p99_ms".into(),
            ms(quantile(&late, 0.99)),
            "ms",
        ),
        (
            "client.storage_bytes_per_write".into(),
            stored / (write_ops.max(1) as f64),
            "B",
        ),
        (
            "client.failed_frac".into(),
            p.failed as f64 / p.attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

/// Per-layer numbers: registry deltas and span attribution from the
/// traced pass, client numbers from the untraced pass, and the
/// in-process replays. Per-step figures divide the traced pass's server
/// totals by its measured client steps.
fn layer_metrics(
    plain: &Pass,
    traced: &Pass,
    client: &[Metric],
    replays: &trace::Replays,
) -> Vec<Metric> {
    let s = &traced.server;
    let steps = traced.steps().max(1) as f64;
    let per_step = |total_ms: f64| total_ms / steps;
    let hist_ms_per_step = |name: &str| per_step(ms(s.hist(name).1));
    let hist_mean_ms = |name: &str| {
        let (c, sum) = s.hist(name);
        if c > 0.0 {
            ms(sum / c)
        } else {
            0.0
        }
    };
    let rtt = traced.all(|c| &c.step_ns);
    let rtt_ms = ms(quantile(&rtt, 0.5));
    let rtt_mean_ms = ms(rtt.iter().sum::<u64>() as f64 / rtt.len().max(1) as f64);
    let plain_ms = ms(quantile(&plain.all(|c| &c.step_ns), 0.5));
    let mut self_diff: Vec<f64> = traced.conns[0]
        .step_ns
        .iter()
        .zip(&replays.step_ns)
        .map(|(&a, &b)| ms(a as f64 - b as f64))
        .collect();
    self_diff.sort_by(f64::total_cmp);
    let replay: HashMap<&str, f64> = replays
        .metrics
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    let r = |k: &str| replay.get(k).copied().unwrap_or(0.0);
    let (drains, _) = s.hist("service.decode_ns");
    let epochs = s.counter("combiner.epochs");
    let (sb_count, sb_sum) = s.hist("store.shard_batch_ops");

    // Snapshot reads run inside `service.combine` with no span of their
    // own; the in-process replay's read time moves them to the PMA layer.
    let reads = replays.read_ms_per_step;
    let service_self = (per_step(
        s.extra("decode_ms") + s.extra("reply_ms") + s.extra("combine_outside_epoch_ms"),
    ) - reads)
        .max(0.0);
    let combiner_self = per_step(s.extra("combiner_self_ms"));
    let sharded_self = per_step(s.extra("sharded_self_ms"));
    let pma_self = per_step(s.extra("pma_self_ms")) + reads;
    let persist_self = per_step(s.extra("persist_self_ms"));
    let accounted = service_self + combiner_self + sharded_self + pma_self + persist_self;
    let combine = s.extra("combine_ms");

    let mut m: Vec<Metric> = client.to_vec();
    m.extend([
        ("service.rtt_ms".into(), rtt_ms, "ms"),
        ("service.rtt_mean_ms".into(), rtt_mean_ms, "ms"),
        ("service.self_ms".into(), median(&self_diff), "ms"),
        (
            "service.decode_ms".into(),
            hist_ms_per_step("service.decode_ns"),
            "ms",
        ),
        (
            "service.combine_ms".into(),
            hist_ms_per_step("service.combine_ns"),
            "ms",
        ),
        (
            "service.reply_ms".into(),
            hist_ms_per_step("service.reply_ns"),
            "ms",
        ),
        (
            "service.frames_per_request".into(),
            s.counter("service.frames") / drains.max(1.0),
            "count",
        ),
        ("service.layer_self_ms".into(), service_self, "ms"),
        ("combiner.epochs".into(), epochs, "count"),
        (
            "combiner.ops_per_epoch_p50".into(),
            s.extra("ops_per_epoch_p50"),
            "count",
        ),
        (
            "combiner.epoch_p50_ms".into(),
            s.extra("epoch_p50_ms"),
            "ms",
        ),
        (
            "combiner.epoch_p99_ms".into(),
            s.extra("epoch_p99_ms"),
            "ms",
        ),
        (
            "combiner.wait_frac".into(),
            if combine > 0.0 {
                s.extra("combine_outside_epoch_ms") / combine
            } else {
                0.0
            },
            "ratio",
        ),
        ("combiner.self_ms".into(), combiner_self, "ms"),
        ("sharded.apply_ms".into(), r("sharded.apply_ms"), "ms"),
        (
            "sharded.publish_clone_ms".into(),
            r("sharded.publish_clone_ms"),
            "ms",
        ),
        (
            "sharded.publish_ms_total".into(),
            r("sharded.publish_clone_ms") * epochs,
            "ms",
        ),
        (
            "sharded.shard_batch_ops_mean".into(),
            if sb_count > 0.0 {
                sb_sum / sb_count
            } else {
                0.0
            },
            "count",
        ),
        (
            "sharded.rebalances".into(),
            s.counter("store.rebalances.skew")
                + s.counter("store.rebalances.grow")
                + s.counter("store.rebalances.shrink"),
            "count",
        ),
        ("sharded.self_ms".into(), sharded_self, "ms"),
        (
            "api.normalize_ns_per_op".into(),
            r("api.normalize_ns_per_op"),
            "ns",
        ),
        (
            "pma.route_ms".into(),
            hist_ms_per_step("pma.route.ns"),
            "ms",
        ),
        (
            "pma.merge_ms".into(),
            hist_ms_per_step("pma.merge.ns"),
            "ms",
        ),
        (
            "pma.count_ms".into(),
            hist_ms_per_step("pma.count.ns"),
            "ms",
        ),
        (
            "pma.redistribute_ms".into(),
            hist_ms_per_step("pma.redistribute.ns"),
            "ms",
        ),
        (
            "pma.leaves_touched".into(),
            s.counter("pma.leaves_touched"),
            "count",
        ),
        (
            "pma.pipeline_batches".into(),
            s.counter("pma.pipeline_batches"),
            "count",
        ),
        (
            "pma.point_fallbacks".into(),
            s.counter("pma.point_fallbacks"),
            "count",
        ),
        (
            "pma.full_rebuilds".into(),
            s.counter("pma.full_rebuilds"),
            "count",
        ),
        (
            "pma.range_sum_ns_per_key".into(),
            r("pma.range_sum_ns_per_key"),
            "ns",
        ),
        ("pma.scan_ns_per_key".into(), r("pma.scan_ns_per_key"), "ns"),
        (
            "pma.contains_batch_ns_per_probe".into(),
            r("pma.contains_batch_ns_per_probe"),
            "ns",
        ),
        ("pma.self_ms".into(), pma_self, "ms"),
        (
            "cpma.codec.delta_writes".into(),
            s.counter("cpma.codec.delta_writes"),
            "count",
        ),
        (
            "cpma.codec.bitmap_writes".into(),
            s.counter("cpma.codec.bitmap_writes"),
            "count",
        ),
        (
            "cpma.codec.flips".into(),
            s.counter("cpma.codec.flips"),
            "count",
        ),
        (
            "persist.wal_append_ms".into(),
            hist_mean_ms("persist.wal.append.ns"),
            "ms",
        ),
        (
            "persist.fsync_ms".into(),
            hist_mean_ms("persist.wal.fsync.ns"),
            "ms",
        ),
        (
            "persist.fsyncs".into(),
            s.counter("persist.wal.fsyncs"),
            "count",
        ),
        (
            "persist.run_checkpoints".into(),
            s.extra("checkpoints"),
            "count",
        ),
        (
            "persist.checkpoint_ms".into(),
            r("persist.checkpoint_ms"),
            "ms",
        ),
        (
            "persist.checkpoint_bytes".into(),
            r("persist.checkpoint_bytes"),
            "B",
        ),
        (
            "persist.replay_append_ms".into(),
            r("persist.replay_append_ms"),
            "ms",
        ),
        (
            "persist.replay_sync_ms".into(),
            r("persist.replay_sync_ms"),
            "ms",
        ),
        ("persist.self_ms".into(), persist_self, "ms"),
        ("pool.jobs".into(), s.counter("pool.jobs"), "count"),
        ("pool.helped".into(), s.counter("pool.helped"), "count"),
        ("trace.accounted_ms".into(), accounted, "ms"),
        // Self times are per-step means, so they add up to the mean step
        // time, not to the median.
        ("trace.remainder_ms".into(), rtt_mean_ms - accounted, "ms"),
        (
            "trace.remainder_frac".into(),
            (rtt_mean_ms - accounted) / rtt_mean_ms.max(1e-9),
            "ratio",
        ),
        (
            "trace.overhead_frac".into(),
            rtt_ms / plain_ms.max(1e-9) - 1.0,
            "ratio",
        ),
        (
            "trace.journal_lost".into(),
            s.extra("journal_lost"),
            "count",
        ),
    ]);
    m
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Provenance printed with every result.
fn provenance(workload: Workload, seed: u64, dir: &Path) {
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let sha = cmd("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| format!("none (source digest {:016x})", source_digest()));
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# workload {} seed {seed}", workload.name());
    println!("# git {sha}");
    println!("# nproc {nproc}; cpu {cpu}");
    println!(
        "# {}",
        cmd("rustc", &["--version"]).unwrap_or_else(|| "rustc unknown".into())
    );
    println!(
        "# CPMA_THREADS {}",
        std::env::var("CPMA_THREADS").unwrap_or_else(|_| "unset".into())
    );
    println!("# service {:?}", cpma_service::ServiceConfig::default());
    if workload.durable() {
        println!("# wal {:?}", cpma_store::WalConfig::new(dir.join("wal")));
    }
}

/// FNV-1a over the repository's sources, for checkouts without git.
fn source_digest() -> u64 {
    fn walk(p: &Path, out: &mut Vec<PathBuf>) {
        if let Ok(rd) = std::fs::read_dir(p) {
            for e in rd.flatten() {
                let path = e.path();
                if path.is_dir() {
                    walk(&path, out);
                } else if path
                    .extension()
                    .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
                {
                    out.push(path);
                }
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Tiny-size run of every workload, traced and untraced, that must
/// come out clean; then runs in which the server flips its 1st, 2nd or
/// 3rd reply, each of which the checker must catch.
fn self_check() -> i32 {
    let dir = work_dir();
    let mut ok = true;
    for w in Workload::ALL {
        let sizing = Sizing::tiny(w);
        match run_workload(w, sizing, 7, 1, true, &dir) {
            Ok(r) if r.failed == 0 && r.attempted > 0 => {
                println!(
                    "self-check {}: clean run, {} requests, 0 wrong",
                    w.name(),
                    r.attempted
                );
            }
            Ok(r) => {
                ok = false;
                println!(
                    "self-check {}: FAIL, clean run had {} wrong: {:?}",
                    w.name(),
                    r.failed,
                    r.notes
                );
            }
            Err(e) => {
                ok = false;
                println!("self-check {}: FAIL, {e}", w.name());
            }
        }
        let inputs = Inputs::generate(w, sizing, 7, 1);
        for flip in 1..=3 {
            let opts = PassOpts {
                seconds: 1,
                trace: false,
                flip,
                setups: 1,
                dir: &dir,
            };
            match run_pass(&inputs, &opts) {
                Ok(p) if p.failed >= 1 => println!(
                    "self-check {}: flipped reply #{flip} caught ({} of {} wrong)",
                    w.name(),
                    p.failed,
                    p.attempted
                ),
                Ok(_) => {
                    ok = false;
                    println!(
                        "self-check {}: FAIL, flipped reply #{flip} missed",
                        w.name()
                    );
                }
                Err(e) => {
                    ok = false;
                    println!("self-check {}: FAIL, {e}", w.name());
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("self-check {}", if ok { "passed" } else { "FAILED" });
    i32::from(!ok)
}
