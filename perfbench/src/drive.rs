//! One pass of a workload: start the server process, drive it from
//! [`CONNS`] client threads over loopback, check every reply against the
//! oracle, then check the final contents (and, on the durable workload,
//! a recovery of the WAL directory).

use crate::gen::{Inputs, Req, Step, Workload, CONNS};
use crate::server::Store;
use cpma_api::{OrderedSet, RangeSet};
use cpma_service::{Client, ClientError};
use cpma_store::{Combiner, CombinerConfig, WalConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub struct PassOpts<'a> {
    pub seconds: u64,
    pub trace: bool,
    pub flip: u64,
    pub setups: usize,
    pub dir: &'a Path,
}

/// What one connection measured. Latencies are nanoseconds.
#[derive(Default)]
pub struct ConnResult {
    /// Steps run, warm-up included (the oracle prefix that applied).
    pub done: usize,
    /// Per measured step: a request on closed loops; a whole cycle,
    /// from when it was due, on the open loop.
    pub step_ns: Vec<u64>,
    /// Write bursts (open loop: from when due).
    pub write_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    /// Open loop: how late each cycle was sent.
    pub late_ns: Vec<u64>,
    /// Per measured step: (completion, ns after the measured start; keys).
    pub done_at: Vec<(u64, u64)>,
    pub write_ops: u64,
    pub read_keys: u64,
    pub attempted: u64,
    pub failed: u64,
    pub start: Option<Instant>,
    pub end: Option<Instant>,
    pub error: Option<String>,
}

/// Server-side numbers: registry deltas and extras (see `server.rs`).
#[derive(Default)]
pub struct ServerReport {
    pub counters: HashMap<String, u64>,
    pub hists: HashMap<String, (u64, u64)>,
    pub extras: HashMap<String, f64>,
}

impl ServerReport {
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// (count, sum) of a histogram's delta.
    pub fn hist(&self, name: &str) -> (f64, f64) {
        let (c, s) = self.hists.get(name).copied().unwrap_or((0, 0));
        (c as f64, s as f64)
    }

    pub fn extra(&self, name: &str) -> f64 {
        self.extras.get(name).copied().unwrap_or(0.0)
    }
}

pub struct Pass {
    pub setup_s: Vec<f64>,
    pub conns: Vec<ConnResult>,
    pub server: ServerReport,
    /// Wall seconds of the measured phase.
    pub elapsed: f64,
    /// Share of CPU time the hypervisor stole during the measured phase.
    pub steal_frac: f64,
    /// The same share in each whole [`WINDOW_NS`] window of it.
    pub window_steal: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Pass {
    pub fn all(&self, f: impl Fn(&ConnResult) -> &Vec<u64>) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .conns
            .iter()
            .flat_map(|c| f(c).iter().copied())
            .collect();
        v.sort_unstable();
        v
    }

    /// Whole windows the hypervisor stole no more than the median share
    /// of CPU from. Host steal on a shared machine moves throughput and
    /// latency more than most program changes do; reading the quieter half
    /// of each run keeps that noise out of the gated numbers. `None` when
    /// the run is too short to have windows.
    pub fn quiet_windows(&self) -> Option<Vec<bool>> {
        if self.window_steal.len() < 3 {
            return None;
        }
        let mut sorted = self.window_steal.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[(sorted.len() - 1) / 2];
        Some(self.window_steal.iter().map(|&s| s <= median).collect())
    }

    /// Measured steps as (completion window, latency ns, keys).
    fn step_records(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.conns.iter().flat_map(|c| {
            c.done_at
                .iter()
                .zip(&c.step_ns)
                .map(|(&(at, keys), &ns)| ((at / WINDOW_NS) as usize, ns, keys))
        })
    }

    /// Sorted step latencies of the steps completed in quiet windows.
    pub fn quiet_step_ns(&self) -> Vec<u64> {
        let Some(quiet) = self.quiet_windows() else {
            return self.all(|c| &c.step_ns);
        };
        let mut v: Vec<u64> = self
            .step_records()
            .filter(|&(w, _, _)| quiet.get(w).copied().unwrap_or(false))
            .map(|(_, ns, _)| ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Keys completed per second: the median over the quiet windows.
    pub fn keys_per_s(&self) -> f64 {
        let Some(quiet) = self.quiet_windows() else {
            let keys: u64 = self.step_records().map(|r| r.2).sum();
            return keys as f64 / self.elapsed.max(1e-9);
        };
        let mut per = vec![0u64; quiet.len()];
        for (w, _, keys) in self.step_records() {
            if let Some(k) = per.get_mut(w) {
                *k += keys;
            }
        }
        let mut q: Vec<u64> = per
            .into_iter()
            .zip(&quiet)
            .filter(|&(_, &is_quiet)| is_quiet)
            .map(|(k, _)| k)
            .collect();
        q.sort_unstable();
        let mid = (q[(q.len() - 1) / 2] + q[q.len() / 2]) as f64 / 2.0;
        mid / (WINDOW_NS as f64 / 1e9)
    }

    /// Mean steal share over the quiet windows.
    pub fn quiet_steal(&self) -> f64 {
        match self.quiet_windows() {
            Some(quiet) => {
                let q: Vec<f64> = self
                    .window_steal
                    .iter()
                    .zip(&quiet)
                    .filter(|&(_, &is_quiet)| is_quiet)
                    .map(|(&s, _)| s)
                    .collect();
                q.iter().sum::<f64>() / q.len() as f64
            }
            None => self.steal_frac,
        }
    }

    pub fn steps(&self) -> usize {
        self.conns.iter().map(|c| c.step_ns.len()).sum()
    }
}

struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    fn line(&mut self) -> Result<String, String> {
        let mut s = String::new();
        match self.stdout.read_line(&mut s) {
            Ok(0) => Err("server exited early".into()),
            Ok(_) => Ok(s.trim_end().to_string()),
            Err(e) => Err(format!("reading server output: {e}")),
        }
    }

    fn send(&mut self, msg: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().expect("stdin open until shutdown");
        writeln!(stdin, "{msg}")
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("writing to server: {e}"))
    }

    fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server process failed: {status}"))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn spawn_server(inputs: &Inputs, o: &PassOpts) -> Result<ServerProc, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // One malloc arena: with glibc's default of one per thread, the
    // 60 MB publish clones land in whichever worker's arena leads the
    // epoch, and the freed ones stay resident there, so the server's peak
    // RSS wandered between 272 and 412 MiB from run to run. With one arena
    // it reads ~192 MiB every time.
    let mut child = Command::new(exe)
        .env("MALLOC_ARENA_MAX", "1")
        .arg("serve")
        .args(["--workload", inputs.workload.name()])
        .args(["--setups", &o.setups.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }])
        .args(["--flip", &o.flip.to_string()])
        .arg("--dir")
        .arg(o.dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning server: {e}"))?;
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut proc = ServerProc {
        child,
        stdin: Some(stdin),
        stdout,
    };
    let mut bytes = Vec::with_capacity(8 + inputs.base.len() * 8);
    bytes.extend_from_slice(&(inputs.base.len() as u64).to_le_bytes());
    for k in &inputs.base {
        bytes.extend_from_slice(&k.to_le_bytes());
    }
    let stdin = proc.stdin.as_mut().expect("just set");
    stdin
        .write_all(&bytes)
        .and_then(|_| stdin.flush())
        .map_err(|e| format!("sending base keys: {e}"))?;
    Ok(proc)
}

/// Run one pass of `inputs`' workload.
pub fn run_pass(inputs: &Inputs, o: &PassOpts) -> Result<Pass, String> {
    let mut server = spawn_server(inputs, o)?;
    let ready = server.line()?;
    let mut parts = ready.split_whitespace();
    if parts.next() != Some("ready") {
        return Err(format!("unexpected server line {ready:?}"));
    }
    let addr: SocketAddr = parts
        .next()
        .and_then(|a| a.parse().ok())
        .ok_or("server sent no address")?;
    let setup_s: Vec<f64> = parts.filter_map(|t| t.parse().ok()).collect();

    let barrier = Barrier::new(CONNS + 1);
    let stop = AtomicBool::new(false);
    let clients_done = AtomicBool::new(false);
    let seconds = Duration::from_secs(o.seconds);
    let (conns, marked, steal_frac, window_steal) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || drive_conn(inputs, c, addr, barrier, stop, seconds))
            })
            .collect();
        // Warm-up done on every connection: snapshot the server, go.
        barrier.wait();
        let marked = server
            .send("mark")
            .and_then(|_| server.line())
            .and_then(|l| match l.as_str() {
                "marked" => Ok(()),
                _ => Err(format!("unexpected server line {l:?}")),
            });
        if marked.is_err() {
            stop.store(true, Ordering::SeqCst);
        }
        let monitor = {
            let clients_done = &clients_done;
            scope.spawn(move || steal_monitor(clients_done))
        };
        barrier.wait();
        let conns: Vec<ConnResult> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        clients_done.store(true, Ordering::SeqCst);
        let (total, windows) = monitor.join().expect("steal monitor panicked");
        (conns, marked, total, windows)
    });
    marked?;

    server.send("stop")?;
    let mut report = ServerReport::default();
    loop {
        let l = server.line()?;
        let f: Vec<&str> = l.split_whitespace().collect();
        match f.as_slice() {
            ["end"] => break,
            ["c", name, v] => {
                report
                    .counters
                    .insert(name.to_string(), v.parse().unwrap_or(0));
            }
            ["h", name, c, s] => {
                report.hists.insert(
                    name.to_string(),
                    (c.parse().unwrap_or(0), s.parse().unwrap_or(0)),
                );
            }
            ["x", name, v] => {
                report
                    .extras
                    .insert(name.to_string(), v.parse().unwrap_or(f64::NAN));
            }
            _ => return Err(format!("unexpected server line {l:?}")),
        }
    }

    let mut attempted: u64 = conns.iter().map(|c| c.attempted).sum();
    let mut failed: u64 = conns.iter().map(|c| c.failed).sum();
    let mut notes: Vec<String> = conns.iter().filter_map(|c| c.error.clone()).collect();
    let done: Vec<usize> = conns.iter().map(|c| c.done).collect();
    let expected = inputs.expected_final(&done);

    attempted += 1;
    if let Err(e) = check_contents_over_wire(addr, &expected) {
        failed += 1;
        notes.push(format!("final contents: {e}"));
    }
    server.finish()?;
    if inputs.workload.durable() {
        attempted += 1;
        let dir = o.dir.join(format!("wal-{}", o.setups.max(1) - 1));
        if let Err(e) = check_reopen(&dir, &expected) {
            failed += 1;
            notes.push(format!("WAL reopen: {e}"));
        }
    }

    let start = conns.iter().filter_map(|c| c.start).min();
    let end = conns.iter().filter_map(|c| c.end).max();
    let elapsed = match (start, end) {
        (Some(s), Some(e)) => e.duration_since(s).as_secs_f64(),
        _ => 0.0,
    };
    Ok(Pass {
        setup_s,
        conns,
        server: report,
        elapsed,
        steal_frac,
        window_steal,
        attempted,
        failed,
        notes,
    })
}

/// Send `req`, compare the reply with the oracle's. `Err` is a transport
/// or protocol failure (the connection is unusable afterwards).
fn send_checked(client: &mut Client, req: &Req, base: &[u64]) -> Result<bool, ClientError> {
    Ok(match req {
        Req::Burst { ops, acks } => client.mutate_burst(ops)? == *acks,
        Req::RangeSum { lo, hi, sum, .. } => client.range_sum(*lo, *hi)? == *sum,
        Req::Scan { lo, max, start, n } => client.scan(*lo, *max)? == base[*start..*start + *n],
        Req::Contains { keys, expect } => client.contains_batch(keys)? == *expect,
    })
}

/// Run `step`'s requests back to back, recording each one's latency
/// from `due` (first request) or from its send (later ones). Returns the
/// step's completion time, or `None` after a transport failure.
fn run_step(
    client: &mut Client,
    step: &Step,
    base: &[u64],
    due: Instant,
    r: &mut ConnResult,
    measured: bool,
) -> Option<Instant> {
    let mut from = due;
    for req in step {
        r.attempted += 1;
        match send_checked(client, req, base) {
            Ok(ok) => r.failed += u64::from(!ok),
            Err(e) => {
                r.failed += 1;
                r.error = Some(format!("transport: {e}"));
                return None;
            }
        }
        let now = Instant::now();
        if measured {
            let ns = now.duration_since(from).as_nanos() as u64;
            if req.is_write() {
                r.write_ns.push(ns);
                r.write_ops += req.keys();
            } else {
                r.read_ns.push(ns);
                r.read_keys += req.keys();
            }
        }
        from = now;
    }
    Some(from)
}

fn drive_conn(
    inputs: &Inputs,
    c: usize,
    addr: SocketAddr,
    barrier: &Barrier,
    stop: &AtomicBool,
    seconds: Duration,
) -> ConnResult {
    let mut r = ConnResult::default();
    let steps = &inputs.steps[c];
    let base = &inputs.base;
    let warm = inputs.sizing.warmup.min(steps.len());
    let mut client = match Client::connect(addr) {
        Ok(cl) => Some(cl),
        Err(e) => {
            r.error = Some(format!("connect: {e}"));
            None
        }
    };
    if let Some(cl) = client.as_mut() {
        let _ = cl.set_read_timeout(Some(Duration::from_secs(60)));
        for step in &steps[..warm] {
            if run_step(cl, step, base, Instant::now(), &mut r, false).is_none() {
                client = None;
                break;
            }
            r.done += 1;
        }
    }
    barrier.wait();
    barrier.wait();
    let Some(client) = client.as_mut() else {
        stop.store(true, Ordering::SeqCst);
        return r;
    };
    let start = Instant::now();
    r.start = Some(start);
    let open_loop = inputs.sizing.rate > 0.0;
    let period = if open_loop {
        Duration::from_secs_f64(1.0 / inputs.sizing.rate)
    } else {
        Duration::ZERO
    };
    // Connections' schedules interleave instead of coinciding.
    let offset = period.mul_f64(c as f64 / CONNS as f64);
    let measured = &steps[warm..];
    let repeat = inputs.workload == Workload::ReadUniform;
    for j in 0.. {
        if stop.load(Ordering::SeqCst) || measured.is_empty() || (!repeat && j == measured.len()) {
            break;
        }
        let step = &measured[j % measured.len()];
        let due = if open_loop {
            let due = start + offset + period.mul_f64(j as f64);
            let now = Instant::now();
            // A system too slow for the schedule stops being fed at twice
            // the run length instead of running on past every limit.
            if now > start + 2 * seconds {
                break;
            }
            if due > now {
                std::thread::sleep(due - now);
            }
            r.late_ns
                .push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
            due
        } else {
            if start.elapsed() >= seconds {
                break;
            }
            Instant::now()
        };
        let Some(end) = run_step(client, step, base, due, &mut r, true) else {
            stop.store(true, Ordering::SeqCst);
            break;
        };
        r.step_ns.push(end.duration_since(due).as_nanos() as u64);
        let keys = step.iter().map(Req::keys).sum();
        r.done_at
            .push((end.duration_since(start).as_nanos() as u64, keys));
        r.done += 1;
        r.end = Some(end);
    }
    if !open_loop && !repeat && r.done == steps.len() && start.elapsed() < seconds {
        r.error = Some("request pool ran out before the run ended".into());
        stop.store(true, Ordering::SeqCst);
    }
    r
}

/// Scan the whole store through the service and compare with `expected`.
fn check_contents_over_wire(addr: SocketAddr, expected: &[u64]) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let _ = client.set_read_timeout(Some(Duration::from_secs(60)));
    let mut at = 0usize;
    let mut lo = 0u64;
    loop {
        let chunk = client.scan(lo, 1 << 16).map_err(|e| e.to_string())?;
        let want = &expected[at..(at + chunk.len()).min(expected.len())];
        if chunk.as_slice() != want {
            return Err(format!(
                "mismatch in the {} keys from index {at}",
                chunk.len()
            ));
        }
        at += chunk.len();
        match chunk.last() {
            Some(&k) if chunk.len() == 1 << 16 && k < u64::MAX => lo = k + 1,
            _ => break,
        }
    }
    if at == expected.len() {
        Ok(())
    } else {
        Err(format!("{at} keys stored, {} expected", expected.len()))
    }
}

/// Recover the WAL directory the way a restart would and compare.
fn check_reopen(dir: &PathBuf, expected: &[u64]) -> Result<(), String> {
    let (combiner, _) =
        Combiner::<Store>::open_durable(CombinerConfig::default(), WalConfig::new(dir))
            .map_err(|e| e.to_string())?;
    let snap = combiner.snapshot();
    if snap.len() != expected.len() {
        return Err(format!(
            "{} keys recovered, {} expected",
            snap.len(),
            expected.len()
        ));
    }
    let mut got = Vec::with_capacity(expected.len());
    snap.scan_from(0, &mut |k| {
        got.push(k);
        true
    });
    if got == expected {
        Ok(())
    } else {
        Err("recovered keys differ".into())
    }
}

/// Window length for throughput medians and steal-based selection.
pub const WINDOW_NS: u64 = 3_000_000_000;

/// Samples host steal from the measured start (the monitor starts just
/// before the clients' start barrier) until `done`: the share over the
/// whole phase and over each whole window.
fn steal_monitor(done: &AtomicBool) -> (f64, Vec<f64>) {
    let start = Instant::now();
    let first = cpu_ticks();
    let mut at_edge = first;
    let mut windows = Vec::new();
    while !done.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(20));
        let edge = start + Duration::from_nanos(WINDOW_NS * (windows.len() as u64 + 1));
        if Instant::now() >= edge {
            let now = cpu_ticks();
            windows.push(steal_share(at_edge, now));
            at_edge = now;
        }
    }
    (steal_share(first, cpu_ticks()), windows)
}

/// (steal, total) jiffies of the host CPU line in `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

fn steal_share(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> f64 {
    match (a, b) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}
