//! Seeded workload inputs and the oracle answers every reply is checked
//! against. Everything here runs before any timer starts.
//!
//! Each connection owns a disjoint key set (ingest: one key parity per
//! connection; rw: one 2^40-wide key region per connection), so no
//! connection can change another's answers and every reply has exactly
//! one correct value.

use cpma_api::BatchOp;
use cpma_workloads::{ClusteredKeys, SplitMix64};
use std::collections::{HashMap, VecDeque};

/// Client connections per workload (one thread each).
pub const CONNS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    IngestUniform,
    ReadUniform,
    RwDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IngestUniform,
        Workload::ReadUniform,
        Workload::RwDurable,
    ];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestUniform => "ingest_uniform",
            Workload::ReadUniform => "read_uniform",
            Workload::RwDurable => "rw_durable",
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::RwDurable
    }
}

/// Sizes of one workload. `full` is what the benchmark measures; `tiny`
/// is the self-check's sizing.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Keys in the base store.
    pub base: usize,
    /// Ops per write burst (ingest) or per cycle's write (rw).
    pub burst: usize,
    /// Probes per `ContainsBatch` (read).
    pub probes: usize,
    /// Write bursts generated per connection per measured second
    /// (ingest; the closed loop stops early if they run out).
    pub steps_per_sec: usize,
    /// Reads generated per connection (read); the closed loop cycles
    /// through them, which the static base keeps valid.
    pub pool: usize,
    /// Unmeasured steps per connection before the measured phase.
    pub warmup: usize,
    /// Open-loop cycle rate per connection (rw only), cycles/s.
    pub rate: f64,
    /// Range-sum lengths are 2^lo_exp .. 2^hi_exp keys (read).
    pub lo_exp: u32,
    pub hi_exp: u32,
    /// Keys in the rw range-sum window and run length of its inserts.
    pub window: usize,
}

impl Sizing {
    pub fn full(w: Workload) -> Sizing {
        match w {
            Workload::IngestUniform => Sizing {
                base: 10_000_000,
                burst: 4096,
                probes: 0,
                steps_per_sec: 30,
                pool: 0,
                warmup: 4,
                rate: 0.0,
                lo_exp: 0,
                hi_exp: 0,
                window: 0,
            },
            Workload::ReadUniform => Sizing {
                base: 10_000_000,
                burst: 0,
                probes: 1024,
                steps_per_sec: 0,
                pool: 3000,
                warmup: 64,
                rate: 0.0,
                lo_exp: 4,
                hi_exp: 20,
                window: 0,
            },
            Workload::RwDurable => Sizing {
                base: 1_000_000,
                burst: 64,
                probes: 0,
                steps_per_sec: 0,
                pool: 0,
                warmup: 32,
                rate: 100.0,
                lo_exp: 0,
                hi_exp: 0,
                window: 1024,
            },
        }
    }

    pub fn tiny(w: Workload) -> Sizing {
        let full = Sizing::full(w);
        match w {
            Workload::IngestUniform => Sizing {
                base: 20_000,
                burst: 256,
                ..full
            },
            Workload::ReadUniform => Sizing {
                base: 20_000,
                probes: 64,
                pool: 300,
                lo_exp: 2,
                hi_exp: 12,
                ..full
            },
            Workload::RwDurable => Sizing {
                base: 20_000,
                rate: 100.0,
                warmup: 8,
                window: 128,
                ..full
            },
        }
    }
}

/// One request and the reply it must get.
pub enum Req {
    /// Pipelined `mutate_burst`; `acks[i]` answers `ops[i]`.
    Burst {
        ops: Vec<BatchOp<u64>>,
        acks: Vec<bool>,
    },
    /// `RangeSum(lo, hi)` over `keys` stored keys summing to `sum`.
    RangeSum {
        lo: u64,
        hi: u64,
        keys: u64,
        sum: u64,
    },
    /// `Scan(lo, max)` must return `base[start..start + n]`.
    Scan {
        lo: u64,
        max: u32,
        start: usize,
        n: usize,
    },
    /// `ContainsBatch(keys)` must return `expect`.
    Contains { keys: Vec<u64>, expect: Vec<bool> },
}

impl Req {
    pub fn is_write(&self) -> bool {
        matches!(self, Req::Burst { .. })
    }

    /// Keys this request writes, sums, scans or probes.
    pub fn keys(&self) -> u64 {
        match self {
            Req::Burst { ops, .. } => ops.len() as u64,
            Req::RangeSum { keys, .. } => *keys,
            Req::Scan { n, .. } => *n as u64,
            Req::Contains { keys, .. } => keys.len() as u64,
        }
    }
}

/// One step of a connection's loop: a single request on the closed
/// loops, a write + read-back + window-sum cycle on `rw_durable`.
pub type Step = Vec<Req>;

/// Everything one run needs, generated from the seed.
pub struct Inputs {
    pub workload: Workload,
    pub sizing: Sizing,
    /// Sorted, distinct base keys (what the server is given).
    pub base: Vec<u64>,
    /// Per connection: warm-up steps first, then measured steps.
    pub steps: Vec<Vec<Step>>,
}

impl Inputs {
    pub fn generate(workload: Workload, sizing: Sizing, seed: u64, seconds: u64) -> Inputs {
        let n_steps = |per_sec: usize| sizing.warmup + per_sec * seconds as usize;
        let (base, steps) = match workload {
            Workload::IngestUniform => {
                let base = uniform_base(sizing.base, seed);
                let steps = (0..CONNS)
                    .map(|c| ingest_steps(&base, c, n_steps(sizing.steps_per_sec), sizing, seed))
                    .collect();
                (base, steps)
            }
            Workload::ReadUniform => {
                let base = uniform_base(sizing.base, seed);
                let prefix = prefix_sums(&base);
                let steps = (0..CONNS)
                    .map(|c| {
                        read_steps(&base, &prefix, c, sizing.warmup + sizing.pool, sizing, seed)
                    })
                    .collect();
                (base, steps)
            }
            Workload::RwDurable => {
                let cycles = sizing.warmup + (sizing.rate * seconds as f64).ceil() as usize;
                let mut base = Vec::with_capacity(sizing.base);
                let mut steps = Vec::with_capacity(CONNS);
                for c in 0..CONNS {
                    let mut model = RwModel::new(c, sizing, seed);
                    base.extend(model.live.iter().copied());
                    steps.push((0..cycles).map(|_| model.cycle(sizing)).collect());
                }
                (base, steps)
            }
        };
        Inputs {
            workload,
            sizing,
            base,
            steps,
        }
    }

    /// The set's exact contents after connection `c` ran `done[c]` steps.
    pub fn expected_final(&self, done: &[usize]) -> Vec<u64> {
        let mut changes: HashMap<u64, bool> = HashMap::new();
        for (c, steps) in self.steps.iter().enumerate() {
            // Only the read workload cycles past its pool, and it writes
            // nothing.
            for step in &steps[..done[c].min(steps.len())] {
                for req in step {
                    if let Req::Burst { ops, .. } = req {
                        for op in ops {
                            changes.insert(op.key(), op.is_insert());
                        }
                    }
                }
            }
        }
        let mut added: Vec<u64> = changes
            .iter()
            .filter(|&(k, &present)| present && self.base.binary_search(k).is_err())
            .map(|(&k, _)| k)
            .collect();
        added.sort_unstable();
        let kept = self
            .base
            .iter()
            .copied()
            .filter(|k| changes.get(k).copied().unwrap_or(true));
        let mut out = Vec::with_capacity(self.base.len() + added.len());
        let mut added = added.into_iter().peekable();
        for k in kept {
            while let Some(&a) = added.peek() {
                if a >= k {
                    break;
                }
                out.push(a);
                added.next();
            }
            out.push(k);
        }
        out.extend(added);
        out
    }
}

/// `n` distinct uniform 40-bit keys, sorted.
fn uniform_base(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0xBA5E);
    let mut base: Vec<u64> = Vec::with_capacity(n);
    while base.len() < n {
        let missing = n - base.len();
        base.extend((0..missing).map(|_| rng.next_bits(40)));
        base.sort_unstable();
        base.dedup();
    }
    base
}

fn prefix_sums(base: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(base.len() + 1);
    let mut acc = 0u64;
    out.push(0);
    for &k in base {
        acc = acc.wrapping_add(k);
        out.push(acc);
    }
    out
}

/// `ingest_uniform`: 3:1 insert:remove bursts on connection `c`'s key
/// parity. Inserts draw fresh uniform 40-bit keys; removes hit a base
/// key or one of this connection's earlier inserts. Acks come from
/// replaying the stream against the base.
fn ingest_steps(base: &[u64], c: usize, n: usize, sizing: Sizing, seed: u64) -> Vec<Step> {
    let mut rng = SplitMix64::new(seed ^ 0x001A_6E57 ^ ((c as u64 + 1) << 48));
    let parity = c as u64;
    let mut state: HashMap<u64, bool> = HashMap::new();
    let mut inserted: Vec<u64> = Vec::new();
    (0..n)
        .map(|_| {
            let mut ops = Vec::with_capacity(sizing.burst);
            let mut acks = Vec::with_capacity(sizing.burst);
            for _ in 0..sizing.burst {
                let op = if rng.next_below(4) != 0 || inserted.is_empty() {
                    let k = (rng.next_bits(40) & !1) | parity;
                    inserted.push(k);
                    BatchOp::Insert(k)
                } else if rng.next_below(2) == 0 {
                    BatchOp::Remove(inserted[rng.next_below(inserted.len() as u64) as usize])
                } else {
                    let mut i = rng.next_below(base.len() as u64) as usize;
                    while base[i] & 1 != parity {
                        i = (i + 1) % base.len();
                    }
                    BatchOp::Remove(base[i])
                };
                let k = op.key();
                let present = *state
                    .entry(k)
                    .or_insert_with(|| base.binary_search(&k).is_ok());
                acks.push(present != op.is_insert());
                state.insert(k, op.is_insert());
                ops.push(op);
            }
            vec![Req::Burst { ops, acks }]
        })
        .collect()
}

/// `read_uniform`: an equal seeded mix of `RangeSum` (lengths
/// log-uniform over 2^lo_exp..2^hi_exp keys, stratified so every seed
/// sees the same length spectrum), `Scan` of up to 1024 keys and
/// `ContainsBatch` probes, half of them hits.
fn read_steps(
    base: &[u64],
    prefix: &[u64],
    c: usize,
    n: usize,
    sizing: Sizing,
    seed: u64,
) -> Vec<Step> {
    let mut rng = SplitMix64::new(seed ^ 0x4EAD ^ ((c as u64 + 1) << 48));
    let strata = (sizing.hi_exp - sizing.lo_exp) as usize;
    let mut order: Vec<usize> = Vec::new();
    let len = base.len();
    (0..n)
        .map(|i| {
            let req = match i % 3 {
                0 => {
                    if order.is_empty() {
                        order = (0..strata).collect();
                        for j in (1..strata).rev() {
                            order.swap(j, rng.next_below(j as u64 + 1) as usize);
                        }
                    }
                    let stratum = order.pop().expect("refilled above");
                    let exp = sizing.lo_exp as f64 + stratum as f64 + rng.next_f64();
                    let keys = (exp.exp2() as usize).clamp(1, len);
                    let start = rng.next_below((len - keys + 1) as u64) as usize;
                    Req::RangeSum {
                        lo: base[start],
                        hi: base[start + keys - 1],
                        keys: keys as u64,
                        sum: prefix[start + keys].wrapping_sub(prefix[start]),
                    }
                }
                1 => {
                    let max = 1 + rng.next_below(1024) as u32;
                    let start = rng.next_below(len as u64) as usize;
                    // Start strictly between two stored keys half the time.
                    let lo = if rng.next_below(2) == 0 || start == 0 {
                        base[start]
                    } else {
                        base[start - 1] + 1
                    };
                    Req::Scan {
                        lo,
                        max,
                        start,
                        n: (max as usize).min(len - start),
                    }
                }
                _ => {
                    let mut keys = Vec::with_capacity(sizing.probes);
                    let mut expect = Vec::with_capacity(sizing.probes);
                    for p in 0..sizing.probes {
                        if p % 2 == 0 {
                            keys.push(base[rng.next_below(len as u64) as usize]);
                            expect.push(true);
                        } else {
                            let k = loop {
                                let k = rng.next_bits(40);
                                if base.binary_search(&k).is_err() {
                                    break k;
                                }
                            };
                            keys.push(k);
                            expect.push(false);
                        }
                    }
                    Req::Contains { keys, expect }
                }
            };
            vec![req]
        })
        .collect()
}

/// Connection `c`'s live keys on `rw_durable`: a clustered base in its
/// own 2^40-wide region, grown by auto-increment runs at the tail and
/// expired from the head.
struct RwModel {
    live: VecDeque<u64>,
    cursor: u64,
    rng: SplitMix64,
}

impl RwModel {
    fn new(c: usize, sizing: Sizing, seed: u64) -> RwModel {
        let region = (c as u64 + 1) << 40;
        let keys = ClusteredKeys::new(64, 16, seed ^ 0xC1u64 ^ (c as u64) << 32)
            .starting_at(region)
            .sorted(sizing.base / CONNS);
        let cursor = keys.last().map_or(region, |&k| k + 100);
        RwModel {
            live: keys.into(),
            cursor,
            rng: SplitMix64::new(seed ^ 0x5D ^ ((c as u64 + 1) << 48)),
        }
    }

    /// One cycle: a write burst of auto-increment inserts (3/4) and
    /// removes of the oldest live keys (1/4), a `ContainsBatch` of
    /// exactly the keys just written, and a `RangeSum` over the newest
    /// `window` live keys.
    fn cycle(&mut self, sizing: Sizing) -> Step {
        let inserts = sizing.burst * 3 / 4;
        let mut ops = Vec::with_capacity(sizing.burst);
        for _ in 0..inserts {
            if self.rng.next_below(16) == 0 {
                self.cursor += 1 + self.rng.next_below(64);
            }
            ops.push(BatchOp::Insert(self.cursor));
            self.live.push_back(self.cursor);
            self.cursor += 1;
        }
        for _ in inserts..sizing.burst {
            let k = self.live.pop_front().expect("base outlives the run");
            ops.push(BatchOp::Remove(k));
        }
        let keys: Vec<u64> = ops.iter().map(|op| op.key()).collect();
        let expect: Vec<bool> = ops.iter().map(|op| op.is_insert()).collect();
        let acks = vec![true; ops.len()];
        let w = sizing.window.min(self.live.len());
        let lo = self.live[self.live.len() - w];
        let hi = *self.live.back().expect("non-empty");
        let sum = self
            .live
            .iter()
            .skip(self.live.len() - w)
            .fold(0u64, |a, &k| a.wrapping_add(k));
        vec![
            Req::Burst { ops, acks },
            Req::Contains { keys, expect },
            Req::RangeSum {
                lo,
                hi,
                keys: w as u64,
                sum,
            },
        ]
    }
}
