//! # hostbench — what a figure costs in host time and memory
//!
//! The reproduction is a deterministic simulator, so every simulated
//! statistic repeats exactly; those statistics are this benchmark's
//! correctness check. Its metrics are the host resources a user pays to
//! get a figure: wall time, setup time, resident memory, allocations, and
//! the per-layer host cost of the engine, the fabric, the transports and
//! the services.
//!
//! The benchmark drives the program only from outside, through the public
//! functions of the `dc-*` crates and the per-cell runners of `dc-bench`.
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run it.

pub mod check;
pub mod host;
pub mod micro;
pub mod spans;
pub mod workloads;

use std::collections::BTreeMap;
use std::fmt::{Debug, Display};
use std::time::Instant;

use dc_sim::{thread_totals, SimCounters};
use dc_trace::BenchReport;

use host::Allocs;

/// The benchmark seed at which every workload runs its scenarios' committed
/// seeds, so its outputs must equal the committed baselines exactly.
pub const DEFAULT_SEED: u64 = 42;

/// A seed kept out of every tuning run, for checking later claims on
/// inputs nobody optimised against.
pub const HELD_OUT_SEED: u64 = 1009;

/// What one pass runs under.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// The benchmark's `--seed`.
    pub seed: u64,
    /// Engine shards for the sharded workload.
    pub shards: usize,
}

impl Ctx {
    /// Whether this is the default seed (outputs checked against baselines).
    pub fn is_default(&self) -> bool {
        self.seed == DEFAULT_SEED
    }

    /// The seed a scenario runs under: its committed seed at the default
    /// benchmark seed, otherwise one derived from both.
    pub fn seed_for(&self, committed: u64) -> u64 {
        if self.is_default() {
            committed
        } else {
            dc_sim::rng::derive_seed(self.seed, committed)
        }
    }
}

/// Collects what one pass learns besides its wall time: setup time and
/// allocations, simulated ops, the reports and digest its outputs are
/// checked by, problems found on the way, and per-layer readings.
#[derive(Default)]
pub struct Meter {
    /// Host ns spent building cells before their first simulated event.
    pub setup_ns: u64,
    /// Allocations made while building cells.
    pub setup_allocs: Allocs,
    /// Host ns, allocations and scheduler counters of setup probes: runs
    /// made only to time a runner's setup from outside, excluded from the
    /// pass's own wall time, allocations and events.
    probe_ns: u64,
    probe_allocs: Allocs,
    probe_counters: SimCounters,
    /// Simulated client operations issued and resolved.
    pub ops: u64,
    /// Bench reports to diff against the committed baselines.
    pub reports: Vec<BenchReport>,
    /// FNV-1a over every simulated output of the pass.
    pub digest: u64,
    /// Output problems found by the workload itself (conservation, data).
    pub problems: Vec<String>,
    /// Per-layer readings, summed when recorded more than once.
    pub layers: BTreeMap<String, f64>,
}

impl Meter {
    fn new() -> Meter {
        Meter {
            digest: 0xcbf2_9ce4_8422_2325,
            ..Meter::default()
        }
    }

    /// Build part of a cell inside the pass: time it and its allocations
    /// as setup.
    pub fn setup<T>(&mut self, name: impl Display, f: impl FnOnce() -> T) -> T {
        let a0 = Allocs::now();
        let t0 = Instant::now();
        let out = spans::span(name, f);
        self.setup_ns += t0.elapsed().as_nanos() as u64;
        self.setup_allocs = self.setup_allocs.plus(Allocs::since(a0));
        out
    }

    /// Time the setup of a cell whose runner builds and runs in one call,
    /// by running `f` — the same config with no simulated work — apart
    /// from the pass. Counts as setup; excluded from the pass's own wall
    /// time, allocations and events.
    pub fn probe<T>(&mut self, name: impl Display, f: impl FnOnce() -> T) {
        let c0 = thread_totals();
        let a0 = Allocs::now();
        let t0 = Instant::now();
        drop(spans::span(name, f));
        let ns = t0.elapsed().as_nanos() as u64;
        let allocs = Allocs::since(a0);
        self.setup_ns += ns;
        self.setup_allocs = self.setup_allocs.plus(allocs);
        self.probe_ns += ns;
        self.probe_allocs = self.probe_allocs.plus(allocs);
        self.probe_counters = add(self.probe_counters, minus(thread_totals(), c0));
    }

    /// Fold a simulated output into the pass digest.
    pub fn fold(&mut self, out: &impl Debug) {
        for b in format!("{out:?}").bytes() {
            self.digest ^= b as u64;
            self.digest = self.digest.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Record an output problem; the pass fails its check.
    pub fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    /// Add `v` to the per-layer reading `name`.
    pub fn add(&mut self, name: impl Into<String>, v: f64) {
        *self.layers.entry(name.into()).or_default() += v;
    }

    /// Raise the per-layer reading `name` to at least `v`.
    pub fn max(&mut self, name: impl Into<String>, v: f64) {
        let e = self.layers.entry(name.into()).or_insert(v);
        *e = e.max(v);
    }
}

/// One timed pass of a workload.
pub struct Pass {
    /// Host wall time of the pass, excluding setup probes.
    pub wall_ns: u64,
    /// Scheduler counters of the pass (measuring thread plus the shards
    /// `run_sharded` credits to it), excluding setup probes.
    pub counters: SimCounters,
    /// Allocations of the pass, excluding setup probes.
    pub allocs: Allocs,
    /// What the workload recorded.
    pub meter: Meter,
}

impl Pass {
    /// Allocations made outside setup.
    pub fn steady_allocs(&self) -> Allocs {
        self.allocs.minus(self.meter.setup_allocs)
    }

    /// Ready-queue events plus timers fired.
    pub fn sim_events(&self) -> u64 {
        self.counters.events + self.counters.timers_fired
    }
}

fn minus(a: SimCounters, b: SimCounters) -> SimCounters {
    SimCounters {
        polls: a.polls - b.polls,
        events: a.events - b.events,
        timers_fired: a.timers_fired - b.timers_fired,
        barrier_waits: a.barrier_waits - b.barrier_waits,
    }
}

fn add(a: SimCounters, b: SimCounters) -> SimCounters {
    SimCounters {
        polls: a.polls + b.polls,
        events: a.events + b.events,
        timers_fired: a.timers_fired + b.timers_fired,
        barrier_waits: a.barrier_waits + b.barrier_waits,
    }
}

/// Run one pass of `w` on this thread.
pub fn run_pass(w: workloads::Workload, ctx: &Ctx) -> Pass {
    let mut meter = Meter::new();
    let c0 = thread_totals();
    let a0 = Allocs::now();
    let t0 = Instant::now();
    spans::span(format_args!("workload.{}", w.name()), || {
        w.run(ctx, &mut meter)
    });
    let wall_ns = t0.elapsed().as_nanos() as u64 - meter.probe_ns;
    let allocs = Allocs::since(a0).minus(meter.probe_allocs);
    let counters = minus(minus(thread_totals(), c0), meter.probe_counters);
    Pass {
        wall_ns,
        counters,
        allocs,
        meter,
    }
}

/// Median of a non-empty sample (the mean of the middle two when even).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Every per-layer metric a traced run reports, with its unit, in report
/// order. A layer a workload does not use reads 0 there: the benchmark
/// predicts no change on that workload for a change to that layer.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    use dc_coopcache::CacheScheme;
    use dc_resmon::MonitorScheme;
    use workloads::{primitives, services_farm, webfarm_open};

    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |names: &[&str], unit: &'static str| {
        v.extend(names.iter().map(|n| (n.to_string(), unit)));
    };
    add(&["sim.events", "sim.polls", "sim.timers_fired"], "count");
    add(
        &[
            "sim.host_ns_per_event",
            "sim.spawn_poll_ns",
            "sim.timer_ns",
            "sim.notify_ns",
            "sim.semaphore_ns",
        ],
        "ns",
    );
    add(
        &["sim.shard.barrier_waits", "sim.shard.cross_sends"],
        "count",
    );
    add(&["sim.shard.speedup"], "x");
    let loads: Vec<String> = webfarm_open::LOADS
        .iter()
        .map(|x| format!("core.webfarm_scale.load_{x}.host_ns_per_request"))
        .collect();
    add(&loads.iter().map(String::as_str).collect::<Vec<_>>(), "ns");
    add(&["core.webfarm_scale.setup_s"], "s");
    add(&["core.webfarm_scale.shed"], "count");
    add(
        &[
            "workloads.zipf_ns",
            "workloads.arrival_next_ns.poisson",
            "workloads.arrival_next_ns.mmpp2",
            "trace.hist_record_ns",
            "fabric.cluster_new_ns",
            "fabric.register_ns_per_mib",
            "fabric.read_ns",
            "fabric.write_ns",
            "fabric.cas_ns",
            "fabric.faa_ns",
            "fabric.send_recv_ns",
        ],
        "ns",
    );
    add(
        &[
            "fabric.reads",
            "fabric.writes",
            "fabric.cas",
            "fabric.faa",
            "fabric.sends",
        ],
        "count",
    );
    add(&["fabric.bytes_moved"], "B");
    add(
        &[
            "fabric.retransmits",
            "fabric.credit_stalls",
            "fabric.qp_active",
        ],
        "count",
    );
    add(
        &[
            "sockets.erpc.host_ns_per_call",
            "sockets.sdp.host_ns_per_call",
            "sockets.azsdp.host_ns_per_call",
        ],
        "ns",
    );
    add(&["sockets.erpc.marks", "sockets.erpc.retx"], "count");
    add(&["svc.call_ns", "ddss.new_ns"], "ns");
    let mut ns = Vec::new();
    for op in ["put", "get"] {
        for model in dc_ddss::Coherence::FIG3A {
            ns.push(format!("ddss.{op}_ns.{}", model.label()));
        }
    }
    for d in dc_dlm::DesignKind::ALL {
        let key = primitives::design_key(d);
        ns.push(format!("dlm.{key}.host_ns_per_acquire"));
        ns.push(format!("dlm.{key}.uncontended_ns"));
    }
    for s in CacheScheme::ALL {
        ns.push(format!(
            "coopcache.{}.host_ns_per_request",
            services_farm::cache_key(s)
        ));
    }
    for s in std::iter::once(MonitorScheme::SocketAsync).chain(MonitorScheme::FIG8B) {
        ns.push(format!(
            "resmon.{}.host_ns_per_request",
            services_farm::monitor_key(s)
        ));
    }
    add(&ns.iter().map(String::as_str).collect::<Vec<_>>(), "ns");
    add(&["host.allocs.setup", "host.allocs.steady"], "count");
    add(&["host.alloc_bytes.setup", "host.alloc_bytes.steady"], "B");
    add(&["host.uncovered_ms"], "ms");
    add(&["trace.overhead_pct"], "%");
    v
}
