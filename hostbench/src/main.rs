//! `hostbench` — run one workload and print its result.
//!
//! ```text
//! hostbench --workload NAME --seed N --seconds S --trace 0|1
//! hostbench --compare OLD.json NEW.json
//! ```
//!
//! `--trace 0` repeats untraced passes on one thread for about `S` seconds
//! and reports the end-to-end metrics (medians over passes, rescaled to the
//! host's nominal memory speed). `--trace 1` makes one untraced pass, one
//! pass with host-time spans, the microloops of the layers the workload
//! uses, and reports the per-layer metrics. Either way the last line of
//! standard output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`, and a record of the run (host identity, metrics,
//! spans) is written under `out/` in this directory. `--compare` diffs two such records, and refuses when they
//! come from different hosts or calibrations.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use dc_trace::json::{parse, JsonValue, JsonWriter};
use hostbench::host::{self, CountingAlloc, Identity, Reference};
use hostbench::workloads::{services_farm, Workload};
use hostbench::{check, median, micro, run_pass, spans, Ctx, Meter, Pass};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Passes an end-to-end run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let name = get("--workload")?;
    let args = Args {
        workload: Workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
        },
    };
    if kv.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    Ok(args)
}

/// A metric as measured, with its unit.
struct Metric {
    value: f64,
    unit: &'static str,
}

/// What a run found out.
struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
    spans: Vec<spans::Span>,
    /// Each pass's measured wall time, s.
    passes: Vec<f64>,
    /// Reference-loop times around the passes, s.
    references: Vec<f64>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            spans: Vec::new(),
            passes: Vec::new(),
            references: Vec::new(),
        }
    }

    /// Account a pass: its ops are attempted, and all of them failed when
    /// its output check found anything wrong.
    fn account(&mut self, w: Workload, ctx: &Ctx, pass: &Pass, first: Option<&Pass>) {
        let found = check::problems(w, ctx, pass, first);
        self.attempted += pass.meter.ops;
        if !found.is_empty() {
            self.failed += pass.meter.ops;
        }
        self.problems.extend(found);
        self.passes.push(pass.wall_ns as f64 / 1e9);
    }

    fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics
            .insert(name.to_string(), Metric { value, unit });
    }
}

/// Untraced passes for about `seconds` (`ctx` holds 1 shard, so every pass
/// runs on the measuring thread); medians of wall and setup time.
///
/// On a shared host, neighbours' memory traffic moves a single-threaded
/// pass by ±20% from one minute to the next. Each pass is therefore
/// rescaled to the host's nominal memory speed, by the workload's reference
/// loop timed just before and just after it: `wall × nominal / reference`.
/// The reference table stays resident, and `peak_rss_mb` leaves it out.
fn end_to_end(w: Workload, ctx: &Ctx, seconds: u64) -> Outcome {
    let mut out = Outcome::new();
    let t0 = Instant::now();
    let mut first: Option<Pass> = None;
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let mut reference = Reference::new(w.reference());
    out.references.push(reference.time_s());
    while out.passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds as f64 {
        let pass = run_pass(w, ctx);
        out.references.push(reference.time_s());
        out.account(w, ctx, &pass, first.as_ref());
        let r = &out.references[out.references.len() - 2..];
        let scale = reference.scale((r[0] + r[1]) / 2.0);
        walls.push(pass.wall_ns as f64 / 1e9 * scale);
        setups.push(pass.meter.setup_ns as f64 / 1e9 * scale);
        if first.is_none() {
            first = Some(pass);
        }
    }
    out.set("wall_s", median(&walls), "s");
    out.set("setup_s", median(&setups), "s");
    let table_mb = reference.bytes() as f64 / (1 << 20) as f64;
    out.set("peak_rss_mb", host::peak_rss_mb() - table_mb, "MiB");
    out
}

/// Which microloops measure layers `w` uses.
fn microloops(w: Workload) -> Vec<(String, f64)> {
    let mut v = micro::sim();
    match w {
        Workload::WebfarmOpen => v.extend(micro::workloads_trace()),
        Workload::RpcIncast => v.extend(micro::fabric()),
        Workload::Primitives => {
            v.extend(micro::fabric());
            v.extend(micro::svc());
            v.extend(micro::ddss());
            v.extend(micro::dlm());
        }
        Workload::ServicesFarm => {
            v.extend(micro::fabric());
            v.extend(micro::svc());
        }
    }
    v
}

/// One untraced pass for the per-layer costs, one traced pass for spans
/// and tracing overhead, the microloops, and workload extras (1-shard
/// speedup and 1 ≡ 2 shards for `webfarm_open`, fabric verb counts for
/// `services_farm`).
fn traced(w: Workload, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let plain = run_pass(w, ctx);
    out.account(w, ctx, &plain, None);

    spans::enable();
    let traced = run_pass(w, ctx);
    out.account(w, ctx, &traced, Some(&plain));
    let mut extra = Meter::default();
    let micro = spans::span("microloops", || microloops(w));
    match w {
        Workload::WebfarmOpen if ctx.shards > 1 => {
            let one = spans::span("one_shard", || run_pass(w, &Ctx { shards: 1, ..*ctx }));
            if one.meter.digest != plain.meter.digest {
                out.problems
                    .push("webfarm_open: 1 shard and 2 shards gave different results".into());
            }
            out.account(w, ctx, &one, Some(&plain));
            extra.add(
                "sim.shard.speedup",
                one.wall_ns as f64 / plain.wall_ns as f64,
            );
        }
        Workload::WebfarmOpen => extra.add("sim.shard.speedup", 1.0),
        Workload::ServicesFarm => spans::span("fabric_counts", || {
            services_farm::fig6_fabric_counts(ctx, &mut extra)
        }),
        _ => {}
    }
    out.spans = spans::take();

    let declared = hostbench::per_layer_metrics();
    let mut values: BTreeMap<&str, f64> = declared.iter().map(|(n, _)| (n.as_str(), 0.0)).collect();
    let c = plain.counters;
    let setup = plain.meter.setup_allocs;
    let steady = plain.steady_allocs();
    let root_self_ns = spans::self_times(&out.spans)
        .first()
        .copied()
        .unwrap_or_default();
    let readings = plain
        .meter
        .layers
        .iter()
        .chain(&extra.layers)
        .map(|(k, v)| (k.clone(), *v))
        .chain(micro)
        .chain([
            ("sim.events".to_string(), c.events as f64),
            ("sim.polls".to_string(), c.polls as f64),
            ("sim.timers_fired".to_string(), c.timers_fired as f64),
            (
                "sim.host_ns_per_event".to_string(),
                plain.wall_ns as f64 / plain.sim_events().max(1) as f64,
            ),
            ("host.allocs.setup".to_string(), setup.count as f64),
            ("host.allocs.steady".to_string(), steady.count as f64),
            ("host.alloc_bytes.setup".to_string(), setup.bytes as f64),
            ("host.alloc_bytes.steady".to_string(), steady.bytes as f64),
            ("host.uncovered_ms".to_string(), root_self_ns as f64 / 1e6),
            (
                "trace.overhead_pct".to_string(),
                (traced.wall_ns as f64 / plain.wall_ns as f64 - 1.0) * 100.0,
            ),
        ]);
    for (k, v) in readings {
        match values.get_mut(k.as_str()) {
            Some(slot) => *slot = v,
            None => out
                .problems
                .push(format!("reading {k} is not a declared per-layer metric")),
        }
    }
    for (n, unit) in &declared {
        out.set(n, values[n.as_str()], unit);
    }
    out
}

fn identity_json(w: &mut JsonWriter, id: &Identity) {
    w.begin_object();
    w.key("cpu_model").string(&id.cpu_model);
    w.key("nproc").u64(id.nproc as u64);
    w.key("shards").u64(id.shards as u64);
    w.key("fingerprint").string(&id.fingerprint);
    w.end_object();
}

/// The run's record: identity, outcome and spans.
fn record(args: &Args, id: &Identity, out: &Outcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("workload").string(args.workload.name());
    w.key("seed").u64(args.seed);
    w.key("trace").bool(args.trace);
    w.key("host");
    identity_json(&mut w, id);
    w.key("correct").bool(out.problems.is_empty());
    w.key("problems").begin_array();
    for p in &out.problems {
        w.string(p);
    }
    w.end_array();
    for (key, list) in [
        ("pass_wall_s", &out.passes),
        ("reference_s", &out.references),
    ] {
        w.key(key).begin_array();
        for v in list {
            w.f64(*v);
        }
        w.end_array();
    }
    w.key("metrics").begin_object();
    for (k, m) in &out.metrics {
        w.key(k).f64(m.value);
    }
    w.end_object();
    w.key("spans").raw(&spans::to_json(&out.spans));
    w.end_object();
    w.finish()
}

/// The driver-facing last line.
fn result_line(out: &Outcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct").bool(out.problems.is_empty());
    w.key("attempted").u64(out.attempted);
    w.key("failed").u64(out.failed);
    w.key("metrics").begin_object();
    for (k, m) in &out.metrics {
        w.key(k).begin_object();
        w.key("value").f64(m.value);
        w.key("unit").string(m.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

fn run(args: Args) -> ExitCode {
    let mut id = Identity::current();
    // End-to-end passes run on the measuring thread alone: on a host of a
    // few shared cores, a second shard thread measures the scheduler more
    // than the program. The traced run still runs 2 shards against 1.
    if !args.trace {
        id.shards = 1;
    }
    let ctx = Ctx {
        seed: args.seed,
        shards: id.shards,
    };
    println!(
        "hostbench {} seed {} on {:?}, {} cpus, {} shards, {}",
        args.workload.name(),
        args.seed,
        id.cpu_model,
        id.nproc,
        id.shards,
        id.fingerprint
    );
    let out = if args.trace {
        traced(args.workload, &ctx)
    } else {
        end_to_end(args.workload, &ctx, args.seconds)
    };
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("passes (s): {:?}", out.passes);
    if args.trace {
        println!("span self time by name (top 15):");
        for (name, ns, n) in spans::self_by_name(&out.spans).into_iter().take(15) {
            println!("  {:>12.3} ms  {n:>5}x  {name}", ns as f64 / 1e6);
        }
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!(
        "{}.seed{}.trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, record(&args, &id, &out)))
    {
        eprintln!("could not write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    println!("record: {}", file.display());
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}

/// Compare two run records metric by metric; refuse across hosts or
/// calibrations.
fn compare(old: &str, new: &str) -> Result<(), String> {
    let load = |p: &str| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        parse(&text).map_err(|(off, msg)| format!("{p}: invalid JSON at byte {off}: {msg}"))
    };
    let (a, b) = (load(old)?, load(new)?);
    if a.get("host").is_none() || a.get("host") != b.get("host") {
        return Err(format!(
            "refusing to compare runs from different hosts or calibrations: {:?} vs {:?}",
            a.get("host"),
            b.get("host")
        ));
    }
    for k in ["workload", "trace"] {
        if a.get(k) != b.get(k) {
            return Err(format!("refusing to compare runs with different {k}"));
        }
    }
    let metrics = |d: &JsonValue| -> Vec<(String, f64)> {
        d.get("metrics")
            .and_then(JsonValue::as_obj)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f)))
            .collect()
    };
    let old_m = metrics(&a);
    println!(
        "{:<48} {:>16} {:>16} {:>9}",
        "metric", "old", "new", "delta"
    );
    for (k, nv) in metrics(&b) {
        match old_m.iter().find(|(ok, _)| *ok == k) {
            Some((_, ov)) if *ov != 0.0 => println!(
                "{k:<48} {ov:>16.4} {nv:>16.4} {:>+8.1}%",
                (nv - ov) / ov * 100.0
            ),
            Some((_, ov)) => println!("{k:<48} {ov:>16.4} {nv:>16.4} {:>9}", "-"),
            None => println!("{k:<48} {:>16} {nv:>16.4} {:>9}", "(new)", "-"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, old, new] => match compare(old, new) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("hostbench: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("usage: hostbench --compare OLD.json NEW.json");
                ExitCode::from(2)
            }
        };
    }
    match parse_args(&argv) {
        Ok(args) => run(args),
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!("usage: hostbench --workload NAME --seed N --seconds S --trace 0|1");
            ExitCode::from(2)
        }
    }
}
