//! Output checks. The simulator is deterministic, so a pass's simulated
//! outputs either repeat exactly or something is wrong:
//!
//! * at the default seed, each report must equal its committed baseline at
//!   0% tolerance (`dc_regress::diff`), and the `webfarm_open` digest must
//!   equal the reference in `reference/webfarm_open.digest`;
//! * at any seed, every pass must produce the digest of the run's first
//!   pass, the workload's own checks (conservation, read-back) must hold,
//!   and the pass must count simulated events.

use dc_regress::{diff, LoadedReport, Tolerance};

use crate::workloads::Workload;
use crate::{Ctx, Pass};

/// The committed baseline of a scenario, compiled in from `baselines/`.
pub fn baseline(name: &str) -> Option<&'static str> {
    Some(match name {
        "ext_incast" => include_str!("../../baselines/ext_incast.json"),
        "fig3a_ddss_put" => include_str!("../../baselines/fig3a_ddss_put.json"),
        "ext_lock_shootout" => include_str!("../../baselines/ext_lock_shootout.json"),
        "fig6_coopcache" => include_str!("../../baselines/fig6_coopcache.json"),
        "fig8b_monitor_throughput" => {
            include_str!("../../baselines/fig8b_monitor_throughput.json")
        }
        _ => return None,
    })
}

/// The default-seed digest `webfarm_open` must reproduce.
pub fn webfarm_reference() -> u64 {
    let text = include_str!("../reference/webfarm_open.digest").trim();
    u64::from_str_radix(text, 16).expect("reference/webfarm_open.digest holds one hex u64")
}

/// Everything wrong with `pass`; empty when it passes. `first` is the
/// run's first pass, whose digest every later pass must repeat.
pub fn problems(w: Workload, ctx: &Ctx, pass: &Pass, first: Option<&Pass>) -> Vec<String> {
    let mut out = pass.meter.problems.clone();
    if pass.sim_events() == 0 {
        out.push("pass counted no simulated events".to_string());
    }
    if let Some(first) = first {
        if first.meter.digest != pass.meter.digest {
            out.push(format!(
                "outputs differ between passes: digest {:016x} then {:016x}",
                first.meter.digest, pass.meter.digest
            ));
        }
    }
    if ctx.is_default() {
        let names: Vec<&str> = pass.meter.reports.iter().map(|r| r.bench()).collect();
        if names != w.baselines() {
            out.push(format!("reports {names:?}, expected {:?}", w.baselines()));
        }
        for rep in &pass.meter.reports {
            out.extend(against_baseline(rep).err());
        }
        if w == Workload::WebfarmOpen && pass.meter.digest != webfarm_reference() {
            out.push(format!(
                "webfarm_open digest {:016x} != reference {:016x}",
                pass.meter.digest,
                webfarm_reference()
            ));
        }
    }
    out
}

/// Diff one report against its committed baseline at 0% tolerance.
pub fn against_baseline(rep: &dc_trace::BenchReport) -> Result<(), String> {
    let name = rep.bench();
    let text = baseline(name).ok_or_else(|| format!("no baseline for {name}"))?;
    let old: LoadedReport = text.parse().map_err(|e| format!("{name} baseline: {e}"))?;
    let new = LoadedReport::from_bench(rep);
    let d = diff(&old, &new, &Tolerance::pct(0.0)).map_err(|e| format!("{name}: {e}"))?;
    if d.regressions() == 0 && !d.cells.is_empty() {
        Ok(())
    } else {
        Err(d.render(false).trim_end().to_string())
    }
}
