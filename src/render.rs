//! The CLI's output, as strings: what `replipred` prints for each report
//! type, built here so the binary only parses flags and prints, and the
//! text is testable in-process (`tests/cli_text.rs` pins it against
//! goldens captured from the binary).

use std::fmt::{self, Write as _};

use replipred_core::planner::Plan;
use replipred_core::WorkloadProfile;
use replipred_repl::TransientReport;

use crate::scenario::{ReplicationSummary, ScenarioReport};
use crate::validate::ValidationReport;

/// Collects what `render` writes; writing to a `String` cannot fail.
fn text(render: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = String::new();
    render(&mut out).expect("writing to a String cannot fail");
    out
}

/// One printed row of a curve table: `(N, tput, resp, abort, bottleneck,
/// utilization)`.
type CurveRow<'a> = (usize, f64, f64, f64, &'a str, f64);

fn table<'a>(
    out: &mut String,
    title: String,
    rows: impl Iterator<Item = CurveRow<'a>>,
) -> fmt::Result {
    writeln!(out, "# {title}")?;
    out.push_str("  N   tput (tps)    resp (ms)    abort %         bottleneck\n");
    for (n, tput, resp, abort, bottleneck, util) in rows {
        writeln!(
            out,
            "{n:>3} {tput:>12.1} {:>12.1} {:>10.3} {bottleneck:>12} ({:.0}%)",
            resp * 1e3,
            abort * 1e2,
            util * 1e2
        )?;
    }
    Ok(())
}

fn ci_table(out: &mut String, title: String, rows: &[ReplicationSummary]) -> fmt::Result {
    writeln!(out, "# {title}")?;
    out.push_str("  N   tput (tps)         +-    resp (ms)         +-   abort %        +-\n");
    for r in rows {
        writeln!(
            out,
            "{:>3} {:>12.1} {:>10.1} {:>12.1} {:>10.1} {:>9.3} {:>9.3}",
            r.replicas,
            r.throughput_tps,
            r.throughput_ci95,
            r.response_time * 1e3,
            r.response_ci95 * 1e3,
            r.abort_rate * 1e2,
            r.abort_ci95 * 1e2
        )?;
    }
    Ok(())
}

/// One run's transient section: the windowed time series, the per-phase
/// aggregates, the applied events, and the headline recovery/SLO/abort
/// metrics.
fn transient(out: &mut String, title: String, t: &TransientReport) -> fmt::Result {
    writeln!(out, "# {title} ({:.0} s windows)", t.window)?;
    out.push_str("   from      to   tput (tps)    resp (ms)    abort %\n");
    for w in &t.windows {
        writeln!(
            out,
            "{:>7.0} {:>7.0} {:>12.1} {:>12.1} {:>10.3}",
            w.start,
            w.end,
            w.throughput_tps,
            w.response_time * 1e3,
            w.abort_rate * 1e2
        )?;
    }
    if !t.phases.is_empty() {
        out.push_str("# phases\n");
        for p in &t.phases {
            writeln!(
                out,
                "{:>20} [{:>5.0} s, {:>5.0} s) {:>10.1} tps {:>9.1} ms {:>8.3}%",
                p.name,
                p.start,
                p.end,
                p.throughput_tps,
                p.response_time * 1e3,
                p.abort_rate * 1e2
            )?;
        }
    }
    for e in &t.events {
        writeln!(out, "event @ {:>6.1} s   {}", e.at, e.event)?;
    }
    let recovery = match t.recovery_time {
        Some(r) => format!("{r:.1} s after the first event"),
        None => "- (no event, or not recovered in-run)".to_string(),
    };
    writeln!(
        out,
        "baseline        {:.1} tps (pre-event windows)\n\
         recovery        {recovery}\n\
         slo violation   {:.1} s above {:.0} ms\n\
         peak abort      {:.3}%",
        t.baseline_tps,
        t.slo_violation_secs,
        t.slo_response * 1e3,
        t.peak_abort_rate * 1e2
    )
}

/// The `predict` / `sweep` text: per design, the model curve, the
/// simulated curve, the seed-replication CI table and any transient
/// sections — whichever of them the report carries.
pub fn curves(report: &ScenarioReport) -> String {
    text(|out| {
        for d in &report.designs {
            if let Some(curve) = &d.predicted {
                let rows = curve.points.iter().map(|p| {
                    (
                        p.replicas,
                        p.throughput_tps,
                        p.response_time,
                        p.abort_rate,
                        p.bottleneck.as_str(),
                        p.bottleneck_utilization,
                    )
                });
                table(out, format!("design {} (model)", d.design), rows)?;
            }
            if !d.measured.is_empty() {
                let rows = d.measured.iter().map(|r| {
                    (
                        r.replicas,
                        r.throughput_tps,
                        r.response_time,
                        r.abort_rate,
                        r.bottleneck.as_str(),
                        r.max_utilization,
                    )
                });
                table(out, format!("design {} (simulated)", d.design), rows)?;
            }
            if !d.replicated.is_empty() {
                let title = format!(
                    "design {} (simulated, {} seeds, mean +- 95% CI)",
                    d.design, report.seeds
                );
                ci_table(out, title, &d.replicated)?;
            }
            for r in &d.measured {
                if let Some(t) = &r.transient {
                    let title = format!("design {} N={} transient", d.design, r.replicas);
                    transient(out, title, t)?;
                }
            }
        }
        Ok(())
    })
}

/// The `simulate` text — every measured point as a key/value block — or,
/// with `phased`, the `phases` text: the block cut down to the whole-run
/// throughput, then the transient section.
pub fn points(report: &ScenarioReport, phased: bool) -> String {
    text(|out| {
        for d in &report.designs {
            for r in &d.measured {
                writeln!(
                    out,
                    "design          {}\nworkload        {}\nreplicas        {} ({} clients)",
                    d.design, r.workload, r.replicas, r.clients
                )?;
                let tps = r.throughput_tps;
                if phased {
                    writeln!(out, "throughput      {tps:.1} tps (whole-run mean)")?;
                } else {
                    writeln!(out, "throughput      {tps:.1} tps")?;
                    writeln!(out, "response        {:.1} ms", r.response_time * 1e3)?;
                    writeln!(out, "abort rate      {:.3}%", r.abort_rate * 1e2)?;
                    writeln!(
                        out,
                        "bottleneck      {} ({:.0}%)",
                        r.bottleneck,
                        r.max_utilization * 1e2
                    )?;
                    writeln!(
                        out,
                        "writesets       {} applied, {:.0} B mean",
                        r.writesets_applied, r.mean_writeset_bytes
                    )?;
                }
                match &r.transient {
                    Some(t) => transient(out, "transient".to_string(), t)?,
                    None if phased => writeln!(out, "(schedule disabled: no transient section)")?,
                    None => {}
                }
            }
        }
        Ok(())
    })
}

/// The `validate` text: one error table per workload, then the
/// per-design summary.
pub fn validation(report: &ValidationReport) -> String {
    text(|out| {
        writeln!(
            out,
            "# validate: prediction vs simulation (seed {}, {} seed replication{})",
            report.seed,
            report.seeds,
            if report.seeds == 1 { "" } else { "s" }
        )?;
        for w in &report.workloads {
            writeln!(out, "\n# {} (C = {})", w.workload, w.clients_per_replica)?;
            out.push_str(
                "    design   N     sim tps   model tps    err%      \
                 sim ms    model ms    err%  sim ab%   model%    err%\n",
            );
            for c in &w.cells {
                writeln!(
                    out,
                    "{:>10} {:>3} {:>11.1} {:>11.1} {:>6.1}% {:>11.1} {:>11.1} {:>6.1}% {:>8.3} {:>8.3} {:>6.1}%",
                    c.design.key(),
                    c.replicas,
                    c.measured_throughput_tps,
                    c.predicted_throughput_tps,
                    100.0 * c.throughput_error,
                    c.measured_response_time * 1e3,
                    c.predicted_response_time * 1e3,
                    100.0 * c.response_error,
                    c.measured_abort_rate * 1e2,
                    c.predicted_abort_rate * 1e2,
                    100.0 * c.abort_error,
                )?;
            }
        }
        writeln!(
            out,
            "\n# per-design error summary (mean / max over each design's cells; {} workloads)",
            report.workloads.len()
        )?;
        out.push_str("    design  cells         tput err         resp err        abort err\n");
        for s in &report.summaries {
            writeln!(
                out,
                "{:>10} {:>6} {:>7.1}%/{:>6.1}% {:>7.1}%/{:>6.1}% {:>7.1}%/{:>6.1}%",
                s.design.key(),
                s.cells,
                100.0 * s.mean_throughput_error,
                100.0 * s.max_throughput_error,
                100.0 * s.mean_response_error,
                100.0 * s.max_response_error,
                100.0 * s.mean_abort_error,
                100.0 * s.max_abort_error,
            )?;
        }
        Ok(())
    })
}

/// The `plan` text: one line per recommendation, cheapest first, or the
/// verdict that nothing within `max_replicas` meets the SLO.
pub fn plans(plans: &[Plan], max_replicas: usize) -> String {
    if plans.is_empty() {
        return format!("SLO infeasible within {max_replicas} replicas\n");
    }
    let line = |p: &Plan| {
        format!(
            "{}: {} replicas -> {:.1} tps, {:.1} ms, abort {:.3}%\n",
            p.design,
            p.replicas,
            p.prediction.throughput_tps,
            p.prediction.response_time * 1e3,
            p.prediction.abort_rate * 1e2
        )
    };
    plans.iter().map(line).collect()
}

/// The `profile` text: the paper's Table-1 parameters of one workload.
pub fn profile(p: &WorkloadProfile) -> String {
    format!(
        "workload        {}\n\
         Pr / Pw         {:.1}% / {:.1}%\n\
         A1              {:.4}%\n\
         rc (cpu/disk)   {:.2} / {:.2} ms\n\
         wc (cpu/disk)   {:.2} / {:.2} ms\n\
         ws (cpu/disk)   {:.2} / {:.2} ms\n\
         L(1)            {:.1} ms\n\
         U               {:.2}\n",
        p.name,
        p.pr * 1e2,
        p.pw * 1e2,
        p.a1 * 1e2,
        p.cpu.read * 1e3,
        p.disk.read * 1e3,
        p.cpu.write * 1e3,
        p.disk.write * 1e3,
        p.cpu.writeset * 1e3,
        p.disk.writeset * 1e3,
        p.l1 * 1e3,
        p.update_ops
    )
}
