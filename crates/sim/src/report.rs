//! Plain-text table rendering for the experiment drivers.

/// A printable table: title, column headers, rows of cells.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table caption (e.g. `"Figure 6: normalized throughput"`).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (each the same arity as `columns`).
    pub rows: Vec<Vec<String>>,
    /// Footnotes printed after the body.
    pub notes: Vec<String>,
}

impl Table {
    /// Create an empty table.
    #[must_use]
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Append a footnote.
    pub fn note(&mut self, note: &str) {
        self.notes.push(note.to_owned());
    }

    /// Render as an aligned plain-text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                // Right-align numeric-looking cells, left-align labels.
                if cell.parse::<f64>().is_ok() || cell.ends_with('%') {
                    line.push_str(&format!("{cell:>w$}"));
                } else {
                    line.push_str(&format!("{cell:<w$}"));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.columns));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }
}

impl Table {
    /// Render as CSV (header row + data rows; RFC-4180 quoting).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let mut out = String::new();
        out.push_str(&self.columns.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Write the table as `<dir>/<slug>.csv`, deriving the slug from the
    /// title. Returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let slug: String = self
            .title
            .chars()
            .take_while(|c| *c != ':')
            .map(|c| if c.is_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
            .collect();
        let path = dir.join(format!("{slug}.csv"));
        std::fs::create_dir_all(dir)?;
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

// ---------------------------------------------------------------------------
// Structured (JSON) export.
// ---------------------------------------------------------------------------

/// Format an `f64` with a fixed six-decimal representation.
///
/// Fixed precision (rather than shortest-roundtrip) makes the byte
/// output a pure function of the value, which the sweep's determinism
/// test relies on; non-finite values become `null`.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_owned()
    }
}

fn json_hist(h: &dram_timing::stats::LatencyHist, scale_ns: f64, out: &mut String, indent: &str) {
    let q = |p: f64| json_f64(h.quantile(p) as f64 * scale_ns);
    out.push_str(&format!(
        "{{\n{indent}  \"count\": {},\n{indent}  \"mean_ns\": {},\n{indent}  \"p50_ns\": {},\n\
         {indent}  \"p95_ns\": {},\n{indent}  \"p99_ns\": {},\n{indent}  \"max_ns\": {}\n{indent}}}",
        h.count(),
        json_f64(h.mean() * scale_ns),
        q(0.50),
        q(0.95),
        q(0.99),
        json_f64(h.max() as f64 * scale_ns),
    ));
}

/// Serialize one run's metrics as a stable, hand-rolled JSON document
/// (schema `cwfmem.run.v1`; see DESIGN.md for the field reference).
///
/// No serde in this workspace — the build environment is offline — so
/// the writer is explicit. All floats use fixed six-decimal formatting,
/// making the output byte-identical for identical metrics regardless of
/// how the producing sweep was scheduled.
#[must_use]
pub fn to_json(m: &crate::metrics::RunMetrics) -> String {
    write_json(m, None, None, None)
}

/// [`to_json`] plus an additive `"kernel"` diagnostics object (kernel
/// name, memory-tick call count, skipped cycles, tick ratio). Everything
/// else — including the schema tag, which the addition does not break —
/// is byte-identical to [`to_json`] on the same metrics, keeping the two
/// kernels' metric documents directly diffable.
#[must_use]
pub fn to_json_diag(m: &crate::metrics::RunMetrics, k: &crate::system::KernelStats) -> String {
    write_json(m, Some(k), None, None)
}

/// [`to_json_diag`] plus the additive observer objects of the run that
/// collected them: `"verify"` (checked counts, violation total, the first
/// few violations rendered as strings) when `v` is given, and `"trace"`
/// (event counts, ring drops, latency-waterfall stage aggregates) when `t`
/// is. As with the `"kernel"` object, the additions leave every other
/// byte — including the schema tag — identical to [`to_json`] on the same
/// metrics.
#[must_use]
pub fn to_json_observed(
    m: &crate::metrics::RunMetrics,
    k: &crate::system::KernelStats,
    v: Option<&cwf_verify::VerifyReport>,
    t: Option<&crate::trace::TraceReport>,
) -> String {
    write_json(m, Some(k), v, t)
}

fn write_json(
    m: &crate::metrics::RunMetrics,
    kernel: Option<&crate::system::KernelStats>,
    verify: Option<&cwf_verify::VerifyReport>,
    trace: Option<&crate::trace::TraceReport>,
) -> String {
    use crate::metrics::CPU_HZ;
    use cwf_tracelog::json::escape;
    use dram_power::LpddrIo;

    let cpu_cycle_ns = 1e9 / CPU_HZ;
    let mut o = String::new();
    o.push_str("{\n");
    o.push_str("  \"schema\": \"cwfmem.run.v1\",\n");
    o.push_str(&format!("  \"bench\": \"{}\",\n", escape(&m.bench)));
    o.push_str(&format!("  \"mem\": \"{}\",\n", escape(&m.mem.label())));
    o.push_str(&format!("  \"cycles\": {},\n", m.cycles));
    o.push_str(&format!(
        "  \"insts_per_core\": [{}],\n",
        m.insts_per_core.iter().map(u64::to_string).collect::<Vec<_>>().join(", ")
    ));
    o.push_str(&format!("  \"ipc_total\": {},\n", json_f64(m.ipc_total())));
    o.push_str(&format!("  \"dram_reads\": {},\n", m.dram_reads));
    o.push_str(&format!("  \"dram_writes\": {},\n", m.dram_writes));
    o.push_str(&format!("  \"avg_cw_latency_ns\": {},\n", json_f64(m.avg_cw_latency_ns())));
    o.push_str("  \"cw_latency\": ");
    json_hist(&m.hier.cw_lat_hist, cpu_cycle_ns, &mut o, "  ");
    o.push_str(",\n");
    o.push_str(&format!("  \"avg_read_latency_ns\": {},\n", json_f64(m.avg_read_latency_ns())));
    o.push_str("  \"read_latency\": ");
    json_hist(&m.mem_stats.read_lat_hist(), 1.0, &mut o, "  ");
    o.push_str(",\n");
    o.push_str(&format!("  \"bus_utilization\": {},\n", json_f64(m.bus_utilization())));
    o.push_str(&format!("  \"row_hit_rate\": {},\n", json_f64(m.row_hit_rate())));
    o.push_str(&format!(
        "  \"dram_power_w\": {},\n",
        json_f64(m.dram_power_w(LpddrIo::ServerAdapted))
    ));
    o.push_str(&format!(
        "  \"critical_word_hist\": [{}],\n",
        m.hier.critical_word_hist.iter().map(u64::to_string).collect::<Vec<_>>().join(", ")
    ));
    match &m.cwf {
        Some(c) => o.push_str(&format!(
            "  \"cwf\": {{ \"served_fast_fraction\": {}, \"avg_head_start_cycles\": {}, \
             \"parity_errors\": {} }},\n",
            json_f64(c.served_fast_fraction()),
            json_f64(c.avg_head_start()),
            c.parity_errors
        )),
        None => o.push_str("  \"cwf\": null,\n"),
    }
    if let Some(k) = kernel {
        o.push_str(&format!(
            "  \"kernel\": {{ \"name\": \"{}\", \"mem_tick_calls\": {}, \
             \"cycles_skipped\": {}, \"tick_ratio\": {}, \"core_ticks\": {}, \
             \"core_stall_cycles\": {}, \"core_wait_cycles\": {}, \
             \"core_cruise_cycles\": {}, \"core_replay_cycles\": {}, \
             \"core_tick_ratio\": {} }},\n",
            k.kernel.name(),
            k.mem_tick_calls,
            k.cycles_skipped,
            json_f64(k.tick_ratio()),
            k.core_ticks,
            k.core_stall_cycles,
            k.core_wait_cycles,
            k.core_cruise_cycles,
            k.core_replay_cycles,
            json_f64(k.core_tick_ratio())
        ));
    }
    if let Some(v) = verify {
        o.push_str(&format!(
            "  \"verify\": {{\n    \"clean\": {},\n    \"commands_checked\": {},\n    \
             \"events_checked\": {},\n    \"fills_completed\": {},\n    \
             \"core_spans\": {},\n    \"core_span_cycles\": {},\n    \
             \"total_violations\": {},\n    \"violations\": [",
            v.is_clean(),
            v.commands_checked,
            v.events_checked,
            v.fills_completed,
            v.core_spans,
            v.core_span_cycles,
            v.total_violations,
        ));
        // A handful of rendered violations is enough to localise a bug;
        // the full list lives in the VerifyReport.
        for (i, viol) in v.violations.iter().take(16).enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!("\n      \"{}\"", escape(&viol.to_string())));
        }
        if !v.violations.is_empty() {
            o.push_str("\n    ");
        }
        o.push_str("]\n  },\n");
    }
    if let Some(t) = trace {
        o.push_str("  \"trace\": ");
        o.push_str(&t.to_json_object("  "));
        o.push_str(",\n");
    }
    o.push_str("  \"channels\": [");
    for (ci, c) in m.mem_stats.controllers.iter().enumerate() {
        if ci > 0 {
            o.push(',');
        }
        o.push_str("\n    {\n");
        o.push_str(&format!("      \"label\": \"{}\",\n", escape(&c.label)));
        o.push_str(&format!("      \"kind\": \"{}\",\n", format!("{:?}", c.kind).to_lowercase()));
        o.push_str(&format!("      \"mem_cycles\": {},\n", c.mem_cycles));
        o.push_str(&format!("      \"reads\": {},\n", c.channel.reads));
        o.push_str(&format!("      \"writes\": {},\n", c.channel.writes));
        o.push_str(&format!("      \"activates\": {},\n", c.channel.activates));
        o.push_str(&format!("      \"precharges\": {},\n", c.channel.precharges));
        o.push_str(&format!("      \"refreshes\": {},\n", c.channel.refreshes));
        o.push_str(&format!("      \"row_hits\": {},\n", c.channel.row_hits));
        o.push_str(&format!("      \"row_misses\": {},\n", c.channel.row_misses));
        o.push_str(&format!("      \"row_conflicts\": {},\n", c.channel.row_conflicts));
        o.push_str("      \"read_latency\": ");
        json_hist(&c.read_lat_hist, 1.0, &mut o, "      ");
        o.push_str(",\n");
        // Only banks that saw traffic: keeps RLDRAM3's 16-bank arrays
        // from padding every DDR3 document with zeros.
        o.push_str("      \"banks\": [");
        let mut first = true;
        for (bi, b) in c.channel.per_bank.iter().enumerate() {
            if b.activates == 0 && b.reads == 0 && b.writes == 0 {
                continue;
            }
            if !first {
                o.push(',');
            }
            first = false;
            o.push_str(&format!(
                "\n        {{ \"bank\": {bi}, \"activates\": {}, \"reads\": {}, \
                 \"writes\": {} }}",
                b.activates, b.reads, b.writes
            ));
        }
        if !first {
            o.push_str("\n      ");
        }
        o.push_str("]\n    }");
    }
    if !m.mem_stats.controllers.is_empty() {
        o.push_str("\n  ");
    }
    o.push_str("]\n}\n");
    o
}

/// Format a ratio as a signed percentage delta (e.g. `+12.9%`).
#[must_use]
pub fn pct_delta(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

/// Format a fraction as a percentage (e.g. `67.2%`).
#[must_use]
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_and_includes_everything() {
        let mut t = Table::new("Demo", &["bench", "value"]);
        t.row(vec!["stream".into(), "1.31".into()]);
        t.row(vec!["mcf".into(), "0.99".into()]);
        t.note("numbers are ratios");
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("stream"));
        assert!(s.contains("note: numbers are ratios"));
        // Aligned: both value cells end at the same column.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_is_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn csv_rendering_quotes_and_escapes() {
        let mut t = Table::new("Figure 6: demo, with comma", &["bench", "x"]);
        t.row(vec!["a,b".into(), "1.5".into()]);
        t.row(vec!["plain".into(), "2".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("\"a,b\""));
        assert!(csv.starts_with("bench,x"));
    }

    #[test]
    fn csv_file_roundtrip() {
        let dir = std::env::temp_dir().join("cwfmem_csv_test");
        let mut t = Table::new("Figure 9: placement", &["a"]);
        t.row(vec!["1".into()]);
        let path = t.write_csv(&dir).expect("write");
        assert!(path.file_name().unwrap().to_str().unwrap().starts_with("figure_9"));
        let body = std::fs::read_to_string(path).expect("read");
        assert_eq!(body, "a\n1\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn percentage_helpers() {
        assert_eq!(pct_delta(1.129), "+12.9%");
        assert_eq!(pct_delta(0.91), "-9.0%");
        assert_eq!(pct(0.672), "67.2%");
    }
}
