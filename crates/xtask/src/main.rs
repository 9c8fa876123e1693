//! Workspace automation. Currently one subcommand:
//!
//! ```text
//! cargo xtask lint
//! ```
//!
//! Runs the `wsq-analyze` static analyses and enforces two gates
//! (both run in CI), then writes a machine-readable `lint_report.json`
//! at the repo root (uploaded as a CI artifact):
//!
//! 1. **Panic-site budget**: `.unwrap()` / `.expect(` in non-test code
//!    of `crates/engine` and `crates/pump` is compared per file against
//!    `crates/xtask/panic-allowlist.txt`. New sites fail; the allowlist
//!    may only shrink (a stale, too-generous entry also fails, so the
//!    burn-down count stays honest).
//! 2. **Resource bounds** (`wsq_analyze::verify_bounds`): a
//!    representative capped plan family is asyncified and its symbolic
//!    peaks proven ≤ the stamped caps; the bounds land in the report.
//!
//! Lock order and guards held across a call out are checked at run
//! time instead, by the lock shim in every debug build (DESIGN.md §13).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use wsq_analyze::lint::{scan_dir, FileLint};
use wsq_analyze::{verify_bounds, Bound, Bounds};
use wsq_common::{Column, DataType, Schema};
use wsq_engine::asyncify::asyncify_with_opts;
use wsq_engine::plan::{
    BufferMode, EvBinding, EvSpec, PhysPlan, PlacementStrategy, PrefetchHint, VTableKind,
};
use wsq_sql::ast::ColumnRef;

/// Crates whose panic sites are budgeted by the allowlist.
const PANIC_BUDGET_DIRS: &[&str] = &["crates/engine/src", "crates/pump/src"];

const PANIC_ALLOWLIST: &str = "crates/xtask/panic-allowlist.txt";
const REPORT: &str = "lint_report.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some(other) => {
            eprintln!("unknown xtask `{other}`; available: lint");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask lint");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: two levels up from this crate's manifest.
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .unwrap_or(&manifest)
        .to_path_buf()
}

fn lint() -> ExitCode {
    let root = repo_root();
    let mut errors: Vec<String> = Vec::new();

    // Pass 1: panic-site budget over engine + pump.
    let allowlist = match load_allowlist(&root.join(PANIC_ALLOWLIST)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: cannot read {PANIC_ALLOWLIST}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut budgeted: Vec<FileLint> = Vec::new();
    for dir in PANIC_BUDGET_DIRS {
        match scan_dir(&root.join(dir), &root) {
            Ok(mut files) => budgeted.append(&mut files),
            Err(e) => errors.push(format!("scanning {dir}: {e}")),
        }
    }
    let mut total = 0usize;
    for f in &budgeted {
        let actual = f.panic_sites();
        total += actual;
        let allowed = allowlist
            .iter()
            .find(|(p, _)| p == &f.path)
            .map(|&(_, n)| n)
            .unwrap_or(0);
        if actual > allowed {
            errors.push(format!(
                "{}: {} panic site(s) ({} unwrap, {} expect) but only {} allowed \
                 — convert to typed WsqError instead of raising the budget",
                f.path, actual, f.unwraps, f.expects, allowed
            ));
        } else if actual < allowed {
            errors.push(format!(
                "{}: allowlist grants {} panic site(s) but only {} remain \
                 — ratchet {} down so the budget cannot regrow",
                f.path, allowed, actual, PANIC_ALLOWLIST
            ));
        }
    }
    for (p, n) in &allowlist {
        if *n > 0 && !budgeted.iter().any(|f| &f.path == p) {
            errors.push(format!(
                "{PANIC_ALLOWLIST} lists `{p}` ({n} site(s)) but no such file was scanned"
            ));
        }
    }

    // Pass 2: static resource bounds over a representative capped plan
    // family (the proptest corpus in tests/equivalence.rs covers the
    // random sweep; this keeps the proven peaks visible per lint run).
    let mut bound_rows: Vec<(String, Bounds, usize, bool)> = Vec::new();
    for (name, cap) in [("fanout", 8usize), ("nested", 4)] {
        let plan = representative_plan(name);
        let stamped = asyncify_with_opts(
            plan,
            PlacementStrategy::Full,
            BufferMode,
            Some(cap),
            PrefetchHint::default(),
        );
        match verify_bounds(&stamped, Some(cap)) {
            Ok(b) => {
                let ok = b.peak_buffered.le(Bound::Finite(cap as u64));
                if !ok {
                    errors.push(format!(
                        "resource bounds: plan '{name}' peak buffered {} above cap {cap}",
                        b.peak_buffered
                    ));
                }
                bound_rows.push((name.to_string(), b, cap, ok));
            }
            Err(e) => errors.push(format!("resource bounds: plan '{name}' rejected: {e}")),
        }
    }

    // Machine-readable report (consumed by CI as an artifact).
    let report = render_report(total, &budgeted, &bound_rows, &errors);
    if let Err(e) = std::fs::write(root.join(REPORT), report) {
        eprintln!("error: cannot write {REPORT}: {e}");
        return ExitCode::FAILURE;
    }

    if errors.is_empty() {
        let budget: usize = allowlist.iter().map(|&(_, n)| n).sum();
        println!(
            "xtask lint: ok — {total} panic site(s) within budget {budget}, \
             resource bounds proven for {} plan(s); report written to {REPORT}",
            bound_rows.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {} error(s)", errors.len());
        for e in &errors {
            eprintln!("  - {e}");
        }
        ExitCode::FAILURE
    }
}

/// A small capped plan family for the resource-bounds report: the
/// paper's 50-state fan-out shape, and a two-table nested dependent
/// join.
fn representative_plan(name: &str) -> PhysPlan {
    let states = PhysPlan::SeqScan {
        table: "States".into(),
        alias: "States".into(),
        schema: Schema::new(vec![
            Column::qualified("States", "Name", DataType::Varchar),
            Column::qualified("States", "Population", DataType::Int),
        ]),
    };
    let spec = |alias: &str, kind| {
        let name = EvBinding::Column(ColumnRef {
            qualifier: Some("States".into()),
            name: "Name".into(),
        });
        let mut spec = EvSpec::new(kind, "AV", alias, vec![name], true);
        spec.rank_limit = 3;
        std::sync::Arc::new(spec)
    };
    match name {
        "nested" => PhysPlan::DependentJoin {
            left: Box::new(PhysPlan::DependentJoin {
                left: Box::new(states),
                right: Box::new(PhysPlan::EVScan(spec("V1", VTableKind::WebCount))),
            }),
            right: Box::new(PhysPlan::EVScan(spec("V2", VTableKind::WebPages))),
        },
        _ => PhysPlan::DependentJoin {
            left: Box::new(states),
            right: Box::new(PhysPlan::EVScan(spec("V1", VTableKind::WebCount))),
        },
    }
}

/// Hand-rolled JSON (the workspace has no serde; the shape is small and
/// stable). Strings are escaped minimally (quote, backslash, control).
fn render_report(
    panic_total: usize,
    budgeted: &[FileLint],
    bounds: &[(String, Bounds, usize, bool)],
    errors: &[String],
) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"panic_budget\": {\n");
    let _ = writeln!(s, "    \"total\": {panic_total},");
    s.push_str("    \"files\": [");
    for (i, f) in budgeted.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n      {{\"path\": {}, \"unwraps\": {}, \"expects\": {}}}",
            json_str(&f.path),
            f.unwraps,
            f.expects
        );
    }
    s.push_str("\n    ]\n  },\n  \"resource_bounds\": [");
    for (i, (name, b, cap, ok)) in bounds.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"plan\": {}, \"cap\": {cap}, \"peak_buffered\": {}, \
             \"within_cap\": {ok}}}",
            json_str(name),
            json_str(&b.peak_buffered.to_string())
        );
    }
    s.push_str("\n  ],\n  \"errors\": [");
    for (i, e) in errors.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\n    {}", json_str(e));
    }
    s.push_str("\n  ]\n}\n");
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse an allowlist: one `key count` pair per line; `#` comments.
fn load_allowlist(path: &Path) -> Result<Vec<(String, usize)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(p), Some(n)) = (parts.next(), parts.next()) else {
            return Err(format!("line {}: expected `key count`", lineno + 1));
        };
        let n: usize = n
            .parse()
            .map_err(|e| format!("line {}: bad count: {e}", lineno + 1))?;
        out.push((p.to_string(), n));
    }
    Ok(out)
}
