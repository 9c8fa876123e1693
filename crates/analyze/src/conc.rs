//! Concurrency auditor: token-based static analysis of lock discipline.
//!
//! Subsumes (and replaces) the old line-based "lock across backend
//! call" lint with three machine-checked rules over the `engine`,
//! `pump`, `obs` and `websim` sources, run by `cargo xtask lint`:
//!
//! 1. **Blocking call under a live guard**
//!    ([`ConcRule::BlockingUnderGuard`]): no call from the configurable
//!    blocking set ([`AuditConfig::blocking`]; by default `execute`,
//!    `wait_any`, `thread::sleep`, `recv`, and zero-argument `join`)
//!    may happen while any lock guard is live.
//!    Guard tracking is token-based, so it survives idioms the old
//!    lexical pass admitted it could not see: guards bound across line
//!    breaks, `if let Ok(g) = m.lock()` / `while let` bindings, early
//!    `drop(g)`, shadowing, and guards returned from helper functions
//!    (any function whose return type mentions `…Guard`).
//! 2. **Condvar discipline** ([`ConcRule::NakedCondvarWait`]): every
//!    `.wait(&mut g)` / `.wait_timeout(&mut g, …)` / `.wait_until(&mut
//!    g, …)` must be lexically inside a `loop` / `while` / `for` body,
//!    so spurious wakeups re-check their predicate. (`wait_while` and
//!    friends loop internally and are exempt.)
//! 3. **Lock-acquisition-order cycles** ([`ConcRule::LockOrderCycle`]):
//!    an inter-procedural lock-order graph is built over all scanned
//!    functions — an edge `A → B` means some function acquires lock `B`
//!    (directly, or transitively through a resolvable call chain) while
//!    holding a guard of lock `A`. A cycle is a potential deadlock; the
//!    finding names the witness call chain for every edge in the cycle.
//!
//! **Scope and soundness.** This is a dependency-free lexical analysis,
//! a gate rather than a proof. Lock identity is the final path
//! component of the acquisition receiver (`self.shared.state.lock()` →
//! `state`), so two locks that share a field name alias, and
//! same-identity re-acquisition (`slots[i]` vs `slots[j]`) is *not*
//! reported as a self-cycle. Calls are resolved to scanned functions
//! only when unambiguous (same-file definition preferred, else a unique
//! workspace definition) and only for `self.…` method chains, bare
//! calls, and `path::calls` — condvar primitives are never resolved, so
//! `cv.wait(…)` cannot alias an unrelated `fn wait`. What the auditor
//! cannot see stays out of scope and belongs in review; what it *can*
//! see is enforced, with a burn-down allowlist in
//! `crates/xtask/conc-allowlist.txt` for pre-existing findings.

use crate::lint::{strip_source, strip_tests};
use crate::tokens::{lex, matching, Tok};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Which auditor rule a [`ConcFinding`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcRule {
    /// A blocking call (backend dispatch, pump wait, sleep, recv, or
    /// thread join) while a lock guard is live.
    BlockingUnderGuard,
    /// A condvar wait that is not inside a predicate re-check loop.
    NakedCondvarWait,
    /// A cycle in the inter-procedural lock-acquisition-order graph.
    LockOrderCycle,
}

impl ConcRule {
    /// Stable machine-readable name (used by the allowlist and the JSON
    /// lint report).
    pub fn name(&self) -> &'static str {
        match self {
            ConcRule::BlockingUnderGuard => "blocking-under-guard",
            ConcRule::NakedCondvarWait => "naked-condvar-wait",
            ConcRule::LockOrderCycle => "lock-order-cycle",
        }
    }
}

impl fmt::Display for ConcRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One auditor finding, pinned to a file, line and function.
#[derive(Debug, Clone)]
pub struct ConcFinding {
    /// The broken rule.
    pub rule: ConcRule,
    /// Path of the offending file (relative to the scan prefix).
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Name of the enclosing function.
    pub function: String,
    /// Human-readable specifics (guard names, witness call chains).
    pub detail: String,
}

impl fmt::Display for ConcFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] in `{}`: {}",
            self.file, self.line, self.rule, self.function, self.detail
        )
    }
}

/// Auditor configuration.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Method/function names forbidden under any live guard. Two names
    /// carry extra qualification to stay precise: `sleep` only matches
    /// the path form `thread::sleep`, and `join` only matches
    /// zero-argument calls (`handle.join()`), so `Schema::join(other)`
    /// and `Vec::join(", ")` never trip it.
    pub blocking: Vec<String>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            blocking: ["execute", "wait_any", "sleep", "recv", "join"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }
}

/// Audit every non-test `.rs` file under each of `dirs`; paths in the
/// findings are reported relative to `strip_prefix`.
pub fn audit_dirs(
    dirs: &[PathBuf],
    strip_prefix: &Path,
    cfg: &AuditConfig,
) -> io::Result<Vec<ConcFinding>> {
    let mut sources = Vec::new();
    for dir in dirs {
        let mut files = Vec::new();
        collect_rs_files(dir, &mut files)?;
        files.sort();
        for f in files {
            // `tests.rs` files are `#[cfg(test)] mod tests;` companions
            // by repo convention (mirrors `lint::scan_dir`).
            if f.file_name().is_some_and(|n| n == "tests.rs") {
                continue;
            }
            let src = fs::read_to_string(&f)?;
            let rel = f
                .strip_prefix(strip_prefix)
                .unwrap_or(&f)
                .to_string_lossy()
                .replace('\\', "/");
            sources.push((rel, src));
        }
    }
    Ok(audit_sources(&sources, cfg))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Audit a set of `(path, source)` pairs as one unit (the call graph
/// and lock-order graph span all of them). Sources are stripped of
/// comments, literals and test-module bodies before lexing.
pub fn audit_sources(files: &[(String, String)], cfg: &AuditConfig) -> Vec<ConcFinding> {
    // Phase 1: lex and collect function spans (with nested `fn` items
    // excluded from their parents) across every file.
    let mut fns: Vec<FnInfo> = Vec::new();
    for (path, src) in files {
        let toks = lex(&strip_tests(&strip_source(src)));
        collect_fns(path, &toks, &mut fns);
    }
    let guard_returning: BTreeSet<String> = fns
        .iter()
        .filter(|f| f.returns_guard)
        .map(|f| f.name.clone())
        .collect();

    // Phase 2: per-function guard tracking, emitting the intra-function
    // findings and recording acquisitions + call sites for phase 3.
    let mut findings = Vec::new();
    for idx in 0..fns.len() {
        analyze_fn(idx, &mut fns, &guard_returning, cfg, &mut findings);
    }

    // Phase 3: inter-procedural lock-order graph and cycle detection.
    findings.extend(lock_order_cycles(&fns));

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

// ---------------------------------------------------------------------
// Phase 1: function collection.
// ---------------------------------------------------------------------

struct FnInfo {
    name: String,
    file: String,
    /// Token stream of the whole file (shared clone per fn is avoided
    /// by storing the file tokens once per fn span — spans are small).
    toks: Vec<Tok>,
    /// Body token range (exclusive of the outer braces).
    body: (usize, usize),
    /// Nested `fn` item spans inside `body`, excluded from analysis.
    nested: Vec<(usize, usize)>,
    returns_guard: bool,
    /// Lock identities this function acquires directly.
    direct_acqs: Vec<String>,
    /// Resolvable call sites, with the lock ids held at the call.
    calls: Vec<CallSite>,
    /// Direct lock-order edges observed inside this function.
    edges: Vec<EdgeWitness>,
}

#[derive(Clone)]
struct CallSite {
    callee: String,
    line: u32,
    /// Lock ids of guards live at the call site (empty = unguarded).
    held: Vec<(String, u32)>,
}

#[derive(Clone)]
struct EdgeWitness {
    from: String,
    to: String,
    file: String,
    line: u32,
    function: String,
    /// Call chain from the holder to the acquirer (empty for a direct
    /// nested acquisition in one function).
    chain: Vec<String>,
}

/// Scan a file's tokens for `fn` items (including nested ones) and push
/// a `FnInfo` per function. Nested item ranges are recorded on the
/// enclosing function so its analysis skips them.
fn collect_fns(path: &str, toks: &[Tok], out: &mut Vec<FnInfo>) {
    struct Span {
        name: String,
        ret_guard: bool,
        body: (usize, usize),
    }
    let mut spans: Vec<Span> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "fn" || !toks.get(i + 1).is_some_and(|t| t.is_ident()) {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let mut j = i + 2;
        // Generics: skip a balanced `<…>` group.
        if toks.get(j).is_some_and(|t| t.text == "<") {
            let mut angle = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if toks.get(j).is_none_or(|t| t.text != "(") {
            i += 1;
            continue;
        }
        let Some(params_end) = matching(toks, j) else {
            break;
        };
        // Return type + where clause: scan to the body `{` (or `;` for
        // a bodyless declaration) at delimiter depth 0.
        let mut k = params_end + 1;
        let ret_start = k;
        let mut body_open = None;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "{" => {
                    body_open = Some(k);
                    break;
                }
                ";" => break,
                "(" | "[" => {
                    k = match matching(toks, k) {
                        Some(m) => m,
                        None => break,
                    };
                }
                _ => {}
            }
            k += 1;
        }
        let ret_guard = toks[ret_start..k.min(toks.len())]
            .iter()
            .any(|t| t.is_ident() && t.text.ends_with("Guard"));
        let Some(open) = body_open else {
            i = k.max(i + 1);
            continue;
        };
        let Some(close) = matching(toks, open) else {
            break;
        };
        spans.push(Span {
            name,
            ret_guard,
            body: (open + 1, close),
        });
        // Continue *inside* the body so nested fns are collected too.
        i = open + 1;
    }
    for s in &spans {
        let nested: Vec<(usize, usize)> = spans
            .iter()
            .filter(|o| o.body.0 > s.body.0 && o.body.1 < s.body.1)
            // Exclude from the `fn` keyword: name/params of the nested
            // item are not the parent's statements either. The span we
            // have starts at the body; back up to the keyword is not
            // tracked, so exclude from the body open brace — the
            // header tokens are harmless (no calls are completed).
            .map(|o| (o.body.0 - 1, o.body.1 + 1))
            .collect();
        out.push(FnInfo {
            name: s.name.clone(),
            file: path.to_string(),
            toks: toks.to_vec(),
            body: s.body,
            nested,
            returns_guard: s.ret_guard,
            direct_acqs: Vec::new(),
            calls: Vec::new(),
            edges: Vec::new(),
        });
    }
}

// ---------------------------------------------------------------------
// Phase 2: per-function analysis.
// ---------------------------------------------------------------------

const LOCKISH: &[&str] = &["lock", "read", "write"];
/// Condvar waits that need an external predicate loop. (`wait_while` /
/// `wait_timeout_while` re-check internally and are exempt.)
const CONDVAR_WAITS: &[&str] = &["wait", "wait_timeout", "wait_until"];

#[derive(Clone)]
struct Guard {
    name: String,
    /// Lock identity (`None` for helper-returned guards, which join the
    /// blocking rule but not the order graph).
    lock_id: Option<String>,
    depth: i32,
    line: u32,
}

struct FnCx<'a> {
    file: String,
    function: String,
    cfg: &'a AuditConfig,
    guard_returning: &'a BTreeSet<String>,
    depth: i32,
    guards: Vec<Guard>,
    loop_stack: Vec<i32>,
    direct_acqs: Vec<String>,
    calls: Vec<CallSite>,
    edges: Vec<EdgeWitness>,
    findings: Vec<ConcFinding>,
}

fn analyze_fn(
    idx: usize,
    fns: &mut [FnInfo],
    guard_returning: &BTreeSet<String>,
    cfg: &AuditConfig,
    findings: &mut Vec<ConcFinding>,
) {
    // Materialize the effective body tokens, skipping nested fn items.
    let f = &fns[idx];
    let mut body: Vec<Tok> = Vec::new();
    let mut i = f.body.0;
    while i < f.body.1 {
        if let Some(&(_, hi)) = f.nested.iter().find(|&&(lo, hi)| i >= lo && i < hi) {
            i = hi;
            continue;
        }
        body.push(f.toks[i].clone());
        i += 1;
    }

    let mut cx = FnCx {
        file: f.file.clone(),
        function: f.name.clone(),
        cfg,
        guard_returning,
        depth: 0,
        guards: Vec::new(),
        loop_stack: Vec::new(),
        direct_acqs: Vec::new(),
        calls: Vec::new(),
        edges: Vec::new(),
        findings: Vec::new(),
    };

    let mut stmt: Vec<Tok> = Vec::new();
    let mut stmt_delim = 0i32; // ( and [ depth inside the buffer
    for t in &body {
        match t.text.as_str() {
            "{" => {
                cx.process_stmt(&stmt, true);
                stmt.clear();
                stmt_delim = 0;
                cx.depth += 1;
            }
            "}" => {
                cx.process_stmt(&stmt, false);
                stmt.clear();
                stmt_delim = 0;
                cx.depth -= 1;
                let d = cx.depth;
                cx.guards.retain(|g| g.depth <= d);
                while cx.loop_stack.last().is_some_and(|&l| l > d) {
                    cx.loop_stack.pop();
                }
            }
            ";" if stmt_delim <= 0 => {
                cx.process_stmt(&stmt, false);
                // Guard births happen at the statement terminator.
                cx.let_guard_birth(&stmt);
                stmt.clear();
                stmt_delim = 0;
            }
            _ => {
                match t.text.as_str() {
                    "(" | "[" => stmt_delim += 1,
                    ")" | "]" => stmt_delim -= 1,
                    _ => {}
                }
                stmt.push(t.clone());
            }
        }
    }
    cx.process_stmt(&stmt, false);

    findings.append(&mut cx.findings);
    let f = &mut fns[idx];
    f.direct_acqs = cx.direct_acqs;
    f.calls = cx.calls;
    f.edges = cx.edges;
}

impl FnCx<'_> {
    /// Analyze one flushed statement buffer. `opens_block` is true when
    /// the flush was caused by a `{` (the buffer is then a block
    /// header: an `if let` guard binding or a loop introducer).
    fn process_stmt(&mut self, stmt: &[Tok], opens_block: bool) {
        if opens_block {
            // Loop bodies: `loop { … }`, `while … { … }`, `for … { … }`.
            if stmt
                .iter()
                .any(|t| matches!(t.text.as_str(), "loop" | "while" | "for"))
            {
                self.loop_stack.push(self.depth + 1);
            }
            self.if_let_guard_birth(stmt);
        }

        // Linear scan: drops, acquisitions, condvar waits, blocking
        // calls, resolvable call sites. `temp_guard` models a lock
        // temporary live to the end of the statement (or the next
        // top-level comma — match arms share one buffer).
        let mut temp_guard: Option<(String, u32)> = None;
        let mut delim = 0i32;
        let mut k = 0;
        while k < stmt.len() {
            let text = stmt[k].text.as_str();
            match text {
                "(" | "[" => delim += 1,
                ")" | "]" => delim -= 1,
                "," if delim == 0 => temp_guard = None,
                _ => {}
            }
            // drop(name): the most recent guard with that name dies.
            if text == "drop"
                && stmt.get(k + 1).is_some_and(|t| t.text == "(")
                && stmt.get(k + 3).is_some_and(|t| t.text == ")")
            {
                if let Some(name) = stmt.get(k + 2).filter(|t| t.is_ident()) {
                    if let Some(pos) = self.guards.iter().rposition(|g| g.name == name.text) {
                        self.guards.remove(pos);
                    }
                    k += 4;
                    continue;
                }
            }
            // Calls: IDENT followed by `(`.
            if stmt[k].is_ident() && stmt.get(k + 1).is_some_and(|t| t.text == "(") {
                let name = text.to_string();
                let line = stmt[k].line;
                let is_method = k > 0 && stmt[k - 1].text == ".";
                let empty_args = stmt.get(k + 2).is_some_and(|t| t.text == ")");
                let first_arg_mut_ref = stmt.get(k + 2).is_some_and(|t| t.text == "&")
                    && stmt.get(k + 3).is_some_and(|t| t.text == "mut");

                if is_method && CONDVAR_WAITS.contains(&name.as_str()) && first_arg_mut_ref {
                    // A condvar wait — never resolved as a call, never
                    // an acquisition. Must sit inside a predicate loop.
                    if self.loop_stack.is_empty() {
                        self.findings.push(ConcFinding {
                            rule: ConcRule::NakedCondvarWait,
                            file: self.file.clone(),
                            line,
                            function: self.function.clone(),
                            detail: format!(
                                "condvar `.{name}(&mut …)` outside a predicate loop — \
                                 spurious wakeups must re-check the condition in a \
                                 `loop`/`while`"
                            ),
                        });
                    }
                    k += 1;
                    continue;
                }

                if is_method && LOCKISH.contains(&name.as_str()) && empty_args {
                    // A lock acquisition (persistent if this statement
                    // is a guard-binding `let`; temporary otherwise —
                    // either way it orders after every live guard).
                    let id = receiver_id(stmt, k - 1);
                    if let Some(id) = &id {
                        self.record_acquisition(id, line);
                        temp_guard = Some((id.clone(), line));
                    }
                    k += 1;
                    continue;
                }

                // Blocking-set check.
                let blocking = self.cfg.blocking.iter().any(|b| b == &name)
                    && match name.as_str() {
                        "join" => is_method && empty_args,
                        "sleep" => {
                            k >= 2 && stmt[k - 1].text == "::" && stmt[k - 2].text == "thread"
                        }
                        _ => true,
                    };
                if blocking {
                    let held: Vec<String> = self
                        .guards
                        .iter()
                        .map(|g| format!("`{}` (born line {})", g.name, g.line))
                        .chain(
                            temp_guard
                                .iter()
                                .map(|(id, l)| format!("temporary `{id}` guard (line {l})")),
                        )
                        .collect();
                    if !held.is_empty() {
                        self.findings.push(ConcFinding {
                            rule: ConcRule::BlockingUnderGuard,
                            file: self.file.clone(),
                            line,
                            function: self.function.clone(),
                            detail: format!(
                                "blocking call `{name}` with lock guard{} {} still held",
                                if held.len() > 1 { "s" } else { "" },
                                held.join(", ")
                            ),
                        });
                    }
                    k += 1;
                    continue;
                }

                // Resolvable call site for the lock-order graph: bare
                // calls, `path::calls`, and `self.…` method chains.
                let resolvable = if is_method {
                    receiver_head(stmt, k - 1).is_some_and(|h| h == "self" || h == "Self")
                } else {
                    !(k > 0 && stmt[k - 1].text == ".")
                };
                if resolvable && name != "drop" {
                    let held: Vec<(String, u32)> = self
                        .guards
                        .iter()
                        .filter_map(|g| g.lock_id.clone().map(|id| (id, g.line)))
                        .collect();
                    self.calls.push(CallSite {
                        callee: name,
                        line,
                        held,
                    });
                }
            }
            k += 1;
        }
    }

    /// Record a direct acquisition: order edges from every live guard,
    /// and the fact itself for the inter-procedural lockset.
    fn record_acquisition(&mut self, id: &str, line: u32) {
        for g in &self.guards {
            if let Some(from) = &g.lock_id {
                if from != id {
                    self.edges.push(EdgeWitness {
                        from: from.clone(),
                        to: id.to_string(),
                        file: self.file.clone(),
                        line,
                        function: self.function.clone(),
                        chain: Vec::new(),
                    });
                }
            }
        }
        self.direct_acqs.push(id.to_string());
    }

    /// `let [mut] NAME = …tail` births, applied at the `;` flush. A
    /// guard is born when the tail is a zero-argument `lock`/`read`/
    /// `write` call, or a call to a guard-returning helper.
    fn let_guard_birth(&mut self, stmt: &[Tok]) {
        if stmt.first().map(|t| t.text.as_str()) != Some("let") {
            return;
        }
        let mut n = 1;
        if stmt.get(n).is_some_and(|t| t.text == "mut") {
            n += 1;
        }
        let Some(name) = stmt.get(n).filter(|t| t.is_ident()) else {
            return;
        };
        // `let _ = …` drops immediately — not a live guard.
        if name.text == "_" {
            return;
        }
        let Some((method_idx, empty_args)) = tail_call(stmt) else {
            return;
        };
        let method = stmt[method_idx].text.as_str();
        let is_method = method_idx > 0 && stmt[method_idx - 1].text == ".";
        let (lock_id, line) = if LOCKISH.contains(&method) && empty_args && is_method {
            (receiver_id(stmt, method_idx - 1), stmt[method_idx].line)
        } else if self.guard_returning.contains(method) {
            (None, stmt[method_idx].line)
        } else {
            return;
        };
        self.guards.push(Guard {
            name: name.text.clone(),
            lock_id,
            depth: self.depth,
            line,
        });
    }

    /// `if let Ok(g) = m.lock()` / `while let Some(g) = …` births,
    /// applied at the `{` flush; the guard lives for the block body.
    fn if_let_guard_birth(&mut self, stmt: &[Tok]) {
        let head = stmt.first().map(|t| t.text.as_str());
        if !matches!(head, Some("if") | Some("while"))
            || stmt.get(1).map(|t| t.text.as_str()) != Some("let")
        {
            return;
        }
        if !stmt
            .get(2)
            .is_some_and(|t| t.text == "Ok" || t.text == "Some")
            || stmt.get(3).map(|t| t.text.as_str()) != Some("(")
        {
            return;
        }
        let mut n = 4;
        if stmt.get(n).is_some_and(|t| t.text == "mut") {
            n += 1;
        }
        let Some(name) = stmt.get(n).filter(|t| t.is_ident()) else {
            return;
        };
        if stmt.get(n + 1).map(|t| t.text.as_str()) != Some(")")
            || stmt.get(n + 2).map(|t| t.text.as_str()) != Some("=")
        {
            return;
        }
        let Some((method_idx, empty_args)) = tail_call(stmt) else {
            return;
        };
        let method = stmt[method_idx].text.as_str();
        let is_method = method_idx > 0 && stmt[method_idx - 1].text == ".";
        let lock_id = if LOCKISH.contains(&method) && empty_args && is_method {
            receiver_id(stmt, method_idx - 1)
        } else if self.guard_returning.contains(method) {
            None
        } else {
            return;
        };
        if let Some(id) = &lock_id {
            self.record_acquisition(id, stmt[method_idx].line);
        }
        self.guards.push(Guard {
            name: name.text.clone(),
            lock_id,
            depth: self.depth + 1,
            line: stmt[method_idx].line,
        });
    }
}

/// The final call of a statement: `Some((method_token_index,
/// args_are_empty))` when the statement ends with `… name( … )`.
fn tail_call(stmt: &[Tok]) -> Option<(usize, bool)> {
    if stmt.last()?.text != ")" {
        return None;
    }
    let mut depth = 0i32;
    let mut open = None;
    for k in (0..stmt.len()).rev() {
        match stmt[k].text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                depth -= 1;
                if depth == 0 {
                    open = Some(k);
                    break;
                }
            }
            _ => {}
        }
    }
    let open = open?;
    if open == 0 || !stmt[open - 1].is_ident() {
        return None;
    }
    Some((open - 1, open + 1 == stmt.len() - 1))
}

/// Lock identity of a method receiver: the last plain identifier of the
/// path chain before the `.` at `dot` (`self.shared.state.lock()` →
/// `state`; `self.slots[i].lock()` → `slots`).
fn receiver_id(stmt: &[Tok], dot: usize) -> Option<String> {
    let mut k = dot;
    while k > 0 {
        k -= 1;
        match stmt[k].text.as_str() {
            "]" | ")" => {
                // Skip a balanced group backward, then keep walking.
                let mut depth = 0i32;
                loop {
                    match stmt[k].text.as_str() {
                        "]" | ")" | "}" => depth += 1,
                        "[" | "(" | "{" => depth -= 1,
                        _ => {}
                    }
                    if depth == 0 {
                        break;
                    }
                    if k == 0 {
                        return None;
                    }
                    k -= 1;
                }
            }
            _ if stmt[k].is_ident() => return Some(stmt[k].text.clone()),
            _ => return None,
        }
    }
    None
}

/// First identifier of the receiver chain before the `.` at `dot`
/// (`self.shared.state.foo()` → `self`).
fn receiver_head(stmt: &[Tok], dot: usize) -> Option<String> {
    let mut k = dot;
    let mut head = None;
    while k > 0 {
        k -= 1;
        match stmt[k].text.as_str() {
            "." | "::" => continue,
            "]" | ")" => {
                let mut depth = 0i32;
                loop {
                    match stmt[k].text.as_str() {
                        "]" | ")" | "}" => depth += 1,
                        "[" | "(" | "{" => depth -= 1,
                        _ => {}
                    }
                    if depth == 0 {
                        break;
                    }
                    if k == 0 {
                        return head;
                    }
                    k -= 1;
                }
            }
            _ if stmt[k].is_ident() => head = Some(stmt[k].text.clone()),
            _ => break,
        }
    }
    head
}

// ---------------------------------------------------------------------
// Phase 3: inter-procedural lock-order graph.
// ---------------------------------------------------------------------

fn lock_order_cycles(fns: &[FnInfo]) -> Vec<ConcFinding> {
    // Name resolution: same-file unique definition first, then unique
    // workspace definition; ambiguous names stay unresolved.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(&f.name).or_default().push(i);
    }
    let resolve = |caller_file: &str, name: &str| -> Option<usize> {
        let cands = by_name.get(name)?;
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| fns[i].file == caller_file)
            .collect();
        match same_file.as_slice() {
            [one] => Some(*one),
            [] if cands.len() == 1 => Some(cands[0]),
            _ => None,
        }
    };

    // Fixpoint: transitive lockset per function.
    let mut locksets: Vec<BTreeSet<String>> = fns
        .iter()
        .map(|f| f.direct_acqs.iter().cloned().collect())
        .collect();
    loop {
        let mut changed = false;
        for (i, f) in fns.iter().enumerate() {
            for c in &f.calls {
                if let Some(callee) = resolve(&f.file, &c.callee) {
                    let add: Vec<String> = locksets[callee]
                        .iter()
                        .filter(|m| !locksets[i].contains(*m))
                        .cloned()
                        .collect();
                    if !add.is_empty() {
                        locksets[i].extend(add);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Edges: direct (recorded in phase 2) plus call-mediated ones.
    let mut edges: BTreeMap<(String, String), EdgeWitness> = BTreeMap::new();
    for f in fns {
        for e in &f.edges {
            edges
                .entry((e.from.clone(), e.to.clone()))
                .or_insert_with(|| e.clone());
        }
        for c in &f.calls {
            let Some(callee) = resolve(&f.file, &c.callee) else {
                continue;
            };
            for (from, _) in &c.held {
                for to in &locksets[callee] {
                    if from == to {
                        continue;
                    }
                    let chain = chain_to(fns, &resolve, callee, to).unwrap_or_default();
                    edges
                        .entry((from.clone(), to.clone()))
                        .or_insert_with(|| EdgeWitness {
                            from: from.clone(),
                            to: to.clone(),
                            file: f.file.clone(),
                            line: c.line,
                            function: f.name.clone(),
                            chain,
                        });
                }
            }
        }
    }

    // Cycle enumeration (graphs here are tiny): from each start node,
    // DFS over nodes >= start; a return edge to the start closes a
    // cycle, reported once with every edge's witness chain.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let mut findings = Vec::new();
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for &start in &nodes {
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(start, vec![start])];
        while let Some((node, path)) = stack.pop() {
            if path.len() > 6 {
                continue;
            }
            for &next in adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]) {
                if next == start && path.len() > 1 {
                    let cycle: Vec<String> = path.iter().map(|s| s.to_string()).collect();
                    if cycle.iter().min() != cycle.first() {
                        continue; // canonical start only: dedupe rotations
                    }
                    if seen_cycles.insert(cycle.clone()) {
                        findings.push(cycle_finding(&cycle, &edges));
                    }
                } else if next > start && !path.contains(&next) {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((next, p));
                }
            }
        }
    }
    findings
}

/// Shortest call chain (as fn names) from `start` to a function that
/// directly acquires `target`.
fn chain_to(
    fns: &[FnInfo],
    resolve: &dyn Fn(&str, &str) -> Option<usize>,
    start: usize,
    target: &str,
) -> Option<Vec<String>> {
    let mut queue = std::collections::VecDeque::new();
    let mut visited = BTreeSet::new();
    queue.push_back((start, vec![fns[start].name.clone()]));
    visited.insert(start);
    while let Some((i, path)) = queue.pop_front() {
        if fns[i].direct_acqs.iter().any(|a| a == target) {
            return Some(path);
        }
        if path.len() > 8 {
            continue;
        }
        for c in &fns[i].calls {
            if let Some(j) = resolve(&fns[i].file, &c.callee) {
                if visited.insert(j) {
                    let mut p = path.clone();
                    p.push(fns[j].name.clone());
                    queue.push_back((j, p));
                }
            }
        }
    }
    None
}

fn cycle_finding(cycle: &[String], edges: &BTreeMap<(String, String), EdgeWitness>) -> ConcFinding {
    let mut parts = Vec::new();
    let n = cycle.len();
    for i in 0..n {
        let from = &cycle[i];
        let to = &cycle[(i + 1) % n];
        let w = &edges[&(from.clone(), to.clone())];
        let via = if w.chain.is_empty() {
            String::new()
        } else {
            format!(" via {}", w.chain.join(" → "))
        };
        parts.push(format!(
            "`{from}` → `{to}` (fn `{}`, {}:{}{via})",
            w.function, w.file, w.line
        ));
    }
    let first = &edges[&(cycle[0].clone(), cycle[1 % cycle.len()].clone())];
    ConcFinding {
        rule: ConcRule::LockOrderCycle,
        file: first.file.clone(),
        line: first.line,
        function: first.function.clone(),
        detail: format!(
            "potential deadlock: lock-acquisition-order cycle {}",
            parts.join("; ")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(src: &str) -> Vec<ConcFinding> {
        audit_sources(
            &[("t.rs".to_string(), src.to_string())],
            &AuditConfig::default(),
        )
    }

    #[test]
    fn multiline_let_guard_is_tracked() {
        // The old line-based pass required `let … .lock();` on one line.
        let src = "fn f(&self) {\n    let st = self\n        .state\n        .lock();\n    self.svc.execute(&req);\n}\n";
        let got = audit(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, ConcRule::BlockingUnderGuard);
        assert_eq!(got[0].line, 5);
    }

    #[test]
    fn if_let_guard_is_tracked() {
        let src = "fn f(&self) {\n    if let Ok(g) = self.m.lock() {\n        self.svc.execute(&req);\n    }\n    self.svc.execute(&req);\n}\n";
        let got = audit(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(
            (got[0].rule, got[0].line),
            (ConcRule::BlockingUnderGuard, 3)
        );
    }

    #[test]
    fn helper_returned_guard_is_tracked() {
        let src = "fn acquire(&self) -> MutexGuard<'_, T> {\n    self.inner.lock()\n}\nfn f(&self) {\n    let g = self.acquire();\n    self.svc.execute(&req);\n}\n";
        let got = audit(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(
            (got[0].rule, got[0].line),
            (ConcRule::BlockingUnderGuard, 6)
        );
    }

    #[test]
    fn drop_shadowing_and_scopes_release_guards() {
        let src = "fn f(&self) {\n    let g = self.m.lock();\n    drop(g);\n    self.svc.execute(&req);\n    { let h = self.m.lock(); }\n    self.svc.execute(&req);\n    let _ = self.m.lock();\n    self.svc.execute(&req);\n}\n";
        assert!(audit(src).is_empty(), "{:?}", audit(src));
    }

    #[test]
    fn zero_arg_join_is_blocking_but_separator_join_is_not() {
        let src = "fn f(&self) {\n    let w = self.workers.lock();\n    let s = parts.join(\", \");\n    let sch = left.join(right);\n    let _r = h.join();\n}\n";
        let got = audit(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].detail.contains("join"), "{got:?}");
        assert_eq!(got[0].line, 5);
    }

    #[test]
    fn thread_sleep_qualified_only() {
        let src = "fn f(&self) {\n    let g = self.m.lock();\n    self.waiter.sleep();\n    thread::sleep(d);\n}\n";
        let got = audit(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 4);
    }

    #[test]
    fn naked_condvar_wait_flagged_looped_wait_ok() {
        let src = "fn good(&self) {\n    let mut slot = self.m.lock();\n    loop {\n        if done { break; }\n        self.cv.wait(&mut slot);\n    }\n}\nfn bad(&self) {\n    let mut slot = self.m.lock();\n    self.cv.wait(&mut slot);\n}\n";
        let got = audit(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!((got[0].rule, got[0].line), (ConcRule::NakedCondvarWait, 10));
    }

    #[test]
    fn condvar_wait_is_not_resolved_as_a_call() {
        // `fn wait` acquires a lock; `cv.wait(&mut g)` must not create
        // an order edge into it (that would fabricate a cycle).
        let src = "fn wait(&self) -> u64 {\n    let st = self.state.lock();\n    st.v\n}\nfn pump(&self) {\n    let mut slot = self.slot.lock();\n    while slot.is_none() {\n        self.cv.wait(&mut slot);\n    }\n}\nfn other(&self) {\n    let st = self.state.lock();\n    let s = self.slot.lock();\n}\n";
        assert!(audit(src).is_empty(), "{:?}", audit(src));
    }

    #[test]
    fn lock_order_cycle_detected_across_calls() {
        let src = "fn a(&self) {\n    let g = self.m1.lock();\n    self.helper_b();\n}\nfn helper_b(&self) {\n    let h = self.m2.lock();\n}\nfn c(&self) {\n    let g = self.m2.lock();\n    let direct = self.m1.lock();\n}\n";
        let got = audit(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, ConcRule::LockOrderCycle);
        assert!(
            got[0].detail.contains("m1") && got[0].detail.contains("m2"),
            "{got:?}"
        );
        assert!(got[0].detail.contains("helper_b"), "chain named: {got:?}");
    }

    #[test]
    fn temp_guard_chain_is_flagged() {
        let src = "fn f(&self) {\n    self.state.lock().execute(&req);\n    let v = self.services.read().get(name).cloned();\n    v.execute(&req);\n}\n";
        let got = audit(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 2);
    }
}
