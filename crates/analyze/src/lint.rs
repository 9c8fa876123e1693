//! Source-level lints for the engine/pump hot paths, run by
//! `cargo xtask lint` (and CI).
//!
//! One pass over non-test Rust sources: **panic sites** — count
//! `.unwrap()` / `.expect(` occurrences per file. The xtask compares
//! the counts against a checked-in allowlist that may only shrink
//! (burn-down): new panic sites in `crates/engine` and `crates/pump`
//! fail CI.
//!
//! The stripping machinery here ([`strip_source`] / [`strip_tests`])
//! blanks comments, string/char literals, and `#[cfg(test)] mod`
//! bodies while preserving line structure, so counts and line numbers
//! track real code.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lint result for one `.rs` file.
#[derive(Debug, Clone)]
pub struct FileLint {
    /// Path relative to the scan root's parent (e.g.
    /// `crates/engine/src/db.rs`).
    pub path: String,
    /// `.unwrap()` occurrences in non-test code.
    pub unwraps: usize,
    /// `.expect(` occurrences in non-test code.
    pub expects: usize,
}

impl FileLint {
    /// Panic sites in this file.
    pub fn panic_sites(&self) -> usize {
        self.unwraps + self.expects
    }
}

/// Recursively lint every non-test `.rs` file under `root`; paths in
/// the result are reported relative to `strip_prefix`.
pub fn scan_dir(root: &Path, strip_prefix: &Path) -> io::Result<Vec<FileLint>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for f in files {
        // Files named `tests.rs` are `#[cfg(test)] mod tests;`
        // companions by repo convention.
        if f.file_name().is_some_and(|n| n == "tests.rs") {
            continue;
        }
        let src = fs::read_to_string(&f)?;
        let rel = f
            .strip_prefix(strip_prefix)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        out.push(lint_source(&src, &rel));
    }
    Ok(out)
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

/// Lint one source text (exposed for the self-tests).
pub fn lint_source(src: &str, path: &str) -> FileLint {
    let stripped = strip_tests(&strip_source(src));
    FileLint {
        path: path.to_string(),
        unwraps: stripped.matches(".unwrap()").count(),
        expects: stripped.matches(".expect(").count(),
    }
}

/// Blank out comments and string/char literals, preserving line
/// structure so later passes report correct line numbers.
pub fn strip_source(src: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut out = String::with_capacity(src.len());
    let mut st = St::Code;
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::LineComment;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    st = St::BlockComment(1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '"' => {
                    st = St::Str;
                    out.push('"');
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string r"…" / r#"…"#.
                    let mut hashes = 0u32;
                    let mut j = i + 1;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                        continue;
                    }
                    out.push(c);
                }
                '\'' => {
                    // Char literal vs lifetime: '\x' or 'x' followed by
                    // a closing quote is a literal.
                    if next == Some('\\') || bytes.get(i + 2) == Some(&'\'') {
                        st = St::Char;
                        out.push('\'');
                    } else {
                        out.push(c); // lifetime
                    }
                }
                _ => out.push(c),
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::BlockComment(depth) => {
                if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                if c == '*' && next == Some('/') {
                    out.push(' ');
                    i += 2;
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    continue;
                }
                if c == '/' && next == Some('*') {
                    out.push(' ');
                    i += 2;
                    st = St::BlockComment(depth + 1);
                    continue;
                }
            }
            St::Str => match c {
                '\\' => {
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '"' => {
                    st = St::Code;
                    out.push('"');
                }
                '\n' => out.push('\n'),
                _ => out.push(' '),
            },
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if bytes.get(i + 1 + k as usize) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..=hashes {
                            out.push(' ');
                        }
                        i += 1 + hashes as usize;
                        st = St::Code;
                        continue;
                    }
                }
                if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::Char => match c {
                '\\' => {
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '\'' => {
                    st = St::Code;
                    out.push('\'');
                }
                _ => out.push(' '),
            },
        }
        i += 1;
    }
    out
}

/// Blank out `#[cfg(test)] mod … { … }` bodies (source must already be
/// comment/string-stripped so brace matching is reliable).
pub fn strip_tests(stripped: &str) -> String {
    let mut out = stripped.to_string();
    let mut search_from = 0;
    while let Some(rel) = out[search_from..].find("#[cfg(test)]") {
        let attr_at = search_from + rel;
        let after_attr = attr_at + "#[cfg(test)]".len();
        // Only blank module bodies: `mod` must be the next token(s);
        // other cfg(test) items (use, fn) are already inside one.
        let tail = &out[after_attr..];
        let trimmed = tail.trim_start();
        if !trimmed.starts_with("mod") {
            search_from = after_attr;
            continue;
        }
        let Some(brace_rel) = tail.find('{') else {
            search_from = after_attr;
            continue;
        };
        let body_start = after_attr + brace_rel;
        let mut depth = 0usize;
        let mut end = None;
        for (i, c) in out[body_start..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(body_start + i);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(end) = end else {
            search_from = after_attr;
            continue;
        };
        let blanked: String = out[attr_at..=end]
            .chars()
            .map(|c| if c == '\n' { '\n' } else { ' ' })
            .collect();
        out.replace_range(attr_at..=end, &blanked);
        search_from = attr_at + blanked.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_strings_and_test_mods() {
        let src = r#"
fn a() {
    // x.unwrap() in a comment
    let s = "x.unwrap() in a string";
    /* x.unwrap() in a block comment */
    s.unwrap();
}
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); y.unwrap(); }
}
"#;
        let lint = lint_source(src, "a.rs");
        assert_eq!(lint.unwraps, 1, "only the real call site counts");
        assert_eq!(lint.expects, 0);
    }

    #[test]
    fn char_literals_and_lifetimes_survive() {
        let src =
            "fn f<'a>(x: &'a str) -> char { let c = '\"'; c }\nfn g() { v.expect(\"msg\"); }\n";
        let lint = lint_source(src, "b.rs");
        assert_eq!(lint.expects, 1);
    }
}
