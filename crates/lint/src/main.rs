//! CLI entry point: `bootscan-lint [--json] [workspace-root]`.
//!
//! With no path argument, walks upward from the current directory to
//! the first `Cargo.toml` declaring `[workspace]`. Prints one
//! `file:line: [RULE] message` diagnostic per violation and exits 1
//! if any are found. With `--json`, prints a single machine-readable
//! report object instead (findings, file and token counts) — the
//! shape CI archives as the `lint-invariants` artifact.

use std::path::PathBuf;
use std::process::ExitCode;

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the report as a single JSON object (no external deps — the
/// shape is small enough to emit by hand).
fn render_json(report: &bootscan_lint::Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!(
        "  \"tokens_scanned\": {},\n",
        report.tokens_scanned
    ));
    out.push_str(&format!("  \"clean\": {},\n", report.clean()));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.rel),
            f.line,
            json_escape(&f.rule),
            json_escape(&f.msg)
        ));
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn main() -> ExitCode {
    let mut json = false;
    let mut root_arg: Option<PathBuf> = None;
    for arg in std::env::args_os().skip(1) {
        if arg == "--json" {
            json = true;
        } else {
            root_arg = Some(PathBuf::from(arg));
        }
    }
    let root = match root_arg {
        Some(r) => r,
        None => match find_workspace_root() {
            Some(r) => r,
            None => {
                eprintln!("bootscan-lint: no workspace root found (no ancestor Cargo.toml with [workspace]); pass a path explicitly");
                return ExitCode::FAILURE;
            }
        },
    };

    let report = match bootscan_lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bootscan-lint: failed to scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    if json {
        print!("{}", render_json(&report));
        return if report.clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    for f in &report.findings {
        println!("{f}");
    }
    if report.clean() {
        println!(
            "bootscan-lint: {} files scanned, all invariants hold",
            report.files_scanned
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "bootscan-lint: {} files scanned, {} violation(s)",
            report.files_scanned,
            report.findings.len()
        );
        ExitCode::FAILURE
    }
}
