//! `bootscan-lint` — the workspace invariant checker (DESIGN.md §8).
//!
//! A zero-dependency, offline static-analysis pass for the invariants no
//! rustc or clippy lint states: no hash-order iteration in the evidence
//! plane (D002), untrusted-byte taint and lock discipline across crates
//! (T- and L-rules, DESIGN.md §12), and hygiene of its own escape hatch
//! (X-rules). The rest of the catalog is compiler lints, configured in
//! the workspace `Cargo.toml`, `clippy.toml` and per-module attributes.
//!
//! Run it with `cargo run -p bootscan-lint` from anywhere inside the
//! workspace; it exits non-zero if any invariant is violated.

pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod locks;
pub mod rules;
pub mod source;
pub mod symbols;
pub mod taint;

pub use engine::{run, Finding, Report};
