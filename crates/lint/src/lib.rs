//! `bootscan-lint` — the workspace invariant checker (DESIGN.md §8).
//!
//! A zero-dependency, offline static-analysis pass that mechanically
//! enforces the reproduction's load-bearing invariants: determinism of
//! the evidence plane (D-rules), panic-safety of hostile-input paths
//! (P-rules), untrusted-byte taint and lock discipline across crates
//! (T- and L-rules), error-taxonomy exhaustiveness (E001), and
//! suppression hygiene (U/J/X rules).
//!
//! Run it with `cargo run -p bootscan-lint` from anywhere inside the
//! workspace; it exits non-zero if any invariant is violated.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod locks;
pub mod rules;
pub mod source;
pub mod symbols;
pub mod taint;

pub use engine::{glob_match, run, Finding, Report};
