//! The rule set. Each rule is a function from the workspace to findings;
//! suppression and baseline filtering happen in the driver so rules stay
//! pure detectors.

pub mod lock_order;
pub mod simple;
pub mod wire;

use crate::findings::Finding;
use crate::workspace::Workspace;

/// Rule ids, in the order they run and render.
pub const RULE_IDS: &[&str] = &[
    simple::UNSAFE_SAFETY,
    simple::PANIC_FREE,
    simple::ATOMIC_ORDERING,
    lock_order::LOCK_ORDER,
    wire::WIRE_EXHAUSTIVENESS,
];

/// Run every rule (or the `only` subset) over the workspace.
pub fn run_all(ws: &Workspace, only: &[String]) -> Vec<Finding> {
    let enabled = |id: &str| only.is_empty() || only.iter().any(|o| o == id);
    let mut out = Vec::new();
    if enabled(simple::UNSAFE_SAFETY) {
        simple::unsafe_safety(ws, &mut out);
    }
    if enabled(simple::PANIC_FREE) {
        simple::panic_free(ws, &mut out);
    }
    if enabled(simple::ATOMIC_ORDERING) {
        simple::atomic_ordering(ws, &mut out);
    }
    if enabled(lock_order::LOCK_ORDER) {
        lock_order::check(ws, &mut out);
    }
    if enabled(wire::WIRE_EXHAUSTIVENESS) {
        wire::check(ws, &mut out);
    }
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}
