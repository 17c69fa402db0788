//! `dblsh-analyze` — workspace-native static analysis for DB-LSH.
//!
//! The repo's correctness story rests on structural contracts that exist
//! as prose: SAFETY justifications on `unsafe`, a panic-free serving
//! surface, documented atomic orderings, the router/shard lock
//! hierarchy, and full wire-opcode coverage. This crate machine-checks
//! all five — a std-only binary with a hand-rolled Rust lexer, a
//! structured-findings framework (human and JSON renderers), inline
//! suppressions
//! (`// lint: allow(<rule>) — <reason>`), and a committed baseline file
//! so pre-existing debt is inventoried rather than ignored.
//!
//! Run it as CI does:
//!
//! ```text
//! cargo run -p dblsh-analyze -- --deny-findings --format json
//! ```

pub mod findings;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod workspace;

use findings::{BaselineEntry, Finding};
use workspace::Workspace;

/// Meta-rule id for suppressions that are malformed or suppress nothing.
pub const BAD_SUPPRESSION: &str = "bad-suppression";
/// Meta-rule id for baseline entries that no longer match any finding.
pub const STALE_BASELINE: &str = "stale-baseline";

/// Everything one analysis run produces.
#[derive(Debug)]
pub struct Analysis {
    /// Unsuppressed, unbaselined findings (what `--deny-findings` gates on).
    pub findings: Vec<Finding>,
    /// Findings silenced by a valid inline suppression.
    pub suppressed: usize,
    /// Findings silenced by the baseline file.
    pub baselined: usize,
}

/// Run `rules` (all when empty) over the workspace, then apply inline
/// suppressions and the baseline. Suppression-hygiene and baseline-
/// staleness violations are appended as findings of their own, so the
/// debt inventory cannot silently rot.
pub fn analyze(ws: &Workspace, only: &[String], baseline: &[BaselineEntry]) -> Analysis {
    let raw = rules::run_all(ws, only);
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    let mut baselined = 0usize;
    let mut baseline_used = vec![false; baseline.len()];

    for f in raw {
        if let Some(file) = ws.files.iter().find(|s| s.rel_path == f.path) {
            let hit = file
                .suppressions
                .iter()
                .find(|s| s.malformed.is_none() && s.rule == f.rule && s.covers_line == f.line);
            if let Some(s) = hit {
                s.used.set(true);
                suppressed += 1;
                continue;
            }
        }
        let entry = baseline
            .iter()
            .position(|b| b.rule == f.rule && b.path == f.path && b.message == f.message);
        if let Some(idx) = entry {
            baseline_used[idx] = true;
            baselined += 1;
            continue;
        }
        findings.push(f);
    }

    // Suppression hygiene: malformed or unused suppressions are findings.
    for file in &ws.files {
        for s in &file.suppressions {
            if let Some(why) = s.malformed {
                findings.push(Finding::new(
                    BAD_SUPPRESSION,
                    &file.rel_path,
                    s.line,
                    format!("malformed suppression: {why}"),
                ));
            } else if !s.used.get() && (only.is_empty() || only.contains(&s.rule)) {
                findings.push(Finding::new(
                    BAD_SUPPRESSION,
                    &file.rel_path,
                    s.line,
                    format!(
                        "suppression for `{}` matches no finding on line {} — remove it or fix the anchor",
                        s.rule, s.covers_line
                    ),
                ));
            }
        }
    }

    // Baseline staleness: an entry matching nothing means debt was paid
    // down (or moved) without regenerating the baseline. Only meaningful
    // on a full run — a `--rule`-restricted pass can't see every rule's
    // findings.
    if only.is_empty() {
        for (b, used) in baseline.iter().zip(&baseline_used) {
            if !used {
                findings.push(Finding::new(
                    STALE_BASELINE,
                    &b.path,
                    0,
                    format!(
                        "baseline entry for `{}` no longer matches any finding ({}) — \
                         regenerate with --write-baseline",
                        b.rule, b.message
                    ),
                ));
            }
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Analysis {
        findings,
        suppressed,
        baselined,
    }
}
