//! `lock-order`: extracts lock-acquisition sites and verifies the
//! workspace's written lock hierarchy with no inverted nesting.
//!
//! The hierarchy this enforces is the one the serving layer documents in
//! prose (see `crates/serve/src/shard.rs` and README "Static analysis"):
//!
//! - **shard → wal**: a shard `RwLock` may be held while taking a WAL
//!   mutex (log-before-apply under the write lock; checkpoint truncation
//!   under the read locks), never the reverse.
//! - **shard → router**: the router mutex may be taken while a shard
//!   lock is held (live-count publication), but no path may hold the
//!   router while acquiring a shard lock — that is the PR 4 deadlock
//!   contract that keeps reads cycle-free.
//!
//! The checker is lexical and per-function by construction: a guard
//! bound with `let` lives to the end of its enclosing block, an
//! un-bound (temporary) guard lives to the end of its statement, and
//! function bodies are blocks, so guards never leak across functions.
//! Cross-function lock context (a helper documented as "call with the
//! write mutex held") is out of scope and covered by the runtime stress
//! tests instead.

use crate::findings::Finding;
use crate::lexer::TokKind;
use crate::workspace::Workspace;

pub const LOCK_ORDER: &str = "lock-order";

/// Whether a lock class is a `Mutex` (re-acquisition self-deadlocks) or
/// an `RwLock` (read re-entrancy is still UB-adjacent but writer-starved
/// deadlock, not guaranteed — we only order across classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Mutex,
    RwLock,
}

/// A lock class: a named level in the declared hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Class {
    name: &'static str,
    kind: Kind,
}

const SHARD: Class = Class {
    name: "shard",
    kind: Kind::RwLock,
};
const ROUTER: Class = Class {
    name: "router",
    kind: Kind::Mutex,
};
const WAL: Class = Class {
    name: "wal",
    kind: Kind::Mutex,
};

/// How an acquisition site is recognized: as the receiver of a
/// `.lock()`/`.read()`/`.write()` call, or as a call to a guard-returning
/// helper method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Via {
    Receiver,
    Helper,
}

/// (path substring, identifier, how, class) — the classification table.
const CLASSES: &[(&str, &str, Via, Class)] = &[
    ("crates/serve/src/shard.rs", "router", Via::Receiver, ROUTER),
    ("crates/serve/src/shard.rs", "router", Via::Helper, ROUTER),
    (
        "crates/serve/src/shard.rs",
        "try_router",
        Via::Helper,
        ROUTER,
    ),
    ("crates/serve/src/shard.rs", "shards", Via::Receiver, SHARD),
    (
        "crates/serve/src/shard.rs",
        "read_shard",
        Via::Helper,
        SHARD,
    ),
    (
        "crates/serve/src/shard.rs",
        "read_all_shards",
        Via::Helper,
        SHARD,
    ),
    (
        "crates/serve/src/shard.rs",
        "try_write_shard",
        Via::Helper,
        SHARD,
    ),
    ("crates/serve/src/shard.rs", "log", Via::Receiver, WAL),
    ("crates/serve/src/shard.rs", "logs", Via::Receiver, WAL),
];

/// Declared acquisition order: `(first, second)` means `first` may be
/// held while acquiring `second`; acquiring `first` while `second` is
/// held is an inversion.
const ORDER: &[(Class, Class)] = &[(SHARD, WAL), (SHARD, ROUTER)];

#[derive(Debug)]
struct Guard {
    class: Class,
    /// Brace depth at acquisition.
    depth: usize,
    /// `let`-bound guards live to end of block; temporaries to end of
    /// statement.
    bound: bool,
    line: u32,
}

pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        let classes: Vec<&(&str, &str, Via, Class)> = CLASSES
            .iter()
            .filter(|(path, ..)| f.rel_path.contains(path))
            .collect();
        if classes.is_empty() {
            continue;
        }
        let code: Vec<(usize, &crate::lexer::Token)> = f.code_tokens().collect();
        let mut depth = 0usize;
        let mut guards: Vec<Guard> = Vec::new();
        let mut stmt_start = 0usize; // index into `code` of statement start
        for w in 0..code.len() {
            let (_i, t) = code[w];
            match t.text.as_str() {
                "{" => {
                    depth += 1;
                    stmt_start = w + 1;
                }
                "}" => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                    stmt_start = w + 1;
                }
                ";" => {
                    guards.retain(|g| g.bound || g.depth < depth);
                    stmt_start = w + 1;
                }
                _ => {}
            }
            let Some(class) = classify(&classes, &code, w) else {
                continue;
            };
            let in_test = f.is_test_token(code[w].0);
            // Inversion: acquiring `class` while a class declared to come
            // *after* it is held.
            if !in_test {
                for g in &guards {
                    let inverted = ORDER
                        .iter()
                        .any(|&(first, second)| first == class && second == g.class);
                    if inverted {
                        out.push(Finding::new(
                            LOCK_ORDER,
                            &f.rel_path,
                            t.line,
                            format!(
                                "lock-order inversion: acquiring `{}` while `{}` (line {}) is held — declared order is {} → {}",
                                class.name, g.class.name, g.line, class.name, g.class.name
                            ),
                        ));
                    } else if class == g.class && class.kind == Kind::Mutex {
                        out.push(Finding::new(
                            LOCK_ORDER,
                            &f.rel_path,
                            t.line,
                            format!(
                                "re-acquiring mutex class `{}` while already held (line {}) — self-deadlock",
                                class.name, g.line
                            ),
                        ));
                    }
                }
            }
            let has_let = code[stmt_start..=w].iter().any(|(_, s)| s.text == "let");
            // A guard is block-scoped only when the acquisition chain
            // itself is what the `let` binds: `.lock().expect(…)` chains
            // ending at `;` (or a let-else `else`). If the guard is
            // projected through (`self.router().assign.get(…)`), the
            // temporary dies at end of statement — exactly Rust's
            // temporary-lifetime rule.
            let bound = has_let && chain_ends_statement(&code, w);
            guards.push(Guard {
                class,
                depth,
                bound,
                line: t.line,
            });
        }
    }
}

/// From the acquisition method name at `code[w]`, walk the adapter chain
/// (`.expect(…)`, `.unwrap_or_else(…)`, `?`, …) and report whether the
/// chain result is what the statement binds — i.e. the next token after
/// the chain is `;` or a let-else `else`, so the guard lives to end of
/// block rather than end of statement.
fn chain_ends_statement(code: &[(usize, &crate::lexer::Token)], w: usize) -> bool {
    let mut j = w + 1; // at the `(` of the acquisition call
    loop {
        match code.get(j).map(|&(_, t)| t.text.as_str()) {
            Some("(") => {
                // Skip the matching parens.
                let mut depth = 0usize;
                while let Some(&(_, t)) = code.get(j) {
                    match t.text.as_str() {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j += 1;
            }
            Some("?") => j += 1,
            // Another adapter only if it is a *call*; a field projection
            // (the guard) means the chain keeps the temporary alive.
            Some(".") if code.get(j + 2).is_some_and(|&(_, t)| t.text == "(") => j += 2,
            Some(";") | Some("else") => return true,
            _ => return false,
        }
    }
}

/// Classify the token at `code[w]` as a lock acquisition, if it is one.
fn classify(
    classes: &[&(&str, &str, Via, Class)],
    code: &[(usize, &crate::lexer::Token)],
    w: usize,
) -> Option<Class> {
    let t = code[w].1;
    if t.kind != TokKind::Ident {
        return None;
    }
    let next = |k: usize| code.get(w + k).map(|&(_, n)| n.text.as_str());
    let prev = |k: usize| w.checked_sub(k).map(|p| code[p].1.text.as_str());
    match t.text.as_str() {
        // `<recv>.lock()` / `.read()` / `.write()` with empty parens —
        // the empty-args requirement is what distinguishes a guard
        // acquisition from `io::Read::read(buf)` and friends.
        "lock" | "read" | "write"
            if prev(1) == Some(".") && next(1) == Some("(") && next(2) == Some(")") =>
        {
            let recv = receiver_ident(code, w.checked_sub(2)?)?;
            classes
                .iter()
                .find(|(_, name, via, _)| *via == Via::Receiver && *name == recv)
                .map(|&&(_, _, _, c)| c)
        }
        // `self.helper(...)` — a guard-returning helper call. The `fn`
        // guard skips the helper's own definition site.
        name => {
            if next(1) != Some("(") || prev(1) == Some("fn") {
                return None;
            }
            classes
                .iter()
                .find(|(_, n, via, _)| *via == Via::Helper && *n == name)
                .map(|&&(_, _, _, c)| c)
        }
    }
}

/// The identifier naming the receiver whose guard method is called:
/// `router.lock()` → `router`; `self.shards[s].write()` → `shards`;
/// `wal.logs[s].lock()` → `logs`; `self.router().x` is handled by the
/// helper table instead.
fn receiver_ident(code: &[(usize, &crate::lexer::Token)], end: usize) -> Option<String> {
    let t = code[end].1;
    match t.text.as_str() {
        "]" => {
            // Walk back over the index expression to its `[`.
            let mut depth = 0usize;
            let mut j = end;
            loop {
                match code[j].1.text.as_str() {
                    "]" => depth += 1,
                    "[" => {
                        depth -= 1;
                        if depth == 0 {
                            return receiver_ident(code, j.checked_sub(1)?);
                        }
                    }
                    _ => {}
                }
                j = j.checked_sub(1)?;
            }
        }
        ")" => {
            // Method-call receiver: `…helper(…).lock()` — classify by the
            // method name before the matching `(`.
            let mut depth = 0usize;
            let mut j = end;
            loop {
                match code[j].1.text.as_str() {
                    ")" => depth += 1,
                    "(" => {
                        depth -= 1;
                        if depth == 0 {
                            return receiver_ident(code, j.checked_sub(1)?);
                        }
                    }
                    _ => {}
                }
                j = j.checked_sub(1)?;
            }
        }
        _ if t.kind == TokKind::Ident => Some(t.text.clone()),
        _ => None,
    }
}
