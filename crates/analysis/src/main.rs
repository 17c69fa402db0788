//! CLI for the workspace static-analysis pass. See `dblsh-analyze --help`.

use dblsh_analyze::findings::{parse_baseline, render_human, render_json, write_baseline};
use dblsh_analyze::workspace::Workspace;
use std::path::PathBuf;
use std::process::ExitCode;

const HELP: &str = "\
dblsh-analyze — workspace-native static analysis for DB-LSH

USAGE:
    dblsh-analyze [OPTIONS]

OPTIONS:
    --root <DIR>        Workspace root to scan [default: .]
    --format <F>        Output format: human | json [default: human]
    --deny-findings     Exit non-zero if any finding survives
                        suppressions and the baseline (the CI gate)
    --baseline <FILE>   Baseline path [default: <root>/analysis-baseline.json]
    --write-baseline    Regenerate the baseline from current findings
                        (inventories debt; does not silence suppressions)
    --rule <ID>         Run only this rule (repeatable)
    --list-rules        Print the rule ids and exit
    -h, --help          Print this help

RULES:
    unsafe-safety        every `unsafe` carries a SAFETY: comment
    panic-free-surface   no unwrap/expect/panic!/unreachable! in the
                         non-test code of core/data/index/serve/net/telemetry
    atomic-ordering      every atomic Ordering::* carries an `// order:` comment
    lock-order           the declared shard→wal and shard→router
                         hierarchy has no inversions
    wire-exhaustiveness  every proto.rs opcode is encoded, decoded,
                         dispatched by the server and reachable from the client

SUPPRESSIONS:
    // lint: allow(<rule>) — <reason>
    on the offending line (trailing) or the line directly above it.
    Suppressions without a reason, and suppressions that match nothing,
    are findings themselves (rule: bad-suppression).
";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = "human".to_string();
    let mut deny = false;
    let mut write = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut only: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_error("--root needs a value"),
            },
            "--format" => match args.next() {
                Some(v) if v == "human" || v == "json" => format = v,
                _ => return usage_error("--format must be human or json"),
            },
            "--deny-findings" => deny = true,
            "--write-baseline" => write = true,
            "--baseline" => match args.next() {
                Some(v) => baseline_path = Some(PathBuf::from(v)),
                None => return usage_error("--baseline needs a value"),
            },
            "--rule" => match args.next() {
                Some(v) => only.push(v),
                None => return usage_error("--rule needs a value"),
            },
            "--list-rules" => {
                for id in dblsh_analyze::rules::RULE_IDS {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument {other:?}")),
        }
    }

    let ws = match Workspace::scan(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let baseline_path = baseline_path.unwrap_or_else(|| root.join("analysis-baseline.json"));
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match parse_baseline(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: malformed baseline {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        },
        Err(_) => Vec::new(), // no baseline file = empty baseline
    };

    if write {
        // Regenerate from raw findings (suppressions still apply — the
        // baseline exists for debt that is *not* individually justified).
        let analysis = dblsh_analyze::analyze(&ws, &only, &[]);
        let doc = write_baseline(&analysis.findings);
        if let Err(e) = std::fs::write(&baseline_path, doc) {
            eprintln!("error: write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "baseline written: {} entries -> {}",
            analysis.findings.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let analysis = dblsh_analyze::analyze(&ws, &only, &baseline);
    let rendered = match format.as_str() {
        "json" => render_json(&analysis.findings, analysis.suppressed, analysis.baselined),
        _ => render_human(&analysis.findings, analysis.suppressed, analysis.baselined),
    };
    print!("{rendered}");

    if deny && !analysis.findings.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{HELP}");
    ExitCode::from(2)
}
