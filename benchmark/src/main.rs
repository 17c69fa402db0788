//! The repo's standing benchmark. See `README.md` for the workloads,
//! metric definitions and how to compare two commits.
//!
//! ```text
//! dblsh-benchmark [--workload <name>|all] [--seed <u64>] [--seconds <n>]
//!                 [--trace <0|1>] [--quick] [--out <file>]
//! dblsh-benchmark --compare <A> <B>
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: with `--trace 0`
//! every end-to-end metric, with `--trace 1` every per-layer metric.

mod compare;
mod e2e;
mod json;
mod layers;
mod spec;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::{obj, Value};
use spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out/results.json"),
        compare: None,
    };
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => quick = true,
            "--out" => args.out = value()?.into(),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if quick {
        args.seconds /= 10.0;
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// The result object the driver reads, for one workload.
fn result_value(w: &Workload, trace: bool, rep: &e2e::Report) -> Result<Value, String> {
    let units: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in units {
        let value = rep
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or(format!("{}: metric {name} was not measured", w.name))?;
        if !value.is_finite() {
            return Err(format!("{}: metric {name} is {value}", w.name));
        }
        metrics.push((
            name.to_string(),
            obj([("value", value.into()), ("unit", unit.into())]),
        ));
    }
    if metrics.len() != rep.metrics.len() {
        return Err(format!(
            "{}: measured a metric that is not in the tables",
            w.name
        ));
    }
    Ok(obj([
        ("correct", (rep.failed == 0).into()),
        ("attempted", rep.attempted.into()),
        ("failed", rep.failed.into()),
        ("metrics", Value::Object(metrics)),
    ]))
}

fn commit() -> String {
    // The driver's checkout is not a git repository; say so rather than guess.
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => {
            std::fs::read_to_string(git.join(r)).map_or("unknown".into(), |s| s.trim().into())
        }
        None if !head.is_empty() => head.into(),
        None => "unknown".into(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

fn run(args: &Args) -> Result<bool, String> {
    let chosen: Vec<&Workload> = if args.workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        vec![spec::workload(&args.workload).ok_or(format!(
            "unknown workload {}; one of: all, {}",
            args.workload,
            WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        ))?]
    };
    let mut all_correct = true;
    let (mut lines, mut workloads) = (Vec::new(), Vec::new());
    for w in chosen {
        println!(
            "== {} (seed {}, {} s, trace {}): {}",
            w.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            w.why
        );
        let inputs = workload::make_inputs(w, args.seed);
        let rep = if args.trace {
            layers::run(w, &inputs, args.seed, args.seconds)?
        } else {
            e2e::run(w, &inputs, args.seed, args.seconds)?
        };
        drop(inputs);
        for note in &rep.notes {
            println!("  {note}");
        }
        let table = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)));
        for (name, unit, better) in table {
            if let Some((_, v)) = rep.metrics.iter().find(|(n, _)| *n == name) {
                println!(
                    "  {name:<42} {v:>16.4} {unit:<6} ({} is better)",
                    better.as_str()
                );
            }
        }
        // The result line the driver reads, and the same object with the
        // diagnostics attached for the results file.
        let line = result_value(w, args.trace, &rep)?;
        all_correct &= rep.failed == 0;
        let mut filed = line.as_object().expect("result is an object").to_vec();
        let notes = rep.notes.iter().map(|n| n.as_str().into()).collect();
        filed.push(("notes".into(), Value::Array(notes)));
        lines.push(line);
        workloads.push((w.name.to_string(), Value::Object(filed)));
    }
    let meta = obj([
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        (
            "nproc",
            (std::thread::available_parallelism().map_or(1, |v| v.get()) as u64).into(),
        ),
        (
            "simd_arch",
            format!("{:?}", db_lsh::data::kernels::simd_arch()).into(),
        ),
        ("rustc", rustc_version().into()),
        ("commit", commit().into()),
    ]);
    let doc = obj([("meta", meta), ("workloads", Value::Object(workloads))]);
    if let Some(parent) = args.out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(&args.out, doc.render() + "\n")
        .map_err(|e| format!("write {}: {e}", args.out.display()))?;
    println!("wrote {}", args.out.display());
    // One result line per workload; the driver runs one workload and
    // reads the last line.
    for line in &lines {
        println!("{}", line.render());
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.compare {
        Some((a, b)) => compare::run(a, b),
        None => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
