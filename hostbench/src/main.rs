//! `hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path hostbench/Cargo.toml -- \
//!     --workload ddr3_paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the run record and every metric by name and unit; the last
//! line is the JSON result. `--trace 1` also writes the recorded spans
//! to `.hostbench/spans-<workload>.bin`. Exits 1 when an output was
//! wrong, 2 on a usage error. `--describe` prints `workloads.json`.

use std::path::Path;
use std::process::ExitCode;

use flowlut_hostbench::report::{json_num, json_str, result_line};
use flowlut_hostbench::workload::{Size, Workload};
use flowlut_hostbench::{describe, timed, traced};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad value for {flag}: {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for {flag}: {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checked-out commit, when the working directory is a git checkout.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
}

/// FNV-1a over the program's sources, so a run names the code it built
/// even where there is no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("hostbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn run_record(a: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let params: Vec<String> = a
        .workload
        .params(Size::Full)
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"commit\": {}, \"source_digest\": {}, \"profile\": {}, \"params\": {{{}}}}}",
        json_str(a.workload.name()),
        a.seed,
        json_num(a.seconds),
        a.trace,
        commit().map_or("null".into(), |c| json_str(&c)),
        json_str(&source_digest()),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        params.join(", ")
    )
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--describe") {
        print!("{}", describe());
        return ExitCode::SUCCESS;
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!("usage: hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!("run {}", run_record(&args));
    let outcome = if args.trace {
        traced(args.workload, Size::Full, args.seed)
    } else {
        timed(args.workload, Size::Full, args.seed, args.seconds)
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("{:<30} {:>18} {}", m.name, json_num(m.value), m.unit);
    }
    if let Some(rec) = &outcome.spans {
        let path = Path::new(".hostbench").join(format!("spans-{}.bin", args.workload.name()));
        let written = std::fs::create_dir_all(".hostbench")
            .and_then(|()| std::fs::write(&path, rec.to_bytes()));
        match written {
            Ok(()) => println!("spans: {} written to {}", rec.spans.len(), path.display()),
            Err(e) => eprintln!("hostbench: writing {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
