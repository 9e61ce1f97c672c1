//! `repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--quick] [--json] [--trace[=PATH]] [--out[=PATH]]
//! repro all [--quick] [--json]
//! repro fleetd [--nodes N] [--shards S] [--ticks T] [--seed X]
//!              [--threads K] [--jsonl[=PATH]] [--trace[=PATH]] [--out[=PATH]]
//! repro list
//! ```
//!
//! Experiments: fig1 fig2 fig3 fig4 fig5 fig6 fig8 fig9 table1 table3
//! table4 table5 table6 appendixA. (`table4` is produced together with
//! `fig8` — both come from the same simulation.)
//!
//! `--trace` records a deterministic `anubis-obs` virtual-time trace of
//! the run (default `target/trace.jsonl`; summarize with `cargo xtask
//! profile <path>`). `--out` additionally writes the rendered output to a
//! file (default `target/repro_output.txt`). Both accept `--flag=PATH` or
//! `--flag PATH` (with the experiment named first); output files default
//! under `target/` to keep the repo root clean.
//!
//! `repro fleetd` runs the `anubis-fleetd` continuous-validation service.
//! Its stdout (end-of-run summary) and `--jsonl` per-tick trace are
//! byte-deterministic — identical for any `ANUBIS_THREADS` / `--threads`
//! value and any `--shards` count — while wall-clock throughput figures
//! (events/s, nodes validated/s) go to stderr. CI's service-smoke step
//! byte-compares two runs at different thread counts. A configuration
//! that `FleetdConfig::validate` rejects (`--shards 0`, more shards than
//! nodes, `--ticks 0`, …) exits 2 with the reason before anything runs.

use anubis_bench::experiments::{
    appendix_a, fig1, fig2, fig3, fig4, fig5, fig6, fig8, fig9, table1, table3, table5, table6,
    EXPERIMENT_IDS,
};
use anubis_metrics::json::to_json;
use anubis_obs::wall::Stopwatch;
use std::path::PathBuf;

/// Output format of one experiment run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    /// The paper-style aligned tables.
    Text,
    /// Machine-readable JSON (one object per experiment).
    Json,
}

fn render<T: serde::Serialize + std::fmt::Display>(value: &T, format: Format) -> String {
    match format {
        Format::Text => value.to_string(),
        Format::Json => to_json(value).expect("experiment results are serializable"),
    }
}

fn run_one(id: &str, quick: bool, centroid_mean: bool, format: Format) -> Result<String, String> {
    let output = match id {
        "fig1" => {
            let cfg = if quick {
                fig1::Fig1Config::quick()
            } else {
                Default::default()
            };
            render(&fig1::run(&cfg), format)
        }
        "fig2" => {
            let cfg = if quick {
                fig2::Fig2Config::quick()
            } else {
                Default::default()
            };
            render(&fig2::run(&cfg), format)
        }
        "fig3" => {
            let cfg = if quick {
                fig3::Fig3Config::quick()
            } else {
                Default::default()
            };
            render(&fig3::run(&cfg), format)
        }
        "fig4" => {
            let cfg = if quick {
                fig4::Fig4Config::quick()
            } else {
                Default::default()
            };
            render(&fig4::run(&cfg), format)
        }
        "fig5" => {
            let cfg = if quick {
                fig5::Fig5Config::quick()
            } else {
                Default::default()
            };
            render(&fig5::run(&cfg), format)
        }
        "fig6" => {
            let cfg = if quick {
                fig6::Fig6Config::quick()
            } else {
                Default::default()
            };
            render(&fig6::run(&cfg), format)
        }
        "fig8" | "table4" => {
            let cfg = if quick {
                fig8::Fig8Config::quick()
            } else {
                Default::default()
            };
            render(&fig8::run(&cfg), format)
        }
        "fig9" => {
            let mut cfg = if quick {
                fig9::Fig9Config::quick()
            } else {
                Default::default()
            };
            if centroid_mean {
                cfg.centroid = anubis_validator::CentroidMethod::DistributionMean;
            }
            render(&fig9::run(&cfg), format)
        }
        "table1" => {
            let cfg = if quick {
                table1::Table1Config::quick()
            } else {
                Default::default()
            };
            render(&table1::run(&cfg), format)
        }
        "table3" => {
            let cfg = if quick {
                table3::Table3Config::quick()
            } else {
                Default::default()
            };
            render(&table3::run(&cfg), format)
        }
        "table5" => {
            let cfg = if quick {
                table5::Table5Config::quick()
            } else {
                Default::default()
            };
            render(&table5::run(&cfg), format)
        }
        "table6" => {
            let cfg = if quick {
                table6::Table6Config::quick()
            } else {
                Default::default()
            };
            render(&table6::run(&cfg), format)
        }
        "appendixA" | "appendixa" => {
            let cfg = if quick {
                appendix_a::AppendixAConfig::quick()
            } else {
                Default::default()
            };
            render(&appendix_a::run(&cfg), format)
        }
        other => return Err(format!("unknown experiment `{other}`")),
    };
    Ok(output)
}

/// Parsed command line.
struct Cli {
    quick: bool,
    centroid_mean: bool,
    format: Format,
    target: Option<String>,
    trace: Option<PathBuf>,
    out: Option<PathBuf>,
}

/// Parses `--flag`, `--flag=PATH`, and `--flag PATH` (the space form only
/// consumes the next token once the experiment has been named, so
/// `repro --trace table3` still treats `table3` as the experiment).
fn optional_path(
    rest: &str,
    args: &[String],
    i: &mut usize,
    target_seen: bool,
    default: &str,
) -> Option<PathBuf> {
    if let Some(explicit) = rest.strip_prefix('=') {
        return Some(PathBuf::from(explicit));
    }
    if !rest.is_empty() {
        return None; // e.g. `--tracey`: not this flag.
    }
    if target_seen {
        if let Some(next) = args.get(*i + 1).filter(|a| !a.starts_with("--")) {
            *i += 1;
            return Some(PathBuf::from(next));
        }
    }
    Some(PathBuf::from(default))
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        quick: false,
        centroid_mean: false,
        format: Format::Text,
        target: None,
        trace: None,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--quick" => cli.quick = true,
            "--centroid-mean" => cli.centroid_mean = true,
            "--json" => cli.format = Format::Json,
            _ if arg.starts_with("--trace") => {
                match optional_path(
                    &arg["--trace".len()..],
                    args,
                    &mut i,
                    cli.target.is_some(),
                    "target/trace.jsonl",
                ) {
                    Some(path) => cli.trace = Some(path),
                    None => return Err(format!("unknown flag `{arg}`")),
                }
            }
            _ if arg.starts_with("--out") => {
                match optional_path(
                    &arg["--out".len()..],
                    args,
                    &mut i,
                    cli.target.is_some(),
                    "target/repro_output.txt",
                ) {
                    Some(path) => cli.out = Some(path),
                    None => return Err(format!("unknown flag `{arg}`")),
                }
            }
            _ if arg.starts_with("--") => return Err(format!("unknown flag `{arg}`")),
            _ if cli.target.is_none() => cli.target = Some(arg.to_owned()),
            _ => return Err(format!("unexpected argument `{arg}`")),
        }
        i += 1;
    }
    Ok(cli)
}

/// Writes `contents` to `path`, creating parent directories.
fn write_file(path: &PathBuf, contents: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

fn usage_exit(message: Option<&str>) -> ! {
    if let Some(message) = message {
        eprintln!("error: {message}");
    }
    eprintln!(
        "usage: repro <experiment|all|list> [--quick] [--centroid-mean] [--json] [--trace[=PATH]] [--out[=PATH]]"
    );
    eprintln!("experiments: {}", EXPERIMENT_IDS.join(" "));
    std::process::exit(2);
}

/// Parsed `repro fleetd` command line.
struct FleetdCli {
    config: anubis_fleetd::FleetdConfig,
    jsonl: Option<PathBuf>,
    trace: Option<PathBuf>,
    out: Option<PathBuf>,
}

/// Parses the `fleetd` subcommand's flags (`--flag N` and `--flag=N`
/// forms for the numeric knobs) and validates the resulting config.
fn parse_fleetd_args(args: &[String]) -> Result<FleetdCli, String> {
    fn numeric<T: std::str::FromStr>(
        flag: &str,
        arg: &str,
        args: &[String],
        i: &mut usize,
    ) -> Result<Option<T>, String> {
        let rest = match arg.strip_prefix(flag) {
            Some(rest) => rest,
            None => return Ok(None),
        };
        let raw = if let Some(explicit) = rest.strip_prefix('=') {
            explicit.to_owned()
        } else if rest.is_empty() {
            *i += 1;
            match args.get(*i) {
                Some(next) => next.clone(),
                None => return Err(format!("`{flag}` needs a value")),
            }
        } else {
            return Ok(None); // e.g. `--nodesy`: not this flag.
        };
        match raw.parse::<T>() {
            Ok(value) => Ok(Some(value)),
            Err(_) => Err(format!("`{flag}` needs a number, got `{raw}`")),
        }
    }

    let mut cli = FleetdCli {
        config: anubis_fleetd::FleetdConfig::default(),
        jsonl: None,
        trace: None,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if let Some(n) = numeric::<u32>("--nodes", arg, args, &mut i)? {
            cli.config.nodes = n;
        } else if let Some(s) = numeric::<u32>("--shards", arg, args, &mut i)? {
            cli.config.shards = s;
        } else if let Some(t) = numeric::<u32>("--ticks", arg, args, &mut i)? {
            cli.config.ticks = t;
        } else if let Some(x) = numeric::<u64>("--seed", arg, args, &mut i)? {
            cli.config.seed = x;
        } else if let Some(k) = numeric::<usize>("--threads", arg, args, &mut i)? {
            cli.config.threads = k;
        } else if let Some(rest) = arg.strip_prefix("--jsonl") {
            match optional_path(rest, args, &mut i, true, "target/fleetd.jsonl") {
                Some(path) => cli.jsonl = Some(path),
                None => return Err(format!("unknown flag `{arg}`")),
            }
        } else if let Some(rest) = arg.strip_prefix("--trace") {
            match optional_path(rest, args, &mut i, true, "target/fleetd-trace.jsonl") {
                Some(path) => cli.trace = Some(path),
                None => return Err(format!("unknown flag `{arg}`")),
            }
        } else if let Some(rest) = arg.strip_prefix("--out") {
            match optional_path(rest, args, &mut i, true, "target/fleetd-summary.txt") {
                Some(path) => cli.out = Some(path),
                None => return Err(format!("unknown flag `{arg}`")),
            }
        } else {
            return Err(format!("unknown fleetd argument `{arg}`"));
        }
        i += 1;
    }
    cli.config
        .validate()
        .map_err(|error| format!("invalid fleetd configuration: {error}"))?;
    Ok(cli)
}

/// Runs the continuous-validation service and reports. Deterministic
/// output (summary, per-tick JSONL) goes to stdout and `--jsonl`;
/// wall-clock throughput goes to stderr only.
fn run_fleetd(args: &[String]) -> ! {
    let cli = match parse_fleetd_args(args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: repro fleetd [--nodes N] [--shards S] [--ticks T] [--seed X] \
                 [--threads K] [--jsonl[=PATH]] [--trace[=PATH]] [--out[=PATH]]"
            );
            std::process::exit(2);
        }
    };
    if cli.trace.is_some() {
        anubis_obs::enable();
    }
    let ticks = cli.config.ticks;
    let mut fleet = anubis_fleetd::Coordinator::new(cli.config);
    let mut jsonl = String::new();
    let want_jsonl = cli.jsonl.is_some();
    let started = Stopwatch::start();
    let summary = fleet.run(ticks, |tick| {
        if want_jsonl {
            tick.write_jsonl(&mut jsonl);
        }
    });
    let elapsed = started.elapsed_secs().max(1e-9);

    let rendered = summary.render();
    print!("{rendered}");
    let mut failed = false;
    if let Some(path) = &cli.out {
        match write_file(path, &rendered) {
            Ok(()) => eprintln!("summary written to {}", path.display()),
            Err(message) => {
                eprintln!("error: {message}");
                failed = true;
            }
        }
    }
    if let Some(path) = &cli.jsonl {
        match write_file(path, &jsonl) {
            Ok(()) => eprintln!("tick trace written to {}", path.display()),
            Err(message) => {
                eprintln!("error: {message}");
                failed = true;
            }
        }
    }
    if let Some(path) = &cli.trace {
        let trace = anubis_obs::drain();
        anubis_obs::disable();
        match write_file(path, &trace.to_jsonl()) {
            Ok(()) => eprintln!(
                "obs trace written to {} ({} records, {} dropped)",
                path.display(),
                trace.records.len(),
                trace.dropped
            ),
            Err(message) => {
                eprintln!("error: {message}");
                failed = true;
            }
        }
    }

    let node_ticks = f64::from(summary.nodes) * f64::from(summary.ticks);
    let events = summary.incidents + summary.samples + summary.jobs_started + summary.repairs;
    eprintln!(
        "fleetd: {} nodes x {} ticks ({} shards) in {:.2}s — {:.0} node-ticks/s, {:.0} events/s, {:.0} nodes validated/s",
        summary.nodes,
        summary.ticks,
        summary.shards,
        elapsed,
        node_ticks / elapsed,
        events as f64 / elapsed,
        summary.validations as f64 / elapsed,
    );
    std::process::exit(i32::from(failed));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "fleetd") {
        run_fleetd(&args[1..]);
    }
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => usage_exit(Some(&message)),
    };
    let Some(target) = cli.target.clone() else {
        usage_exit(None);
    };

    if target == "list" {
        for id in EXPERIMENT_IDS {
            println!("{id}");
        }
        return;
    }

    if cli.trace.is_some() {
        anubis_obs::enable();
    }

    // `table4` is rendered as part of fig8; avoid running the simulation
    // twice under `all`.
    let ids: Vec<&str> = if target == "all" {
        EXPERIMENT_IDS
            .iter()
            .copied()
            .filter(|&id| id != "table4")
            .collect()
    } else {
        vec![target.as_str()]
    };

    let mut collected = String::new();
    for id in ids {
        let started = Stopwatch::start();
        // Span names must be `'static`: map the requested id back onto the
        // experiment table (unknown ids fail inside `run_one` anyway).
        let span_name = EXPERIMENT_IDS
            .iter()
            .copied()
            .find(|e| e.eq_ignore_ascii_case(id))
            .unwrap_or("experiment");
        let result = {
            let _span = anubis_obs::span!(span_name);
            run_one(id, cli.quick, cli.centroid_mean, cli.format)
        };
        match result {
            Ok(output) => {
                let rendered = if cli.format == Format::Json {
                    format!("{output}\n")
                } else {
                    format!("=== {id} ({:.1}s) ===\n{output}\n", started.elapsed_secs())
                };
                print!("{rendered}");
                if cli.out.is_some() {
                    collected.push_str(&rendered);
                }
            }
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("experiments: {}", EXPERIMENT_IDS.join(" "));
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = &cli.out {
        if let Err(message) = write_file(path, &collected) {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
        eprintln!("output written to {}", path.display());
    }
    if let Some(path) = &cli.trace {
        let trace = anubis_obs::drain();
        anubis_obs::disable();
        let jsonl = trace.to_jsonl();
        if let Err(message) = write_file(path, &jsonl) {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
        eprintln!(
            "trace written to {} ({} records, {} dropped; summarize with `cargo xtask profile {}`)",
            path.display(),
            trace.records.len(),
            trace.dropped,
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn fleetd_args_parse_into_a_valid_config() {
        let cli = parse_fleetd_args(&args(&["--nodes", "64", "--shards=4", "--ticks", "3"]))
            .expect("valid arguments");
        assert_eq!(
            (cli.config.nodes, cli.config.shards, cli.config.ticks),
            (64, 4, 3)
        );
    }

    #[test]
    fn fleetd_args_reject_invalid_configs() {
        for (list, reason) in [
            (&["--shards", "0"][..], "shards must be at least 1"),
            (
                &["--nodes", "4", "--shards", "16"][..],
                "shards (16) must not exceed nodes (4)",
            ),
            (&["--ticks=0"][..], "ticks must be at least 1"),
            (&["--nodes", "0"][..], "nodes must be at least 1"),
        ] {
            match parse_fleetd_args(&args(list)) {
                Ok(_) => panic!("{list:?} must be rejected"),
                Err(message) => assert!(message.ends_with(reason), "{list:?}: {message}"),
            }
        }
    }
}
