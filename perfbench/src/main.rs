//! The repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop over the public functions of one part
//! of the system (see `README.md` beside this crate for why each was
//! chosen): `fleetd-wide` and `fleetd-long` drive the continuous-
//! validation service, `buildout` the Validator, `selector-refresh` the
//! Cox-Time Selector. A run repeats fixed-size episodes built from
//! `--seed` until `--seconds` have passed, checks every output, and
//! prints human-readable lines followed by one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod buildout;
mod fleet;
mod refresh;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use trace::Clock;

/// A named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms` or `count`.
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The timed phase of one episode.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall seconds spent in the timed calls.
    pub wall: f64,
    /// CPU seconds the process used from the end of setup to the end of
    /// the episode (see [`cpu_seconds`]).
    pub cpu: f64,
    /// Latency of every closed-loop operation, seconds.
    pub ops: Vec<f64>,
    /// Resident set at the end of the timed phase, MiB (the episode's
    /// state is largest then; see [`Outcome::first_rss`]).
    pub rss_mb: f64,
}

/// One episode as measured, with the machine's steal share during it.
#[derive(Debug)]
pub struct Episode {
    /// Whether spans and probes were recorded.
    pub traced: bool,
    /// The timed phase.
    pub timed: Timed,
    /// Share of each CPU's time over the episode that the hypervisor gave
    /// to other guests (see [`steal_seconds_per_cpu`]).
    pub steal: f64,
}

impl Episode {
    /// The episode's CPU seconds less the stolen share. The guest kernel
    /// counts time a thread was scheduled while the hypervisor ran another
    /// guest on its CPU as run time, so raw CPU time rises with steal;
    /// scaling by `1 - steal` removes that part.
    pub fn cpu_unstolen(&self) -> f64 {
        self.timed.cpu * (1.0 - self.steal).max(0.0)
    }
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: closed-loop operations plus the fits,
    /// criteria learning and setups a workload performs.
    pub attempted: u64,
    /// Attempted operations that returned an error or failed a check.
    pub failed: u64,
    /// CPU seconds of every setup.
    pub setup_s: Vec<f64>,
    /// Every completed episode, in run order.
    pub episodes: Vec<Episode>,
    /// The workload's output quality (higher is better; see README).
    pub quality: f64,
    /// Digest of every episode's deterministic output.
    pub digests: Vec<u64>,
    /// The workload's own end-to-end metrics, printed beside the gated
    /// ones.
    pub detail: Vec<Metric>,
    /// Per-layer metrics of the traced episodes, by module name.
    pub layers: Vec<Metric>,
    /// The per-layer metrics every workload reports (traced run only).
    pub tiers: Tiers,
}

impl Outcome {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The untraced episodes the timing metrics are taken from: all but
    /// the first, which warms caches and the allocator.
    pub fn timed(&self) -> Vec<&Episode> {
        let mut untraced: Vec<&Episode> = self.episodes.iter().filter(|e| !e.traced).collect();
        if untraced.len() > 1 {
            untraced.remove(0);
        }
        untraced
    }

    /// The median over [`Outcome::timed`] episodes of `f`.
    pub fn episode_median(&self, f: impl Fn(&Episode) -> f64) -> f64 {
        let values: Vec<f64> = self.timed().iter().map(|e| f(e)).collect();
        stats::median(&values)
    }

    /// Resident set at the end of the first episode, MiB. Later episodes
    /// start on a heap the allocator kept from earlier ones, so only the
    /// first shows what one episode's state occupies in a fresh process.
    pub fn first_rss(&self) -> f64 {
        self.episodes.first().map_or(0.0, |e| e.timed.rss_mb)
    }

    /// Every operation latency of the untraced episodes, pooled.
    pub fn pooled_ops(&self) -> Vec<f64> {
        self.episodes
            .iter()
            .filter(|e| !e.traced)
            .flat_map(|e| e.timed.ops.iter().copied())
            .collect()
    }

    /// Median wall time of the traced or untraced episodes.
    fn wall_median(&self, traced: bool) -> f64 {
        let walls: Vec<f64> = self
            .episodes
            .iter()
            .filter(|e| e.traced == traced)
            .map(|e| e.timed.wall)
            .collect();
        stats::median(&walls)
    }
}

/// The per-layer metrics in the JSON line of a traced run. Every
/// workload has each of these tiers; which module fills a tier on which
/// workload is listed in `README.md`.
#[derive(Debug, Default, Clone)]
pub struct Tiers {
    /// One input generation (the layer that builds the workload's state).
    pub inputs_ms: f64,
    /// p50 of the closed-loop decision call.
    pub decision_p50_ms: f64,
    /// p50 of the compute-layer probe.
    pub compute_p50_ms: f64,
    /// p50 of the statistics-layer probe.
    pub statistics_p50_ms: f64,
    /// p50 of the state refresh (merge tick, criteria learning, refit).
    pub refresh_p50_ms: f64,
    /// p50 of a no-op executor call at the workload's chunk count.
    pub executor_call_us: f64,
    /// Work items done by the decision calls (node-ticks, node
    /// validations, Selector queries) in the traced episodes.
    pub work_items: f64,
}

/// Runs fixed-size episodes until `seconds` have passed (at least two)
/// and returns them; an episode that returns `None` failed and is left
/// out. A traced run alternates untraced and traced episodes (starting
/// untraced, ending traced) so it can report the tracing overhead as the
/// difference of their wall times.
pub fn repeat_episodes(
    clock: &mut Clock,
    seconds: f64,
    mut episode: impl FnMut(&mut Clock) -> Option<Timed>,
) -> Vec<Episode> {
    let traced = clock.recording();
    let mut episodes = Vec::new();
    let mut n = 0usize;
    loop {
        if traced {
            clock.set_recording(n % 2 == 1);
        }
        let (start, stolen) = (clock.now(), steal_seconds_per_cpu());
        let timed = episode(clock);
        let elapsed = clock.now() - start;
        let steal = stats::ratio(steal_seconds_per_cpu() - stolen, elapsed);
        n += 1;
        if let Some(timed) = timed {
            println!(
                "episode {n}{}: {elapsed:.3} s, timed {:.3} s wall {:.3} s cpu, {:.1} MiB, steal {steal:.3}",
                if clock.recording() { " (traced)" } else { "" },
                timed.wall,
                timed.cpu,
                timed.rss_mb,
            );
            episodes.push(Episode {
                traced: clock.recording(),
                timed,
                steal,
            });
        }
        let min_done = n >= 2 && (!traced || n.is_multiple_of(2));
        if min_done && clock.now() >= seconds {
            break;
        }
    }
    clock.set_recording(traced);
    episodes
}

/// Times extra setups at the start of an episode, so `setup_s` is a
/// median of many samples spread over the whole run: at least
/// [`SETUP_MIN`], more while under [`SETUP_BUDGET_S`] CPU seconds.
pub fn time_setups(mut setup: impl FnMut() -> f64) -> Vec<f64> {
    let mut times = Vec::new();
    let mut spent = 0.0;
    while times.len() < SETUP_MIN || (spent < SETUP_BUDGET_S && times.len() < SETUP_MAX) {
        let dt = setup();
        spent += dt;
        times.push(dt);
    }
    times
}

/// Fewest extra setups per episode.
const SETUP_MIN: usize = 2;
/// Most extra setups per episode.
const SETUP_MAX: usize = 10;
/// CPU seconds of extra setups after which an episode adds no more.
const SETUP_BUDGET_S: f64 = 0.1;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// POSIX `clock_gettime`, from the C library the standard library
    /// already links on Linux.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds every thread of the process has run so far, exited
/// threads included, at nanosecond resolution; `0.0` if the clock is
/// unavailable. Unlike wall time it leaves out time a thread waited while
/// the hypervisor ran other guests, though their load still slows the
/// work it does count.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call and
    // the clock id is one the kernel defines; the call writes nothing
    // else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// Runs `f` and returns its result with the CPU seconds the process
/// used meanwhile, on every thread.
pub fn cpu_timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = cpu_seconds();
    let out = f();
    (out, cpu_seconds() - start)
}

/// Steal seconds per CPU of this machine so far, from `/proc/stat`: time
/// the hypervisor ran other guests while a CPU of this one was runnable,
/// averaged over the CPUs; `0.0` where unavailable.
pub fn steal_seconds_per_cpu() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let mut lines = stat.lines();
    let total = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(8)?.parse::<f64>().ok())
        .unwrap_or(0.0);
    let cpus = lines
        .filter(|l| {
            l.strip_prefix("cpu")
                .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
        })
        .count();
    stats::ratio(total / 100.0, cpus as f64)
}

/// Times `repeats` no-op executor calls over `chunks` chunks at the
/// default thread count and returns their median in microseconds.
pub fn executor_call_us(chunks: usize, repeats: usize) -> f64 {
    let mut items = vec![0u64; chunks];
    let mut samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let sw = anubis_obs::wall::Stopwatch::start();
        anubis_parallel::map_chunks_mut(&mut items, 1, 0, |i, chunk| {
            chunk[0] = std::hint::black_box(i as u64);
        });
        samples.push(sw.elapsed_secs() * 1e6);
    }
    stats::median(&samples)
}

/// A field of `/proc/self/status` in MiB (`VmHWM`, `VmRSS`), or `0.0`
/// where the file is unavailable.
pub fn proc_status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

const WORKLOADS: [&str; 4] = ["fleetd-wide", "fleetd-long", "buildout", "selector-refresh"];

const USAGE: &str =
    "usage: perfbench --workload <fleetd-wide|fleetd-long|buildout|selector-refresh> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for `{}`", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The git commit of the source tree, read from `.git` in the working
/// directory only (a checkout without `.git` reports `unknown`).
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .unwrap_or_default()
            .trim()
            .to_owned(),
        None => head.to_owned(),
    };
    if sha.is_empty() {
        "unknown".to_owned()
    } else {
        sha
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn provenance(args: &Args) -> String {
    let env = |name: &str| anubis_config::raw(name).unwrap_or_else(|| "unset".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "# host: nproc={nproc} cpu=\"{}\" rustc=\"{}\"\n\
         # threads: auto_threads={} ANUBIS_THREADS={} ANUBIS_INCREMENTAL={}\n\
         # run: workload={} seed={} seconds={} trace={} commit={}",
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
        anubis_parallel::auto_threads(),
        env(anubis_parallel::THREADS_ENV),
        env(anubis_parallel::INCREMENTAL_ENV),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(),
    )
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    out
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    let mut clock = Clock::new(args.trace);
    let mut out = match args.workload.as_str() {
        "fleetd-wide" => fleet::run(&fleet::WIDE, args.seed, args.seconds, &mut clock),
        "fleetd-long" => fleet::run(&fleet::LONG, args.seed, args.seconds, &mut clock),
        "buildout" => buildout::run(args.seed, args.seconds, &mut clock),
        _ => refresh::run(args.seed, args.seconds, &mut clock),
    };

    // Every episode of a run replays the same inputs, so their output
    // digests must agree.
    let digest = out.digests.first().copied().unwrap_or(0);
    let same = out.digests.iter().all(|&d| d == digest);
    out.check(same);
    println!(
        "digest: {digest:016x} over {} episodes ({})",
        out.digests.len(),
        if same { "identical" } else { "DIFFERENT" }
    );

    let error_rate = stats::ratio(out.failed as f64, out.attempted as f64);
    // The JSON carries the figures that hold still on a shared host: CPU
    // seconds less steal, memory and output quality. Wall-clock latency
    // moves with hypervisor steal (README, "Noise"), so it is printed
    // beside the run's steal share, not gated.
    let gated = vec![
        metric("setup_s", stats::median(&out.setup_s), "s"),
        metric("cpu_s", out.episode_median(Episode::cpu_unstolen), "s"),
        metric("rss_mb", out.first_rss(), "MB"),
        metric("quality", out.quality, "ratio"),
    ];
    let steal: Vec<f64> = out.timed().iter().map(|e| e.steal).collect();
    let wall = vec![
        metric("wall_s", out.episode_median(|e| e.timed.wall), "s"),
        metric("cpu_raw_s", out.episode_median(|e| e.timed.cpu), "s"),
        metric(
            "op_p50_ms",
            out.episode_median(|e| stats::quantile(&e.timed.ops, 0.50)) * 1e3,
            "ms",
        ),
        metric(
            "op_p95_ms",
            out.episode_median(|e| stats::quantile(&e.timed.ops, 0.95)) * 1e3,
            "ms",
        ),
        metric("peak_rss_mb", proc_status_mb("VmHWM"), "MB"),
        metric("steal", stats::median(&steal), "ratio"),
        metric("error_rate", error_rate, "ratio"),
    ];
    println!(
        "operations: {} attempted, {} failed ({} timed ops, {} episodes, {} timed)",
        out.attempted,
        out.failed,
        out.pooled_ops().len(),
        out.episodes.len(),
        out.timed().len(),
    );
    print_table("end-to-end (gated; the JSON line of --trace 0):", &gated);
    print_table("end-to-end (wall clock, printed only):", &wall);
    print_table("end-to-end (workload):", &out.detail);

    let metrics = if args.trace {
        let overhead = out.wall_median(true) - out.wall_median(false);
        print_table("per-layer:", &out.layers);
        let t = &out.tiers;
        let tiers = vec![
            metric("inputs_ms", t.inputs_ms, "ms"),
            metric("decision_p50_ms", t.decision_p50_ms, "ms"),
            metric("compute_p50_ms", t.compute_p50_ms, "ms"),
            metric("statistics_p50_ms", t.statistics_p50_ms, "ms"),
            metric("refresh_p50_ms", t.refresh_p50_ms, "ms"),
            metric("executor_call_us", t.executor_call_us, "us"),
            metric("work_items", t.work_items, "count"),
            metric("trace_overhead_s", overhead, "s"),
            metric("spans", clock.span_count() as f64, "count"),
        ];
        print_table("per-layer tiers (JSON):", &tiers);
        println!("layer table (traced episodes; probes run outside the measured calls):");
        for (layer, row) in clock.layers() {
            println!(
                "  {layer:<12} {:>8} calls {:>12.6} s total {:>12.6} s self",
                row.calls, row.total_s, row.self_s
            );
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-seed{}.jsonl", args.workload, args.seed);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, clock.to_jsonl())) {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => println!("spans not written ({path}): {e}"),
        }
        tiers
    } else {
        gated
    };

    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = out.failed == 0 && finite && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "buildout",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(a.workload, "buildout");
        assert_eq!(a.seed, 3);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "buildout", "--seed"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "buildout",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "2"
        ]))
        .is_err());
    }
}
