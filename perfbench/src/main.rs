//! Open-loop end-to-end benchmark of the SIMBA alert path.
//!
//! ```text
//! perfbench --workload <ingest-tcp|fallback-churn|rules-churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one gated pass;
//! `--trace 1` prints the per-layer metrics of a traced pass, plus the
//! passes it is compared with (see `README.md`). The last stdout line is
//! the result object; the line before it records the run's settings.
//! Every file the run writes lives under `.perfbench-run/` (removed at
//! exit) and `.perfbench-out/` (result files) in the working directory.

mod check;
mod cpu;
mod run;
mod sched;
mod sink;

use run::{per, q, slice_q, slice_within, values, PassOptions, Shape, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Set-ups timed per gated pass; `setup_s` is their median.
const GATED_SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run one untraced pass with telemetry on (`Some(true)`)
    /// or off and print only its CPU figure (see [`traced`]).
    cpu_pass: Option<bool>,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <ingest-tcp|fallback-churn|rules-churn> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cpu_pass = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).unwrap_or_else(|| usage("unknown workload")))
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => seconds = Some(value.parse().unwrap_or_else(|_| usage("bad --seconds"))),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => usage("--trace takes 0 or 1"),
            },
            "--cpu-pass" => match value.as_str() {
                "on" => cpu_pass = Some(true),
                "off" => cpu_pass = Some(false),
                _ => usage("--cpu-pass takes on or off"),
            },
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        usage("--seconds must be at least 1");
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        cpu_pass,
    }
}

/// The filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest matching mount point wins).
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best = (0usize, "unknown".to_string());
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), (*fstype).to_string());
        }
    }
    best.1
}

/// An ordered list of `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

fn report_violations(label: &str, pass: &run::Pass) {
    for v in &pass.verdict.violations {
        eprintln!("perfbench: {label}: {v}");
    }
    if pass.write_failures > 0 {
        eprintln!(
            "perfbench: {label}: {} rule writes failed",
            pass.write_failures
        );
    }
}

/// The gated pass: every end-to-end metric.
fn gated(shape: &Shape, args: &Args, dir: &Path) -> Result<(bool, u64, u64, Metrics), String> {
    let opts = PassOptions {
        telemetry: true,
        traced: false,
        setups: GATED_SETUPS,
    };
    let pass = run::run_pass(shape, args.seconds, opts, dir)?;
    report_violations("gated", &pass);
    let v = &pass.verdict;
    let metrics = vec![
        ("setup_s", run::median(&pass.setup_s), "s"),
        ("cpu_us_per_alert", pass.slice_cpu_us_per_alert(), "us"),
        ("peak_rss_mb", cpu::peak_rss_mb(), "MiB"),
        ("delivered_frac", per(v.matched as f64, v.offered), "ratio"),
        (
            "deliver_p50_ms",
            slice_q(&v.deliver, pass.window, 0.50, 1e6),
            "ms",
        ),
        (
            "deliver_within_1ms_frac",
            slice_within(&v.deliver, pass.window, 1_000_000),
            "ratio",
        ),
        (
            "ack_p50_us",
            slice_q(&pass.ack, pass.window, 0.50, 1e3),
            "us",
        ),
    ];
    let attempted = v.offered + pass.writes;
    let failed = v.violation_count + pass.write_failures;
    Ok((pass.correct(), attempted, failed, metrics))
}

/// What a `--cpu-pass` child reports.
struct CpuPass {
    cpu_us_per_alert: f64,
    correct: bool,
    attempted: u64,
    failed: u64,
}

/// Runs one untraced pass in a child process of this program, so its
/// host is the first the process builds (see `run::run_pass`).
fn cpu_pass_child(args: &Args, telemetry: bool) -> Result<CpuPass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args([
            "--trace",
            "0",
            "--cpu-pass",
            if telemetry { "on" } else { "off" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cpu pass: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<&str> = text
        .lines()
        .last()
        .unwrap_or("")
        .split_whitespace()
        .collect();
    match (out.status.success(), fields.as_slice()) {
        (true, ["cpu-pass", cpu, correct, attempted, failed]) => Ok(CpuPass {
            cpu_us_per_alert: cpu
                .parse()
                .map_err(|_| "cpu pass: bad figure".to_string())?,
            correct: *correct == "1",
            attempted: attempted.parse().unwrap_or(0),
            failed: failed.parse().unwrap_or(1),
        }),
        _ => Err(format!("cpu pass (telemetry {telemetry}) failed: {text}")),
    }
}

/// The traced run: a traced pass for the per-layer numbers, the same
/// pass untraced (tracing overhead) and with telemetry disabled
/// (telemetry's CPU share) in child processes, plus the isolated rules
/// replay.
fn traced(shape: &Shape, args: &Args, dir: &Path) -> Result<(bool, u64, u64, Metrics), String> {
    let t = run::run_pass(
        shape,
        args.seconds,
        PassOptions {
            telemetry: true,
            traced: true,
            setups: 1,
        },
        &dir.join("traced"),
    )?;
    report_violations("traced", &t);
    let evaluate_ns = run::evaluate_replay(shape, args.seconds, &dir.join("replay"))?;
    let plain = cpu_pass_child(args, true)?;
    let dark = cpu_pass_child(args, false)?;

    let v = &t.verdict;
    let offered = v.offered;
    let deliveries = v.offered - v.absorbed - v.suppressed;
    let pool = t.pool.unwrap_or_default();
    let ledger = t.ledger.unwrap_or_default();
    let log = t.snap.log;
    let (gw_submit, rt_submit) = if shape.tcp {
        (t.call_ns.as_slice(), &[][..])
    } else {
        (&[][..], t.call_ns.as_slice())
    };
    let metrics: Metrics = vec![
        (
            "gateway.cpu_us_per_alert",
            t.group_us_per_alert(cpu::Group::Gateway),
            "us",
        ),
        ("gateway.submit_us.p50", q(gw_submit, 0.50, 1e3), "us"),
        ("gateway.submit_us.p99", q(gw_submit, 0.99, 1e3), "us"),
        (
            "gateway.nack_frac",
            if shape.tcp {
                per(t.refused as f64, offered)
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "gateway.queue_depth.max",
            t.gateway_depth_max as f64,
            "count",
        ),
        (
            "gateway.queue_depth.invalid",
            t.gateway_depth_invalid as f64,
            "count",
        ),
        (
            "bridge.cpu_us_per_alert",
            t.group_us_per_alert(cpu::Group::Pump),
            "us",
        ),
        (
            "bridge.unrouted",
            (t.pump.map_or(0, |p| p.unrouted) + t.snap.unrouted) as f64,
            "count",
        ),
        ("rules.write_ms.p50", q(&t.write_ns, 0.50, 1e6), "ms"),
        ("rules.write_ms.p90", q(&t.write_ns, 0.90, 1e6), "ms"),
        ("rules.write_ms.p99", q(&t.write_ns, 0.99, 1e6), "ms"),
        ("rules.evaluate_ns.p50", q(&evaluate_ns, 0.50, 1.0), "ns"),
        (
            "rules.absorbed_frac",
            per(v.absorbed as f64, offered),
            "ratio",
        ),
        (
            "rules.suppressed_frac",
            per(v.suppressed as f64, offered),
            "ratio",
        ),
        ("rules.digests_delivered", v.digests as f64, "count"),
        (
            "runtime.cpu_us_per_alert",
            t.group_us_per_alert(cpu::Group::Shard),
            "us",
        ),
        ("runtime.submit_us.p50", q(rt_submit, 0.50, 1e3), "us"),
        ("runtime.submit_us.p99", q(rt_submit, 0.99, 1e3), "us"),
        ("runtime.queue_depth.max", t.host_depth_max as f64, "count"),
        (
            "runtime.activations_per_alert",
            per(t.activations as f64, offered),
            "count",
        ),
        (
            "runtime.hibernations_per_alert",
            per(t.snap.hibernations as f64, offered),
            "count",
        ),
        (
            "runtime.rehydrations_per_alert",
            per(t.snap.rehydrations as f64, offered),
            "count",
        ),
        (
            "shardlog.commits_per_alert",
            per(log.group_commits as f64, offered),
            "count",
        ),
        (
            "shardlog.writes_per_commit",
            per((log.appends + log.marks) as f64, log.group_commits),
            "count",
        ),
        (
            "delivery.sends_per_alert",
            per(v.sends as f64, offered),
            "count",
        ),
        (
            "delivery.fallback_frac",
            per(v.fallbacks as f64, deliveries),
            "ratio",
        ),
        (
            "delivery.early_fallback_frac",
            per(v.early_fallbacks as f64, v.fallbacks),
            "ratio",
        ),
        (
            "ledger.cpu_us_per_alert",
            t.group_us_per_alert(cpu::Group::Ledger),
            "us",
        ),
        (
            "ledger.commits_per_alert",
            per(ledger.commit_batches as f64, offered),
            "count",
        ),
        (
            "ledger.records_per_lease",
            per(pool.sent as f64, pool.lease_batches),
            "count",
        ),
        (
            "ledger.polls_per_send",
            per(t.clock_polls as f64, pool.sent),
            "count",
        ),
        (
            "telemetry.cpu_share",
            1.0 - dark.cpu_us_per_alert / plain.cpu_us_per_alert,
            "ratio",
        ),
        (
            "telemetry.increments_per_alert",
            per(t.increments as f64, offered),
            "count",
        ),
        ("loadgen.late_ms.p99", q(&t.late_ns, 0.99, 1e6), "ms"),
        ("loadgen.late_ms.max", q(&t.late_ns, 1.0, 1e6), "ms"),
        (
            "trace.overhead_frac",
            t.cpu_us_per_alert() / plain.cpu_us_per_alert - 1.0,
            "ratio",
        ),
        ("cpu.unattributed_frac", t.cpu.unattributed_frac(), "ratio"),
        ("cpu.service_us_per_alert", t.cpu_us_per_alert(), "us"),
        ("deliver_p90_ms", q(&values(&v.deliver), 0.90, 1e6), "ms"),
        ("deliver_p99_ms", q(&values(&v.deliver), 0.99, 1e6), "ms"),
        ("deliver_p999_ms", q(&values(&v.deliver), 0.999, 1e6), "ms"),
        ("deliver.samples", v.deliver.len() as f64, "count"),
        ("ack_p90_us", q(&values(&t.ack), 0.90, 1e3), "us"),
        ("ack_p99_us", q(&values(&t.ack), 0.99, 1e3), "us"),
        ("ack_p999_us", q(&values(&t.ack), 0.999, 1e3), "us"),
        ("ack.samples", t.ack.len() as f64, "count"),
    ];
    let correct = t.correct() && plain.correct && dark.correct;
    let attempted = t.verdict.offered + t.writes + plain.attempted + dark.attempted;
    let failed = t.verdict.violation_count + t.write_failures + plain.failed + dark.failed;
    Ok((correct, attempted, failed, metrics))
}

fn main() {
    let args = parse_args();
    let shape = Shape::of(args.workload, args.seed);
    let root = PathBuf::from(".perfbench-run");
    let dir = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let log_fs = filesystem_of(&dir);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Some(telemetry) = args.cpu_pass {
        let opts = PassOptions {
            telemetry,
            traced: false,
            setups: 1,
        };
        let pass = run::run_pass(&shape, args.seconds, opts, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir(&root);
        match pass {
            Ok(pass) => {
                report_violations(
                    if telemetry {
                        "telemetry-on"
                    } else {
                        "telemetry-off"
                    },
                    &pass,
                );
                println!(
                    "cpu-pass {} {} {} {}",
                    pass.cpu_us_per_alert(),
                    u8::from(pass.correct()),
                    pass.verdict.offered + pass.writes,
                    pass.verdict.violation_count + pass.write_failures
                );
                return;
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    }
    let outcome = if args.trace {
        traced(&shape, &args, &dir)
    } else {
        gated(&shape, &args, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&root);
    let (correct, attempted, failed, metrics) = match outcome {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let info = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cores\": {cores}, \
         \"log_fs\": \"{log_fs}\", \"shard_logs\": \"memory\", \"ledger\": \"memory\", \"rules_log\": \"{log_fs} run directory\", \"telemetry\": \"{}\", \
         \"rate_per_s\": {}, \"registered\": {}, \"active\": {}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.trace { "ring-buffer; plus a telemetry-disabled pass" } else { "ring-buffer" },
        shape.rate,
        shape.registered,
        shape.active.len(),
    );
    let result = result_line(correct, attempted, failed, &metrics);
    let out_dir = PathBuf::from(".perfbench-out");
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let file = out_dir.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        ));
        let _ = std::fs::write(
            file,
            format!("{{\"info\": {info}, \"result\": {result}}}\n"),
        );
    }
    println!("{{\"info\": {info}}}");
    println!("{result}");
}
