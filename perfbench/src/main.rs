//! End-to-end and per-layer benchmark of the query-scheduler reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One invocation runs one [`Workload`] for `--seconds` of host time. Its
//! inputs come from `--seed` alone: [`CONFIGS`] experiment configurations,
//! each on a seed derived from it. The measured loop cycles through them,
//! running each to its horizon with `run_experiment` under the settings a
//! user gets by default (invariant oracle and flight recorder on), and
//! checks every run: the oracle saw no violation, the workload's own
//! invariants hold, and a repeat of a configuration reproduces its first run
//! bit for bit (recorder digest, completions, goal accounting).
//!
//! Every host time is scaled to a steady host speed by a reference kernel
//! timed around it; see [`HostClock`].
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones:
//!
//! * `run_ms` — median scaled host milliseconds per experiment run;
//! * `slo_attainment` — share of post-warm-up (period, class) cells meeting
//!   their goal, averaged over the configurations;
//! * `setup_s` — median scaled host seconds to build and validate the
//!   inputs.
//!
//! With `--trace 1` the metrics are per layer, measured outside-in (see
//! [`trace`]), and the spans behind them are written to `perfbench/out/`.
//! What each should move:
//!
//! * `sim_ms`, `sim_ns_per_event` and `events` — `run_ms` on every
//!   workload;
//! * `recorder_ms`, `oracle_ms`, `oracle_checks` and `verify_pct` —
//!   `run_ms` on every workload, as verification is on by default;
//! * `control_plans` — `run_ms` on `fig6` and `chaos` (`fig4` has no
//!   control loop, and a fleet's merged output keeps no plan log); with
//!   `olap_completed`, `oltp_completed` and `peak_cpu_jobs`,
//!   `slo_attainment`;
//! * `release_sends`, `release_retries` and `fault_injections` — both on
//!   `chaos` only;
//! * `alloc_solves`, `alloc_units_moved` and `alloc_poll_ms` — both on
//!   `fleet` only;
//! * `score_us` — no end-to-end metric: scoring follows the timed run.

use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use qsched_core::scheduler::SchedulerConfig;
use qsched_core::transport::TransportMode;
use qsched_dbms::Timerons;
use qsched_experiments::figures::{figure_controller, main_config};
use qsched_experiments::scenarios::score;
use qsched_experiments::world::RunOutput;
use qsched_experiments::{
    run_experiment, ControllerSpec, ExperimentConfig, ScenarioRow, ShardSpec,
};
use qsched_sim::{ChaosTrack, FaultPlan, FaultSpec, SimDuration};
use qsched_workload::{compile_phases, PhaseOverlay, PhaseWindow, Schedule};

/// Experiment configurations generated per invocation. Goal accounting is
/// averaged over all of them, and each is timed several times in a run, so
/// the timing median is not hostage to one seed's event count. With 6,
/// `slo_attainment` spread by 3.5% of itself across seeds; 12 halves the
/// variance.
const CONFIGS: u64 = 12;

/// Repetitions of the input build; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// The paper's 18-period Figure 3 day with 60 s periods instead of 80 min:
/// 18 virtual minutes, a fraction of a second of host time per run.
const DAY_SCALE: f64 = 60.0 / 4800.0;

/// Events per reading of the [`reference_kernel`].
const REFERENCE_EVENTS: u64 = 20_000;

/// The reference kernel's time on the host speed all scaled times are
/// quoted at: its usual reading on an idle 2-core Xeon VM, so scaled times
/// read close to wall time on that host when nothing else runs.
const REFERENCE_MS: f64 = 5.6;

const USAGE: &str = "usage: qsched-perfbench --workload <fig6|fig4|fleet|chaos> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// The benchmark's workloads. Each stresses a different set of layers, and
/// pairs of them isolate a mechanism: `fig6` against `fig4` is the Query
/// Scheduler's control loop, `fig6` against `chaos` the fault-tolerant
/// release path, and `fleet` alone drives the global allocator barrier and
/// the lease protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// Figure 6: the paper's mix under the Query Scheduler (monitor, models
    /// and solver every control interval).
    Fig6,
    /// Figure 4: the same mix under a static system cost limit, bypassing
    /// the Query Scheduler's monitor, models and solver.
    Fig4,
    /// A flash crowd on a three-backend fleet under the leased global
    /// allocator.
    Fleet,
    /// Figure 6 over the enveloped release transport with loss, duplication
    /// and reordering, plus one controller crash: a warm restart from a
    /// checkpoint and the crash-free twin run that scores its recovery.
    Chaos,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Fig6,
        Workload::Fig4,
        Workload::Fleet,
        Workload::Chaos,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Fig6 => "fig6",
            Workload::Fig4 => "fig4",
            Workload::Fleet => "fleet",
            Workload::Chaos => "chaos",
        }
    }

    fn config(self, seed: u64) -> ExperimentConfig {
        match self {
            Workload::Fig6 => main_config(seed, figure_controller(6), DAY_SCALE),
            Workload::Fig4 => main_config(seed, figure_controller(4), DAY_SCALE),
            Workload::Fleet => fleet_config(seed),
            Workload::Chaos => chaos_config(seed),
        }
    }
}

/// Every backend carries the single-machine scoreboard mix (3, 4 and 16
/// clients), the first OLAP class triples in [120 s, 240 s), and the fleet
/// budget is three machine budgets, re-divided every 60 s.
///
/// The fleet steps on the default serial path: on a small host shared with
/// other tenants, a worker pool's wall time swings with thread wake-up
/// latency, which no single-threaded reference reading can factor out.
fn fleet_config(seed: u64) -> ExperimentConfig {
    let base = Schedule::new(SimDuration::from_secs(60), vec![vec![9, 12, 48]; 6]);
    let surge = PhaseOverlay::FlashCrowd {
        class: 0,
        windows: vec![PhaseWindow::from_secs(120, 240)],
        multiplier: 3.0,
    };
    let schedule = compile_phases(&base, &[surge], SimDuration::from_secs(30))
        .expect("the flash-crowd overlay fits the base schedule");
    let sc = SchedulerConfig {
        system_limit: Timerons::new(3.0 * SchedulerConfig::default().system_limit.get()),
        control_interval: SimDuration::from_secs(30),
        ..SchedulerConfig::default()
    };
    let mut spec = ShardSpec::new(3);
    spec.allocation_interval = SimDuration::from_secs(60);
    ExperimentConfig {
        schedule,
        shard: Some(spec),
        ..ExperimentConfig::paper(seed, ControllerSpec::QueryScheduler(sc))
    }
}

/// Figure 6 with every release sent as an envelope that may be lost,
/// duplicated or reordered, and one controller crash between 420 s and
/// 480 s, restarted warm from a 20 s checkpoint.
fn chaos_config(seed: u64) -> ExperimentConfig {
    let mut cfg = Workload::Fig6.config(seed);
    if let ControllerSpec::QueryScheduler(sc) = &mut cfg.controller {
        sc.transport.mode = TransportMode::Sim;
    }
    cfg.resilience.checkpoint_interval = Some(SimDuration::from_secs(20));
    let crash_window = (SimDuration::from_secs(420), SimDuration::from_secs(480));
    cfg.faults = Some(
        FaultPlan::new(seed ^ 0xc4a0_5eed)
            .channel("transport.drop", 0.05)
            .channel("transport.dup", 0.05)
            .with_channel(
                "transport.reorder",
                FaultSpec::rate(0.05).with_delay(SimDuration::from_millis(500)),
            )
            .with_channel("controller.crash", FaultSpec::rate(1.0).limited(1))
            .with_track(ChaosTrack::windows(&["controller.crash"], &[crash_window])),
    );
    cfg
}

/// SplitMix64 of `seed` advanced `i + 1` steps: unrelated seeds for the
/// configurations of one invocation.
fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Build the workload's inputs the way `qsched-run` receives them: each
/// configuration validated and carried through its JSON form.
fn build_inputs(workload: Workload, seed: u64) -> Result<Vec<ExperimentConfig>, String> {
    (0..CONFIGS)
        .map(|i| {
            let cfg = workload.config(derive_seed(seed, i));
            cfg.validate();
            let json = serde_json::to_string(&cfg).map_err(|e| format!("serialize: {e}"))?;
            let back: ExperimentConfig =
                serde_json::from_str(&json).map_err(|e| format!("parse: {e}"))?;
            if back != cfg {
                return Err(format!("config {i} changed in its JSON round trip"));
            }
            Ok(back)
        })
        .collect()
}

/// Build the inputs [`SETUP_REPS`] times; the median scaled build time in
/// seconds, and the inputs.
fn setup(
    workload: Workload,
    seed: u64,
    clock: &mut HostClock,
) -> Result<(f64, Vec<ExperimentConfig>), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        let (built, t) = clock.time(|| build_inputs(workload, seed));
        inputs = built?;
        secs.push(t.scaled_ms / 1e3);
    }
    Ok((quartiles(&secs)[1], inputs))
}

/// An event of the [`reference_kernel`], shaped like the simulator's own
/// event enums, which the flight recorder formats with `Debug`.
#[allow(dead_code)] // the fields are read only through `Debug`
#[derive(Debug)]
enum RefEvent {
    Arrive {
        client: u32,
        class: u8,
        cost: f64,
    },
    Done {
        id: u64,
        at: Duration,
        kind: Option<&'static str>,
    },
    Tick(u64, [u16; 3]),
}

/// A fixed job in the simulator's style: `n` pseudo-random events, each
/// queued in a bounded heap, formatted with `Debug` and folded into an
/// FNV-1a hash. Its work never changes, so its time measures the host.
fn reference_kernel(n: u64) -> u64 {
    let mut x: u64 = 0x1234_5678_9abc_def1;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut heap = BinaryHeap::with_capacity(4097);
    let mut text = String::new();
    for i in 0..n {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let event = match x % 3 {
            0 => RefEvent::Arrive {
                client: (x >> 8) as u32 % 5000,
                class: (x % 7) as u8,
                cost: (x % 100_000) as f64 / 7.0,
            },
            1 => RefEvent::Done {
                id: i,
                at: Duration::from_micros(x % 1_000_000_000),
                kind: (x & 8 == 0).then_some("olap"),
            },
            _ => RefEvent::Tick(x, [(x >> 3) as u16, (x >> 19) as u16, (x >> 35) as u16]),
        };
        heap.push((x % 65_536, i));
        if heap.len() > 4096 {
            heap.pop();
        }
        text.clear();
        let _ = write!(text, "{event:?}");
        for b in text.bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    hash ^ heap.len() as u64
}

/// Host time scaled to a steady host speed.
///
/// On a 2-core Xeon VM that shares its cores with other tenants, their load
/// slowed every run by up to 1.8× for seconds to minutes at a time, and the
/// median wall time of ten invocations on different seeds spread by 25–50%
/// of itself between quartiles. So each timed interval is bracketed by
/// readings of the [`reference_kernel`], and its wall time is multiplied by
/// `REFERENCE_MS / max(before, after)`: the time it would have taken on a
/// host where the kernel takes [`REFERENCE_MS`]. Load only ever slows the
/// kernel, so the slower of the two readings is the better guess at the
/// speed the interval saw. On that VM the spread fell to 2–6%.
struct HostClock {
    origin: Instant,
    /// The latest reference reading, in ms.
    last_ms: f64,
    /// Every reference reading, as (start, end) since `origin`.
    readings: Vec<(Duration, Duration)>,
}

/// One interval timed by a [`HostClock`], as offsets from its origin.
struct Timed {
    start: Duration,
    end: Duration,
    scaled_ms: f64,
}

impl HostClock {
    fn new() -> Self {
        let mut clock = HostClock {
            origin: Instant::now(),
            last_ms: 0.0,
            readings: Vec::new(),
        };
        clock.read();
        clock
    }

    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn read(&mut self) {
        let start = self.now();
        black_box(reference_kernel(black_box(REFERENCE_EVENTS)));
        let end = self.now();
        self.last_ms = (end - start).as_secs_f64() * 1e3;
        self.readings.push((start, end));
    }

    /// Run `f` between two reference readings.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let before = self.last_ms;
        let start = self.now();
        let out = f();
        let end = self.now();
        self.read();
        let scale = REFERENCE_MS / before.max(self.last_ms);
        let scaled_ms = (end - start).as_secs_f64() * 1e3 * scale;
        (
            out,
            Timed {
                start,
                end,
                scaled_ms,
            },
        )
    }

    /// The median reading over [`REFERENCE_MS`]: how much slower than the
    /// quoted speed the host ran.
    fn slowdown(&self) -> f64 {
        let ms: Vec<f64> = self
            .readings
            .iter()
            .map(|(s, e)| (*e - *s).as_secs_f64() * 1e3)
            .collect();
        quartiles(&ms)[1] / REFERENCE_MS
    }
}

/// Run one experiment, turning a panic (an oracle halt, a failed internal
/// assertion) into an error.
fn execute(cfg: &ExperimentConfig) -> Result<RunOutput, String> {
    catch_unwind(AssertUnwindSafe(|| run_experiment(cfg))).map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        format!("run panicked: {msg}")
    })
}

/// The checks every run must pass besides reproducing its first run.
fn check(workload: Workload, out: &RunOutput, row: &ScenarioRow) -> Result<(), String> {
    if !row.violation_free {
        return Err(format!("{} oracle violation(s)", row.oracle_violations));
    }
    if row.olap_completed == 0 || row.oltp_completed == 0 {
        return Err("a query kind completed nothing".into());
    }
    if !(0.0..=1.0).contains(&row.slo_attainment) {
        return Err(format!(
            "SLO attainment {} outside [0, 1]",
            row.slo_attainment
        ));
    }
    match workload {
        Workload::Fig6 | Workload::Fig4 => {}
        Workload::Fleet => {
            let fleet = out.report.shards.as_ref().ok_or("no fleet report")?;
            let olap: u64 = fleet.rows.iter().map(|r| r.olap_completed).sum();
            let oltp: u64 = fleet.rows.iter().map(|r| r.oltp_completed).sum();
            if fleet.rows.len() != 3 || olap != row.olap_completed || oltp != row.oltp_completed {
                return Err("per-backend completions do not add up to the fleet's".into());
            }
            if fleet.allocator.solves == 0 {
                return Err("the global allocator never solved".into());
            }
        }
        Workload::Chaos => {
            if row.crashes != 1 {
                return Err(format!(
                    "expected one controller crash, saw {}",
                    row.crashes
                ));
            }
            let rx = &out
                .report
                .transport
                .as_ref()
                .ok_or("no transport ledger")?
                .receiver;
            if rx.double_applied != 0 {
                return Err(format!("{} release(s) applied twice", rx.double_applied));
            }
            if rx.applied + rx.admitted_noop + rx.deduped + rx.stale_rejected != rx.received {
                return Err("the release receiver's books do not balance".into());
            }
        }
    }
    Ok(())
}

/// Per-run counts taken at the boundary of each layer's output.
#[derive(Clone, Copy, Default)]
struct Counts {
    events: u64,
    oracle_checks: u64,
    control_plans: u64,
    olap_completed: u64,
    oltp_completed: u64,
    peak_cpu_jobs: u64,
    release_sends: u64,
    release_retries: u64,
    fault_injections: u64,
    alloc_solves: u64,
    alloc_units_moved: u64,
}

impl Counts {
    fn of(out: &RunOutput, row: &ScenarioRow) -> Counts {
        let plans = out.plan_log.as_ref().map_or(0, |log| {
            log.all().first().map_or(0, |(_, series)| series.len())
        });
        let (sends, retries) = out
            .report
            .transport
            .as_ref()
            .map_or((0, 0), |t| (t.sender.sent, t.sender.retries));
        let (solves, moved) = out
            .report
            .shards
            .as_ref()
            .map_or((0, 0), |s| (s.allocator.solves, s.allocator.units_moved));
        Counts {
            events: row.events,
            oracle_checks: row.oracle_checks,
            control_plans: plans as u64,
            olap_completed: row.olap_completed,
            oltp_completed: row.oltp_completed,
            peak_cpu_jobs: out.perf.peak_cpu_jobs as u64,
            release_sends: sends,
            release_retries: retries,
            fault_injections: out.fault_counts.values().sum(),
            alloc_solves: solves,
            alloc_units_moved: moved,
        }
    }
}

/// The first successful run of one configuration.
struct Reference {
    /// Its scoreboard row without host throughput: a repeat must match it
    /// exactly.
    row: ScenarioRow,
    counts: Counts,
}

/// Run bookkeeping shared by the timed and the traced loop.
struct Bench<'a> {
    workload: Workload,
    inputs: &'a [ExperimentConfig],
    refs: Vec<Option<Reference>>,
    attempted: u64,
    failed: u64,
}

impl<'a> Bench<'a> {
    fn new(workload: Workload, inputs: &'a [ExperimentConfig]) -> Self {
        Bench {
            workload,
            inputs,
            refs: inputs.iter().map(|_| None).collect(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Check a finished run of configuration `k`; the first run of each
    /// configuration becomes its reference.
    fn verify(&mut self, k: usize, out: &RunOutput, row: &ScenarioRow) -> Result<(), String> {
        check(self.workload, out, row)?;
        let row = row.normalized();
        match &self.refs[k] {
            Some(r) if r.row != row => Err(format!(
                "config {k} did not reproduce its first run (digest {} vs {})",
                row.recorder_digest, r.row.recorder_digest
            )),
            Some(_) => Ok(()),
            None => {
                let counts = Counts::of(out, &row);
                self.refs[k] = Some(Reference { row, counts });
                Ok(())
            }
        }
    }

    /// Book one attempt; report a failure on stderr.
    fn tally(&mut self, k: usize, result: Result<(), String>) -> bool {
        self.attempted += 1;
        if let Err(e) = &result {
            self.failed += 1;
            eprintln!("{} config {k}: {e}", self.workload.name());
        }
        result.is_ok()
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.refs.iter().all(Option::is_some)
    }

    /// Mean over configurations of a reference value.
    fn mean_ref(&self, f: impl Fn(&Reference) -> f64) -> f64 {
        let vals: Vec<f64> = self.refs.iter().flatten().map(f).collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Keep going until the budget is spent, and at least until every
    /// configuration has run once.
    fn more(&self, i: usize, deadline: Instant) -> bool {
        i < self.inputs.len() || Instant::now() < deadline
    }
}

/// The timed loop: end-to-end metrics.
fn measure(
    workload: Workload,
    inputs: &[ExperimentConfig],
    budget: Duration,
    setup_s: f64,
    clock: &mut HostClock,
) -> Report {
    let mut bench = Bench::new(workload, inputs);
    // One untimed run first, so lazily touched memory and code are warm
    // before timing starts. It is checked like any other.
    let warm = execute(&inputs[0]).and_then(|out| {
        let row = score(workload.name(), &inputs[0], &out);
        bench.verify(0, &out, &row)
    });
    bench.tally(0, warm);

    let mut run_ms = Vec::new();
    let mut wall_ms = Vec::new();
    let start = Instant::now();
    let deadline = start + budget;
    let mut i = 0;
    while bench.more(i, deadline) {
        let k = i % inputs.len();
        let (result, t) = clock.time(|| execute(&inputs[k]));
        let result = result.and_then(|out| {
            let row = score(workload.name(), &inputs[k], &out);
            bench.verify(k, &out, &row)
        });
        if bench.tally(k, result) {
            run_ms.push(t.scaled_ms);
            wall_ms.push((t.end - t.start).as_secs_f64() * 1e3);
        }
        i += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();

    let q = quartiles(&run_ms);
    let slo = bench.mean_ref(|r| r.row.slo_attainment);
    println!(
        "{}: {} configs, {} timed runs in {elapsed:.2} s; run_ms p25 {:.2} p50 {:.2} p75 {:.2} \
         (wall p50 {:.2}, host slowdown {:.2}x); slo_attainment {slo:.4}; setup_s {setup_s:.6}",
        workload.name(),
        inputs.len(),
        run_ms.len(),
        q[0],
        q[1],
        q[2],
        quartiles(&wall_ms)[1],
        clock.slowdown(),
    );
    Report {
        correct: bench.correct(),
        attempted: bench.attempted,
        failed: bench.failed,
        metrics: vec![
            ("run_ms", q[1], "ms"),
            ("slo_attainment", slo, "fraction"),
            ("setup_s", setup_s, "s"),
        ],
    }
}

/// How much of the verification layer one traced run keeps. The oracle and
/// the flight recorder only read the world, so all three deliver the same
/// event stream and their host-time differences are what each layer costs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The default: recorder and oracle on.
    Full,
    /// Recorder on, oracle checks strided away.
    Recorder,
    /// Neither: the simulation alone.
    Bare,
}

impl Variant {
    fn span(self) -> &'static str {
        match self {
            Variant::Full => "run.full",
            Variant::Recorder => "run.recorder",
            Variant::Bare => "run.bare",
        }
    }

    fn apply(self, cfg: &ExperimentConfig) -> ExperimentConfig {
        let mut cfg = cfg.clone();
        match self {
            Variant::Full => {}
            Variant::Recorder => cfg.oracle.check_every = u64::MAX,
            Variant::Bare => cfg.oracle.enabled = false,
        }
        cfg
    }
}

/// One timed interval of the traced loop. Spans of one iteration share its
/// index; every span but the iteration's own has it as parent.
struct Span {
    iteration: usize,
    config: usize,
    name: &'static str,
    start: Duration,
    end: Duration,
    /// Scaled milliseconds; `None` for the iteration's own span, which also
    /// covers the reference readings between its children.
    scaled_ms: Option<f64>,
}

impl Span {
    fn timed(iteration: usize, config: usize, name: &'static str, t: Timed) -> Span {
        Span {
            iteration,
            config,
            name,
            start: t.start,
            end: t.end,
            scaled_ms: Some(t.scaled_ms),
        }
    }
}

/// The traced loop: per-layer metrics, measured outside-in. Each iteration
/// runs one configuration three times, peeling the verification layers off
/// from the outside ([`Variant`]), in an order that rotates so no variant
/// always runs first; then scores and checks the full run. From the spans:
///
/// * `sim_ms` — the bare run: event kernel, DBMS resource kernels, client
///   workload and controller;
/// * `recorder_ms` — recorder-only run minus bare run: the flight recorder;
/// * `oracle_ms` — full run minus recorder-only run: the invariant oracle;
/// * `verify_pct` — both, as a share of the full run;
/// * `score_us` — scoring the report into goal accounting.
///
/// The counts come from each configuration's first full run.
fn trace(
    workload: Workload,
    seed: u64,
    inputs: &[ExperimentConfig],
    budget: Duration,
    clock: &mut HostClock,
) -> Report {
    let mut bench = Bench::new(workload, inputs);
    let mut spans: Vec<Span> = Vec::new();
    let mut ns_per_event = Vec::new();
    let mut poll_ms = Vec::new();
    let deadline = Instant::now() + budget;
    let order = [Variant::Full, Variant::Recorder, Variant::Bare];
    let mut i = 0;
    while bench.more(i, deadline) {
        let k = i % inputs.len();
        let first = spans.len();
        let begin = clock.now();
        let mut rows: Vec<(Variant, ScenarioRow)> = Vec::with_capacity(2);
        let mut full: Option<RunOutput> = None;
        let mut result = Ok(());
        for step in 0..3 {
            let variant = order[(i + step) % 3];
            let cfg = variant.apply(&inputs[k]);
            let (out, t) = clock.time(|| execute(&cfg));
            spans.push(Span::timed(i, k, variant.span(), t));
            match out {
                Ok(out) if variant == Variant::Full => full = Some(out),
                Ok(out) => rows.push((variant, score(workload.name(), &cfg, &out))),
                Err(e) => result = Err(e),
            }
        }
        if let (Ok(()), Some(out)) = (&result, &full) {
            let (row, t) = clock.time(|| score(workload.name(), &inputs[k], out));
            spans.push(Span::timed(i, k, "score", t));
            let (checked, t) =
                clock.time(|| bench.verify(k, out, &row).and_then(|()| agree(&row, &rows)));
            spans.push(Span::timed(i, k, "check", t));
            result = checked;
            let bare = spans[first..]
                .iter()
                .find(|s| s.name == Variant::Bare.span())
                .and_then(|s| s.scaled_ms);
            if let Some(ms) = bare {
                ns_per_event.push(ms * 1e6 / row.events.max(1) as f64);
            }
            if let Some(fleet) = &out.report.shards {
                poll_ms.push(fleet.allocator.poll_ns as f64 / 1e6);
            }
        }
        spans.push(Span {
            iteration: i,
            config: k,
            name: "iteration",
            start: begin,
            end: clock.now(),
            scaled_ms: None,
        });
        if !bench.tally(k, result) {
            spans.truncate(first);
        }
        i += 1;
    }

    write_spans(workload, seed, &spans, &clock.readings);
    let per = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.scaled_ms)
            .collect()
    };
    let (full, recorder, bare) = (per("run.full"), per("run.recorder"), per("run.bare"));
    let diff = |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(x, y)| x - y).collect() };
    let verify_pct: Vec<f64> = full
        .iter()
        .zip(&bare)
        .map(|(f, b)| (f - b) / f * 100.0)
        .collect();
    let score_us: Vec<f64> = per("score").iter().map(|ms| ms * 1e3).collect();
    let count = |f: fn(&Counts) -> u64| bench.mean_ref(|r| f(&r.counts) as f64);
    println!(
        "{} traced: {} iterations, host slowdown {:.2}x; spans in perfbench/out/trace-{}-{seed}.jsonl",
        workload.name(),
        full.len(),
        clock.slowdown(),
        workload.name()
    );
    Report {
        correct: bench.correct(),
        attempted: bench.attempted,
        failed: bench.failed,
        metrics: vec![
            ("sim_ms", quartiles(&bare)[1], "ms"),
            ("recorder_ms", quartiles(&diff(&recorder, &bare))[1], "ms"),
            ("oracle_ms", quartiles(&diff(&full, &recorder))[1], "ms"),
            ("verify_pct", quartiles(&verify_pct)[1], "%"),
            ("sim_ns_per_event", quartiles(&ns_per_event)[1], "ns"),
            ("score_us", quartiles(&score_us)[1], "us"),
            ("alloc_poll_ms", quartiles(&poll_ms)[1], "ms"),
            ("events", count(|c| c.events), "count"),
            ("oracle_checks", count(|c| c.oracle_checks), "count"),
            ("control_plans", count(|c| c.control_plans), "count"),
            ("olap_completed", count(|c| c.olap_completed), "count"),
            ("oltp_completed", count(|c| c.oltp_completed), "count"),
            ("peak_cpu_jobs", count(|c| c.peak_cpu_jobs), "count"),
            ("release_sends", count(|c| c.release_sends), "count"),
            ("release_retries", count(|c| c.release_retries), "count"),
            ("fault_injections", count(|c| c.fault_injections), "count"),
            ("alloc_solves", count(|c| c.alloc_solves), "count"),
            ("alloc_units_moved", count(|c| c.alloc_units_moved), "count"),
        ],
    }
}

/// The runs that drop verification layers must see the same simulation as
/// the full run; the recorder-only run must also record the same stream.
fn agree(full: &ScenarioRow, others: &[(Variant, ScenarioRow)]) -> Result<(), String> {
    let outcome = |r: &ScenarioRow| {
        (
            r.events,
            r.olap_completed,
            r.oltp_completed,
            r.slo_attainment.to_bits(),
            r.utility.to_bits(),
            r.crashes,
            r.max_mttr_secs.map(f64::to_bits),
        )
    };
    for (variant, row) in others {
        if outcome(row) != outcome(full) {
            return Err(format!("{} changed the run's outcome", variant.span()));
        }
        if *variant == Variant::Recorder && row.recorder_digest != full.recorder_digest {
            return Err("the oracle changed the recorded event stream".into());
        }
    }
    Ok(())
}

/// Write the spans, and the host clock's reference readings as top-level
/// `reference` spans, as JSON lines under `perfbench/out/`. Tracing output
/// is diagnostic: a write failure is reported, not fatal.
fn write_spans(workload: Workload, seed: u64, spans: &[Span], readings: &[(Duration, Duration)]) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-{seed}.jsonl", workload.name()));
    let name = workload.name();
    let mut text = String::new();
    for s in spans {
        let parent = if s.name == "iteration" {
            "null"
        } else {
            "\"iteration\""
        };
        let scaled = s
            .scaled_ms
            .map_or("null".to_string(), |ms| format!("{:.0}", ms * 1e3));
        let _ = writeln!(
            text,
            "{{\"workload\": \"{name}\", \"iteration\": {}, \"config\": {}, \"name\": \"{}\", \
             \"parent\": {parent}, \"start_us\": {}, \"end_us\": {}, \"scaled_us\": {scaled}}}",
            s.iteration,
            s.config,
            s.name,
            s.start.as_micros(),
            s.end.as_micros()
        );
    }
    for (start, end) in readings {
        let _ = writeln!(
            text,
            "{{\"workload\": \"{name}\", \"iteration\": null, \"config\": null, \
             \"name\": \"reference\", \"parent\": null, \"start_us\": {}, \"end_us\": {}, \
             \"scaled_us\": null}}",
            start.as_micros(),
            end.as_micros()
        );
    }
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// First quartile, median and third quartile (linear interpolation between
/// order statistics); zeros for an empty sample.
fn quartiles(values: &[f64]) -> [f64; 3] {
    if values.is_empty() {
        return [0.0; 3];
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// The result line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && finite,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => {
                    seed = value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?
                }
                "--seconds" => {
                    seconds = value
                        .parse()
                        .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                    if !(1..=600).contains(&seconds) {
                        return Err(format!("--seconds {seconds} outside 1..=600"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut clock = HostClock::new();
    let (setup_s, inputs) = match setup(args.workload, args.seed, &mut clock) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("building the inputs failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let report = if args.trace {
        trace(args.workload, args.seed, &inputs, budget, &mut clock)
    } else {
        measure(args.workload, &inputs, budget, setup_s, &mut clock)
    };
    println!("{}", report.json());
    ExitCode::SUCCESS
}
