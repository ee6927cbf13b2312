//! `replay_warm`: `sched_sim::replay` of Poisson-burst arrival traces (p2,
//! T192, 28 jobs, announced 24 slots ahead) under `resolve:1:warm`, each
//! trace with a fresh policy wrapped in a timing [`Policy`] of the
//! benchmark's own.
//!
//! The solver is used differently here than in `solve_offline`: re-solves
//! are warm (delta-repaired reductions, seeded gains, identical-instance
//! reuse) instead of cold builds, so a change that speeds cold builds at the
//! warm path's cost shows here.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sched_core::model::validate_schedule;
use sched_core::ArrivalTrace;
use sched_sim::{replay, Policy, PolicyKind, ResolveStats, SlotDecision, SlotView};
use workloads::{generate_trace, ArrivalConfig, TraceKind};

use crate::spans::Recorder;
use crate::speed::Speed;
use crate::{stats, Args, Metric, Outcome};

/// Traces in the pool.
const TRACES: usize = 60;
/// Slots by which every job is announced before its window opens.
const LEAD: u32 = 24;
/// p99 latency limit of one trace replay for `slo_rps`.
const LATENCY_LIMIT_S: f64 = 5.0;
/// Offered replay rates for `slo_rps`: 1/s × 1.02^k.
const SLO_LADDER: (f64, f64, usize) = (1.0, 1.02, 240);
const POLICY: PolicyKind = PolicyKind::Resolve {
    period: 1,
    warm: true,
};

fn generate(seed: u64) -> Vec<ArrivalTrace> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = ArrivalConfig {
        num_processors: 2,
        horizon: 192,
        target_jobs: 28,
        restart: 3.0,
        rate: 1.0,
        max_value: 1,
        slack: 2,
    };
    (0..TRACES)
        .map(|_| {
            let mut trace = generate_trace(TraceKind::PoissonBursts, &cfg, &mut rng);
            // Releasing earlier only relaxes the instance, so the trace
            // stays feasible; a per-slot re-solver then sees long quiet
            // stretches between arrivals, the shape warm starts target.
            for job in &mut trace.jobs {
                job.release = job.release.saturating_sub(LEAD);
            }
            trace
        })
        .collect()
}

/// Wraps the policy under test: times every `decide`, and keeps the spans
/// of the decisions that ran a re-solve (`resolve_stats().count`
/// advanced), except the replay's first. That one is the fresh policy's
/// cold solve, the kind `solve_offline` measures; counted here, its ~1% of
/// the samples would put the p99 on the edge between cold and warm solves,
/// where it jumps with the number of re-solves a seed's traces hold. With a
/// recorder, each decision is a span under the trace's root span. Host-speed
/// slices run between decisions, outside their spans.
struct Timed<'r> {
    inner: Box<dyn Policy>,
    resolves: u64,
    resolve_at: Vec<(Instant, Instant)>,
    decides: u64,
    speed: Option<&'r mut Speed>,
    rec: Option<(&'r mut Recorder, u64, u64)>,
}

impl Policy for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, view: &SlotView<'_>) -> SlotDecision {
        if let Some(speed) = self.speed.as_mut() {
            speed.tick();
        }
        let start = Instant::now();
        let decision = self.inner.decide(view);
        let end = Instant::now();
        self.decides += 1;
        let count = self.inner.resolve_stats().map_or(0, |s| s.count);
        if count > self.resolves {
            if self.resolves > 0 {
                self.resolve_at.push((start, end));
            }
            self.resolves = count;
        }
        if let Some((rec, root, op)) = self.rec.as_mut() {
            let id = rec.reserve();
            rec.record(id, *root, *op, "sim.decide", start, end);
        }
        decision
    }

    fn events(&self) -> u64 {
        self.inner.events()
    }

    fn resolve_stats(&self) -> Option<ResolveStats> {
        self.inner.resolve_stats()
    }
}

/// One replay's results.
struct Replayed {
    cost: f64,
    /// Start and end of every timed re-solve.
    resolve_at: Vec<(Instant, Instant)>,
    decides: u64,
    stats: ResolveStats,
}

/// Replays `trace` once with a fresh policy, with host-speed slices between
/// its decisions when `speed` is given; checks the outcome is a valid
/// schedule of the trace.
fn replay_once(
    trace: &ArrivalTrace,
    speed: Option<&mut Speed>,
    rec: Option<&mut Recorder>,
    op: u64,
) -> Result<Replayed, String> {
    let root = rec.as_ref().map(|_| Instant::now());
    let mut rec = rec.map(|r| {
        let id = r.reserve();
        (r, id, op)
    });
    let mut timed = Timed {
        inner: POLICY.build(None),
        resolves: 0,
        resolve_at: Vec::new(),
        decides: 0,
        speed,
        rec: rec.as_mut().map(|(r, id, op)| (&mut **r, *id, *op)),
    };
    let outcome = replay(trace, &mut timed).map_err(|e| format!("replay: {e}"))?;
    let (resolve_at, decides) = (timed.resolve_at, timed.decides);
    if let (Some((r, id, op)), Some(start)) = (rec, root) {
        r.record(id, 0, op, "replay", start, Instant::now());
    }
    let violations = validate_schedule(&trace.to_instance(), &outcome.schedule);
    if !violations.is_empty() {
        return Err(format!("invalid online schedule: {violations:?}"));
    }
    let stats = outcome
        .resolve_stats
        .ok_or("resolve policy reported no re-solve statistics")?;
    Ok(Replayed {
        cost: outcome.online_cost(),
        resolve_at,
        decides,
        stats,
    })
}

struct Pool {
    traces: Vec<ArrivalTrace>,
    reference: Vec<u64>,
    generate_s: f64,
}

/// Set-up: generate the traces and replay each once, recording its online
/// cost. Returns the pool and its energy.
fn setup(seed: u64) -> Result<(Pool, f64), String> {
    let t0 = Instant::now();
    let traces = generate(seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let mut reference = Vec::with_capacity(traces.len());
    let mut energy = 0.0;
    for (i, trace) in traces.iter().enumerate() {
        let r = replay_once(trace, None, None, i as u64).map_err(|e| format!("trace {i}: {e}"))?;
        reference.push(r.cost.to_bits());
        energy += r.cost;
    }
    Ok((
        Pool {
            traces,
            reference,
            generate_s,
        },
        energy,
    ))
}

/// Totals of one measured run.
#[derive(Default)]
struct Run {
    /// Per trace, the time of each of its replays, seconds, less the
    /// host-speed slices run during it and scaled to the reference speed.
    replay_s: Vec<Vec<f64>>,
    /// Per trace and re-solve (in replay order), the latency of that
    /// re-solve in each replay, seconds, scaled to the reference speed.
    /// Replays are deterministic, so the k-th re-solve of a trace is the same
    /// decision in every pass.
    resolve_s: Vec<Vec<Vec<f64>>>,
    /// The host speed measured.
    speed: Option<Speed>,
    decides: u64,
    warm: u64,
    resolves: u64,
}

impl Run {
    fn replays(&self) -> u64 {
        self.replay_s.iter().map(|r| r.len() as u64).sum()
    }
}

/// Closed-loop passes over the traces until `seconds` have elapsed (whole
/// passes only). Every replay must reproduce its set-up cost bit for bit.
fn measure(pool: &Pool, seconds: f64, mut rec: Option<&mut Recorder>, out: &mut Outcome) -> Run {
    let mut run = Run {
        replay_s: vec![Vec::new(); pool.traces.len()],
        resolve_s: vec![Vec::new(); pool.traces.len()],
        ..Run::default()
    };
    // Per trace, every replay's span and the slice time within it, and the
    // spans of its re-solves; scaled once the run's slices are all in.
    let mut replays = vec![Vec::new(); pool.traces.len()];
    let mut resolves: Vec<Vec<Vec<(Instant, Instant)>>> = vec![Vec::new(); pool.traces.len()];
    let t0 = Instant::now();
    let mut speed = Speed::new(t0);
    let mut op = 0u64;
    while t0.elapsed().as_secs_f64() < seconds {
        for (i, (trace, &reference)) in pool.traces.iter().zip(&pool.reference).enumerate() {
            speed.tick();
            let busy = speed.busy_s();
            let start = Instant::now();
            let r = replay_once(trace, Some(&mut speed), rec.as_deref_mut(), op);
            replays[i].push((start, Instant::now(), speed.busy_s() - busy));
            op += 1;
            match r {
                Ok(r) => {
                    if r.cost.to_bits() != reference {
                        out.error(format!(
                            "replay {op}: online cost {} differs from the first replay's {}",
                            r.cost,
                            f64::from_bits(reference)
                        ));
                    }
                    let per = &mut resolves[i];
                    if per.len() < r.resolve_at.len() {
                        per.resize(r.resolve_at.len(), Vec::new());
                    }
                    for (k, at) in r.resolve_at.into_iter().enumerate() {
                        per[k].push(at);
                    }
                    run.decides += r.decides;
                    run.warm += r.stats.warm;
                    run.resolves += r.stats.count;
                }
                Err(e) => {
                    out.failed += 1;
                    out.error(e);
                }
            }
        }
    }
    let scaled =
        |(start, end): (Instant, Instant)| (end - start).as_secs_f64() * speed.scale(start, end);
    for (i, reps) in replays.into_iter().enumerate() {
        run.replay_s[i] = reps
            .into_iter()
            .map(|(start, end, busy)| {
                ((end - start).as_secs_f64() - busy) * speed.scale(start, end)
            })
            .collect();
    }
    for (i, per) in resolves.into_iter().enumerate() {
        run.resolve_s[i] = per
            .into_iter()
            .map(|spans| spans.into_iter().map(scaled).collect())
            .collect();
    }
    run.speed = Some(speed);
    run
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut generate = Vec::new();
    let (pool, setup_s, energies) = crate::repeated_setup(
        || {
            let (pool, energy) = setup(args.seed)?;
            generate.push(pool.generate_s);
            Ok((pool, energy))
        },
        drop,
    )?;
    crate::check_setup_energies(&mut out, &energies);
    out.energy = energies[0];

    let mut run = measure(&pool, args.seconds, None, &mut out);
    if let Some(speed) = run.speed.take() {
        crate::speed::report(&speed);
    }
    let n = run.replays();
    out.attempted = n;
    // Every trace's median replay time and every re-solve's median latency:
    // the percentiles, throughput and rate search below are over these.
    let typical = stats::per_op_medians(&run.replay_s);
    let ops_per_s = stats::typical_rate(&typical);

    if !args.trace {
        let resolves: Vec<Vec<f64>> = run.resolve_s.into_iter().flatten().collect();
        let samples = resolves.iter().map(|r| r.len() as u64).sum();
        let sorted = stats::sorted(
            stats::per_op_medians(&resolves)
                .iter()
                .map(|s| s * 1e3)
                .collect(),
        );
        let (base, step, rungs) = SLO_LADDER;
        let slo =
            stats::fifo_slo_rate(&typical, &stats::ladder(base, step, rungs), LATENCY_LIMIT_S);
        out.metrics = vec![
            Metric::new("setup_s", setup_s, "s", crate::SETUP_REPS as u64),
            Metric::new("ops_per_s", ops_per_s, "1/s", n),
            Metric::new(
                "latency_p50_ms",
                stats::percentile(&sorted, 0.5),
                "ms",
                samples,
            ),
            Metric::new(
                "latency_p99_ms",
                stats::percentile(&sorted, 0.99),
                "ms",
                samples,
            ),
            Metric::new("ok_frac", (n - out.failed) as f64 / n as f64, "frac", n),
            Metric::new("energy", out.energy, "energy", pool.traces.len() as u64),
            Metric::new("slo_rps", slo, "1/s", n),
        ];
        return Ok(out);
    }

    // Traced replay of the same passes, with the program's own counters and
    // re-solve histogram collected through a thread-local registry.
    let registry = Arc::new(sched_obs::Registry::new());
    sched_obs::set_thread(Some(Arc::clone(&registry)));
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut traced_out = Outcome::default();
    let traced = measure(&pool, args.seconds / 2.0, Some(&mut rec), &mut traced_out);
    sched_obs::set_thread(None);
    out.errors.extend(traced_out.errors);
    crate::spans::write_jsonl(
        &crate::out_dir().join(format!("spans-replay_warm-{}.jsonl", args.seed)),
        rec.spans(),
    )
    .map_err(|e| format!("write spans: {e}"))?;

    let layers = crate::spans::layer_times(rec.spans());
    let decide = layers.get("sim.decide").copied().unwrap_or_default();
    let resolve = registry
        .histogram("sim.resolve.latency_ns")
        .snapshot("sim.resolve.latency_ns");
    let resolves = traced.resolves.max(1) as f64;
    let counter = |name: &str| registry.counter(name).get() as f64;
    let hist_sum = |name: &str| registry.histogram(name).snapshot(name).sum as f64;
    let (hits, misses) = (
        counter("core.gain_memo.hits"),
        counter("core.gain_memo.misses"),
    );
    let traced_ops_per_s = stats::typical_rate(&stats::per_op_medians(&traced.replay_s));
    out.metrics = vec![
        Metric::new(
            "workloads.generate_s",
            stats::median(&generate),
            "s",
            generate.len() as u64,
        ),
        Metric::new(
            "candidates.enumerate_ms",
            hist_sum("core.enumerate_ns") / 1e6 / resolves,
            "ms",
            traced.resolves,
        ),
        Metric::new(
            "candidates.count",
            counter("core.enumerate.candidates") / resolves,
            "count",
            traced.resolves,
        ),
        Metric::new(
            "objective.reduction_build_ms",
            (hist_sum("core.reduction.build_ns") + hist_sum("core.reduction.apply_delta_ns"))
                / 1e6
                / resolves,
            "ms",
            traced.resolves,
        ),
        Metric::new(
            "greedy.evaluations",
            counter("submodular.greedy.evaluations") / resolves,
            "count",
            traced.resolves,
        ),
        Metric::new(
            "greedy.memo_hit_frac",
            hits / (hits + misses).max(1.0),
            "frac",
            (hits + misses) as u64,
        ),
        Metric::new(
            "matching.augments",
            counter("matching.oracle.augments") / resolves,
            "count",
            traced.resolves,
        ),
        Metric::new(
            "warm.resolve_ms.p50",
            resolve.p50 as f64 / 1e6,
            "ms",
            resolve.count,
        ),
        Metric::new(
            "warm.resolve_ms.p99",
            resolve.p99 as f64 / 1e6,
            "ms",
            resolve.count,
        ),
        Metric::new(
            "warm.warm_frac",
            traced.warm as f64 / resolves,
            "frac",
            traced.resolves,
        ),
        Metric::new(
            "sim.decide_us",
            decide.self_ns as f64 / 1e3 / decide.count.max(1) as f64,
            "us",
            decide.count,
        ),
        Metric::new(
            "tracing.overhead_frac",
            ops_per_s / traced_ops_per_s - 1.0,
            "frac",
            traced.replays(),
        ),
    ];
    Ok(out)
}
