//! `serve_mixed`: the real TCP server (`serve_with_options`, two workers,
//! bounded queue, `reject` shedding) on loopback, driven by small planted
//! requests across a few grid shapes and all three solve modes.
//!
//! * Closed loop: one v3-binary connection and one legacy JSONL connection,
//!   each keeping a fixed window of requests in flight, one client thread
//!   each. Gives `ops_per_s`.
//! * Open loop: Poisson arrivals at the fixed absolute rate
//!   [`FIXED_RATE`] on one binary connection, one sender and one receiver
//!   thread, each request timed from when it was due, every
//!   [`TAIL_EVERY`]-th request a large one. Judged in one-second windows;
//!   gives the latency percentiles and `loadgen.lag_p99_ms`.
//! * `slo_rps`: binary search over a fixed ladder of absolute rates for the
//!   highest one whose open-loop p99 meets [`LATENCY_LIMIT_MS`] with nothing
//!   shed and no backlog left at the end.
//!
//! Decode, encode, queueing and the per-worker warm-handle cache dominate
//! here; a small request's solve takes tens of microseconds.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sched_core::model::validate_schedule;
use sched_core::{AffineCost, CandidatePolicy, Schedule, Solver};
use sched_engine::codec::{self, WireFormat};
use sched_engine::{
    parse_line, parse_value, serve_with_options, Engine, EngineConfig, ErrorKind, ServeOptions,
    ShedPolicy, SolveMode, SolveRequest, SolveResponse, WireRequest,
};
use serde::{Deserialize, Value};
use workloads::planted::PlantedCostModel;
use workloads::{planted_instance, PlantedConfig};

use crate::spans::{self, Recorder};
use crate::speed::{self, Speed};
use crate::{stats, Args, Metric, Outcome};

/// Engine worker threads.
const WORKERS: usize = 2;
/// Bounded admission queue depth of the server.
const QUEUE_DEPTH: usize = 64;
/// Requests in flight per closed-loop connection (two connections stay
/// below the queue depth, so the closed loop never sheds).
const WINDOW: usize = 16;
/// Offered rate of the fixed-rate open-loop row, requests per second (a
/// thousand samples per one-second window).
const FIXED_RATE: f64 = 1000.0;
/// p99 latency limit for `slo_rps`, milliseconds. Well above the large
/// requests' solve time, so a rung fails when the server saturates (its
/// queue builds and sheds), not on the noise of a lightly loaded one.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// Offered rates for `slo_rps`: 500/s × 1.03^k, k = 0..119.
const SLO_LADDER: (f64, f64, usize) = (500.0, 1.03, 120);
/// An open-loop window is invalid, and left out of the latency figures,
/// when the generator's p99 lag behind the schedule exceeds this,
/// milliseconds.
const LAG_LIMIT_MS: f64 = 10.0;
/// Shares of `--seconds` for the closed loop, the fixed-rate row and the
/// SLO search. The fixed-rate row is judged in one-second windows.
const CLOSED_SHARE: f64 = 0.25;
const FIXED_SHARE: f64 = 0.4;
const SLO_SHARE: f64 = 0.35;
/// Closed-loop throughput is counted per interval of this many seconds,
/// leaving out the first [`CLOSED_WARMUP`] intervals.
const CLOSED_INTERVAL_S: f64 = 0.1;
const CLOSED_WARMUP: usize = 3;
/// Rows the SLO search may run, and the windows each is judged in.
const SLO_ROWS: usize = 10;
const PROBE_WINDOWS: usize = 3;
/// Small requests in the pool, and their grid shapes `(processors,
/// horizon)`.
const SMALL: usize = 384;
const SHAPES: &[(u32, u32)] = &[(2, 16), (2, 12), (3, 12), (2, 20)];
/// Large requests (p4, T256, 32 jobs) appended to the pool. Only the open
/// loop sends them, as every [`TAIL_EVERY`]-th request: a solve of several
/// milliseconds that later responses on the connection queue behind. This
/// puts the p99 on real solver and queueing work; with small requests only,
/// the p99 measures scheduler jitter of a two-core machine.
const LARGE: usize = 12;
const TAIL_EVERY: usize = 64;
const RESTART: f64 = 4.0;
const RATE: f64 = 1.0;

#[derive(Clone, Copy, PartialEq)]
enum Transport {
    Binary,
    Jsonl,
}

/// The request pool, pre-encoded for both transports, with the in-process
/// reference cost of every request.
struct Pool {
    requests: Vec<SolveRequest>,
    frames: Vec<Vec<u8>>,
    lines: Vec<String>,
    reference: Vec<u64>,
    generate_s: f64,
}

fn generate(seed: u64) -> Vec<SolveRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut requests: Vec<SolveRequest> = (0..SMALL)
        .map(|i| {
            let (p, t) = SHAPES[i % SHAPES.len()];
            let planted = planted_instance(
                &PlantedConfig {
                    num_processors: p,
                    horizon: t,
                    target_jobs: 6 + i % 5,
                    decoy_prob: 0.3,
                    max_value: 3,
                    cost_model: PlantedCostModel::Affine { restart: RESTART },
                    policy: CandidatePolicy::All,
                },
                &mut rng,
            );
            let inst = planted.instance;
            let total = inst.total_value();
            let b = SolveRequest::builder(i as u64, inst).affine(RESTART, RATE);
            match (i / SHAPES.len()) % 4 {
                1 => b.prize_collecting(0.6 * total).epsilon(0.2),
                3 => b.prize_collecting_exact(0.5 * total),
                _ => b,
            }
            .build()
        })
        .collect();
    for i in SMALL..SMALL + LARGE {
        let planted = planted_instance(
            &PlantedConfig {
                num_processors: 4,
                horizon: 256,
                target_jobs: 32,
                decoy_prob: 0.3,
                max_value: 1,
                cost_model: PlantedCostModel::Affine { restart: RESTART },
                policy: CandidatePolicy::All,
            },
            &mut rng,
        );
        requests.push(
            SolveRequest::builder(i as u64, planted.instance)
                .affine(RESTART, RATE)
                .build(),
        );
    }
    requests
}

/// Pool index of the `k`-th open-loop request: the small requests in order,
/// with every [`TAIL_EVERY`]-th replaced by one of the large ones.
fn open_index(k: usize) -> usize {
    if k % TAIL_EVERY == TAIL_EVERY - 1 {
        SMALL + (k / TAIL_EVERY) % LARGE
    } else {
        k % SMALL
    }
}

/// The in-process reference: the same request solved directly through
/// `Solver`. The engine must answer with exactly this cost.
fn reference_solve(req: &SolveRequest) -> Result<Schedule, String> {
    let cost = AffineCost::new(req.restart, req.rate);
    let solver = Solver::new(&req.instance, &cost);
    match req.mode {
        SolveMode::ScheduleAll => solver.schedule_all(),
        SolveMode::PrizeCollecting => {
            solver.prize_collecting(req.target.unwrap_or_default(), req.epsilon.unwrap_or(0.1))
        }
        SolveMode::PrizeCollectingExact => {
            solver.prize_collecting_exact(req.target.unwrap_or_default())
        }
    }
    .map_err(|e| format!("reference solve of request {}: {e}", req.id))
}

/// Checks a schedule against its request: valid, meets the mode's goal.
fn check_schedule(req: &SolveRequest, s: &Schedule) -> Result<(), String> {
    let violations = validate_schedule(&req.instance, s);
    if !violations.is_empty() {
        return Err(format!(
            "request {}: invalid schedule {violations:?}",
            req.id
        ));
    }
    let target = req.target.unwrap_or_default();
    let met = match req.mode {
        SolveMode::ScheduleAll => s.scheduled_count == req.instance.num_jobs(),
        SolveMode::PrizeCollecting => {
            s.scheduled_value >= (1.0 - req.epsilon.unwrap_or(0.1)) * target - 1e-9
        }
        SolveMode::PrizeCollectingExact => s.scheduled_value >= target - 1e-9,
    };
    if met {
        Ok(())
    } else {
        Err(format!("request {}: schedule misses its goal", req.id))
    }
}

/// Outcome of one served request.
enum Served {
    Ok,
    Shed,
    Failed(String),
}

impl Pool {
    /// Validates one response to pool request `i`: `ok`, a valid schedule,
    /// and a cost bit-identical to the in-process reference.
    fn check(&self, i: usize, resp: &SolveResponse) -> Served {
        if !resp.ok {
            return match &resp.error {
                Some(e) if e.kind == ErrorKind::Overloaded => Served::Shed,
                e => Served::Failed(format!("request {i} failed: {e:?}")),
            };
        }
        let Some(s) = &resp.schedule else {
            return Served::Failed(format!("request {i}: ok response without schedule"));
        };
        if let Err(e) = check_schedule(&self.requests[i], s) {
            return Served::Failed(e);
        }
        if s.total_cost.to_bits() != self.reference[i] {
            return Served::Failed(format!(
                "request {i}: served cost {} differs from the in-process solve {}",
                s.total_cost,
                f64::from_bits(self.reference[i])
            ));
        }
        Served::Ok
    }
}

/// A client connection speaking one transport with pre-encoded requests.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    transport: Transport,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr, transport: Transport) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: BufWriter::new(stream),
            transport,
            line: String::new(),
        })
    }

    fn split(self) -> (BufReader<TcpStream>, BufWriter<TcpStream>) {
        (self.reader, self.writer)
    }

    fn send(&mut self, pool: &Pool, i: usize) -> Result<(), String> {
        let bytes = match self.transport {
            Transport::Binary => &pool.frames[i],
            Transport::Jsonl => pool.lines[i].as_bytes(),
        };
        self.writer
            .write_all(bytes)
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<SolveResponse, String> {
        recv_response(&mut self.reader, self.transport, &mut self.line)
    }
}

fn recv_response(
    reader: &mut BufReader<TcpStream>,
    transport: Transport,
    line: &mut String,
) -> Result<SolveResponse, String> {
    let value: Value = match transport {
        Transport::Binary => {
            let (format, payload) = codec::read_frame(reader)
                .map_err(|e| format!("read frame: {e}"))?
                .ok_or("server closed the connection")?;
            codec::payload_to_value(format, &payload).map_err(|e| format!("decode: {e}"))?
        }
        Transport::Jsonl => {
            line.clear();
            if reader
                .read_line(line)
                .map_err(|e| format!("read line: {e}"))?
                == 0
            {
                return Err("server closed the connection".into());
            }
            serde_json::from_str(line.trim()).map_err(|e| format!("decode: {e}"))?
        }
    };
    SolveResponse::from_value(&value).map_err(|e| format!("response: {e}"))
}

/// A running server on an ephemeral loopback port.
struct Server {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    fn boot() -> Result<Server, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let config = EngineConfig {
            workers: WORKERS,
            queue_depth: QUEUE_DEPTH,
            ..EngineConfig::default()
        };
        let thread = std::thread::spawn(move || {
            serve_with_options(
                listener,
                config,
                ServeOptions {
                    metrics_out: None,
                    shed_policy: Some(ShedPolicy::Reject),
                },
            )
        });
        Ok(Server { addr, thread })
    }

    /// Sends a control verb on a fresh binary connection; returns the ack.
    fn control(&self, verb: &str) -> Result<SolveResponse, String> {
        let mut conn = Conn::open(self.addr, Transport::Binary)?;
        let ctl = sched_engine::ControlRequest {
            version: sched_engine::PROTOCOL_VERSION,
            control: verb.into(),
        };
        let payload = codec::value_to_payload(WireFormat::Binary, &ctl)
            .map_err(|e| format!("encode {verb}: {e}"))?;
        codec::write_frame(&mut conn.writer, WireFormat::Binary, &payload)
            .and_then(|()| conn.writer.flush())
            .map_err(|e| format!("send {verb}: {e}"))?;
        conn.recv()
    }

    /// Graceful shutdown; waits for the serve loop to end.
    fn shutdown(self) -> Result<(), String> {
        self.control("shutdown")?;
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve loop: {e}")),
            Err(_) => Err("serve thread panicked".into()),
        }
    }
}

struct State {
    pool: Pool,
    server: Server,
}

/// Set-up: generate and encode the pool, solve it in-process for the
/// reference costs, boot the server, and warm it with one pass of the pool
/// per transport (every response checked). Returns the state and the
/// served energy of one pass.
fn setup(seed: u64) -> Result<(State, f64), String> {
    let t0 = Instant::now();
    let requests = generate(seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let mut frames = Vec::with_capacity(requests.len());
    let mut lines = Vec::with_capacity(requests.len());
    let mut reference = Vec::with_capacity(requests.len());
    for req in &requests {
        let payload = codec::value_to_payload(WireFormat::Binary, req)
            .map_err(|e| format!("encode request: {e}"))?;
        let mut frame = Vec::new();
        codec::write_frame(&mut frame, WireFormat::Binary, &payload).map_err(|e| e.to_string())?;
        frames.push(frame);
        lines.push(serde_json::to_string(req).map_err(|e| e.to_string())? + "\n");
        let s = reference_solve(req)?;
        check_schedule(req, &s)?;
        reference.push(s.total_cost.to_bits());
    }
    let pool = Pool {
        requests,
        frames,
        lines,
        reference,
        generate_s,
    };
    let server = Server::boot()?;
    let mut energy = 0.0;
    for transport in [Transport::Binary, Transport::Jsonl] {
        // Pipelined like the closed loop, so set-up time is the server's
        // work rather than one round trip per request.
        let mut conn = Conn::open(server.addr, transport)?;
        let n = pool.requests.len();
        let mut sent = 0;
        for i in 0..n {
            while sent < n && sent < i + WINDOW {
                conn.send(&pool, sent)?;
                sent += 1;
            }
            let resp = conn.recv()?;
            match pool.check(i, &resp) {
                Served::Ok => {}
                Served::Shed => return Err(format!("warm-up: request {i} was shed")),
                Served::Failed(e) => return Err(format!("warm-up: {e}")),
            }
            if transport == Transport::Binary {
                energy += resp.schedule.map_or(0.0, |s| s.total_cost);
            }
        }
    }
    Ok((State { pool, server }, energy))
}

/// Totals of one closed-loop connection.
#[derive(Default)]
struct Closed {
    /// Completion time of every response, seconds since the phase start.
    done_s: Vec<f64>,
    failed: u64,
    errors: Vec<String>,
}

/// One closed-loop connection: keeps [`WINDOW`] small requests in flight
/// until `deadline`, then drains. Pool requests are sent in order, cycling.
fn closed_loop(
    pool: &Pool,
    addr: SocketAddr,
    transport: Transport,
    start_at: usize,
    t0: Instant,
    deadline: Instant,
) -> Result<Closed, String> {
    let mut conn = Conn::open(addr, transport)?;
    let mut out = Closed::default();
    let mut in_flight = VecDeque::with_capacity(WINDOW);
    let mut next = start_at;
    for _ in 0..WINDOW {
        conn.send(pool, next % SMALL)?;
        in_flight.push_back(next % SMALL);
        next += 1;
    }
    while let Some(i) = in_flight.pop_front() {
        let resp = conn.recv()?;
        out.done_s.push(t0.elapsed().as_secs_f64());
        match pool.check(i, &resp) {
            Served::Ok => {}
            Served::Shed => {
                out.failed += 1;
                out.errors.push(format!("closed-loop request {i} was shed"));
            }
            Served::Failed(e) => {
                out.failed += 1;
                out.errors.push(e);
            }
        }
        if Instant::now() < deadline {
            conn.send(pool, next % SMALL)?;
            in_flight.push_back(next % SMALL);
            next += 1;
        }
    }
    Ok(out)
}

/// One open-loop row at a fixed absolute rate.
struct OpenRow {
    /// When the row started; due times count from here.
    t0: Instant,
    sent: u64,
    shed: u64,
    failed: u64,
    errors: Vec<String>,
    /// Per request, in send order: due time since the row's start
    /// (seconds), response time from the due time (milliseconds; a shed or
    /// failed request counts as the whole row's duration, so it misses any
    /// limit) and how late the generator sent it (milliseconds).
    due_s: Vec<f64>,
    latency_ms: Vec<f64>,
    /// Per request: shed or failed.
    missed: Vec<bool>,
    lag_ms: Vec<f64>,
    /// Time from the last request's due time to its response, milliseconds.
    drain_ms: f64,
}

/// Latency of an open-loop row, judged over windows of its due times.
struct Judged {
    /// Windows, and those in which the generator kept to its schedule.
    windows: usize,
    valid: usize,
    /// Valid windows with nothing shed or failed and their p99 within
    /// [`LATENCY_LIMIT_MS`].
    passing: usize,
    /// p50 over every request of the measured windows: the valid ones, or
    /// all when none is valid.
    p50_ms: f64,
    /// Median over the measured windows of each window's p99: a burst of
    /// machine noise moves one window, not the result.
    p99_ms: f64,
    /// Each measured window's p99.
    window_p99_ms: Vec<f64>,
    /// Requests in the measured windows.
    samples: u64,
}

impl OpenRow {
    /// Scales every served request's latency to the reference host speed
    /// (see [`speed`]), by the speed measured while it was in flight.
    fn scale_latencies(&mut self, speed: &Speed) {
        for k in 0..self.latency_ms.len() {
            if !self.missed[k] {
                let start = self.t0 + Duration::from_secs_f64(self.due_s[k]);
                let end = start + Duration::from_secs_f64(self.latency_ms[k] / 1e3);
                self.latency_ms[k] *= speed.scale(start, end);
            }
        }
    }

    fn lag_p99(&self) -> f64 {
        stats::percentile(&stats::sorted(self.lag_ms.clone()), 0.99)
    }

    /// Cuts the row into `windows` equal spans of due time. A window is
    /// valid when the generator's p99 lag in it stays within
    /// [`LAG_LIMIT_MS`]; otherwise the generator fell behind and the window
    /// measures the load generator, not the server.
    fn judge(&self, seconds: f64, windows: usize) -> Judged {
        let mut lat = vec![Vec::new(); windows];
        let mut lag = vec![Vec::new(); windows];
        let mut missed = vec![false; windows];
        for (k, &due) in self.due_s.iter().enumerate() {
            let w = ((due / seconds * windows as f64) as usize).min(windows - 1);
            lat[w].push(self.latency_ms[k]);
            lag[w].push(self.lag_ms.get(k).copied().unwrap_or(0.0));
            missed[w] |= self.missed[k];
        }
        let lat: Vec<Vec<f64>> = lat.into_iter().map(stats::sorted).collect();
        let valid: Vec<usize> = (0..windows)
            .filter(|&w| {
                !lat[w].is_empty()
                    && stats::percentile(&stats::sorted(lag[w].clone()), 0.99) <= LAG_LIMIT_MS
            })
            .collect();
        let passing = valid
            .iter()
            .filter(|&&w| !missed[w] && stats::percentile(&lat[w], 0.99) <= LATENCY_LIMIT_MS)
            .count();
        let measured: Vec<usize> = if valid.is_empty() {
            (0..windows).filter(|&w| !lat[w].is_empty()).collect()
        } else {
            valid.clone()
        };
        let p99s: Vec<f64> = measured
            .iter()
            .map(|&w| stats::percentile(&lat[w], 0.99))
            .collect();
        let pooled = stats::sorted(measured.iter().flat_map(|&w| lat[w].clone()).collect());
        Judged {
            windows,
            valid: valid.len(),
            passing,
            p50_ms: stats::percentile(&pooled, 0.5),
            p99_ms: stats::median(&p99s),
            window_p99_ms: p99s,
            samples: pooled.len() as u64,
        }
    }

    /// Meets the SLO: most windows are valid, shed nothing and keep their
    /// p99 within the limit, and no backlog is left at the end.
    fn meets_slo(&self, judged: &Judged) -> bool {
        2 * judged.passing > judged.windows && self.drain_ms <= LATENCY_LIMIT_MS
    }
}

/// Poisson arrivals at `rate` for `seconds` on one binary connection: one
/// sender thread sleeps until each request's due time (never spinning, so
/// it does not take a core from the server), this thread receives.
fn open_loop(
    pool: &Pool,
    addr: SocketAddr,
    rate: f64,
    seconds: f64,
    seed: u64,
) -> Result<OpenRow, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut due = Vec::new();
    let mut at = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        at += -u.ln() / rate;
        if at >= seconds {
            break;
        }
        due.push(Duration::from_secs_f64(at));
    }
    let conn = Conn::open(addr, Transport::Binary)?;
    let (mut reader, mut writer) = conn.split();
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = &due;
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> Result<Vec<f64>, String> {
            let mut lag_ms = Vec::with_capacity(due.len());
            for (k, d) in due.iter().enumerate() {
                let target = t0 + *d;
                loop {
                    let now = Instant::now();
                    if now >= target {
                        break;
                    }
                    std::thread::sleep(target - now);
                }
                let sent = Instant::now();
                writer
                    .write_all(&pool.frames[open_index(k)])
                    .and_then(|()| writer.flush())
                    .map_err(|e| format!("send: {e}"))?;
                lag_ms.push(sent.saturating_duration_since(target).as_secs_f64() * 1e3);
            }
            Ok(lag_ms)
        });
        let mut row = OpenRow {
            t0,
            sent: due.len() as u64,
            shed: 0,
            failed: 0,
            errors: Vec::new(),
            latency_ms: Vec::with_capacity(due.len()),
            due_s: due.iter().map(Duration::as_secs_f64).collect(),
            missed: Vec::with_capacity(due.len()),
            lag_ms: Vec::new(),
            drain_ms: 0.0,
        };
        let mut line = String::new();
        let mut recv_err = None;
        for (k, d) in due.iter().enumerate() {
            let resp = match recv_response(&mut reader, Transport::Binary, &mut line) {
                Ok(r) => r,
                Err(e) => {
                    recv_err = Some(e);
                    break;
                }
            };
            let latency = Instant::now()
                .saturating_duration_since(t0 + *d)
                .as_secs_f64()
                * 1e3;
            let served = pool.check(open_index(k), &resp);
            row.missed.push(!matches!(served, Served::Ok));
            match served {
                Served::Ok => row.latency_ms.push(latency),
                Served::Shed => {
                    row.shed += 1;
                    row.latency_ms.push(seconds * 1e3);
                }
                Served::Failed(e) => {
                    row.failed += 1;
                    row.errors.push(e);
                    row.latency_ms.push(seconds * 1e3);
                }
            }
            row.drain_ms = latency;
        }
        // After a receive error the connection is gone, so the sender's
        // writes fail and it ends too.
        row.lag_ms = sender.join().map_err(|_| "sender panicked".to_string())??;
        match recv_err {
            Some(e) => Err(e),
            None => Ok(row),
        }
    })
}

/// What the SLO search found.
struct SloFound {
    /// The highest ladder rate that met the SLO, or 0.
    rate: f64,
    /// Open-loop rows run.
    rows: usize,
    /// When the row that passed at `rate` ran.
    passed: Option<(Instant, Instant)>,
}

/// Binary search over the rate ladder for the highest rung meeting the
/// SLO, in at most `rows` open-loop rows of `seconds` each. A failed rung is
/// probed once more before the search gives it up, and a row in which the
/// generator fell behind decides nothing, so one burst of machine noise does
/// not end the search low.
fn slo_search(
    pool: &Pool,
    addr: SocketAddr,
    rows: usize,
    seconds: f64,
    seed: u64,
) -> Result<SloFound, String> {
    let (base, step, rungs) = SLO_LADDER;
    let ladder = stats::ladder(base, step, rungs);
    // Rungs up to `lo` passed (None: none known yet); rungs from `hi` failed.
    let (mut lo, mut hi): (Option<usize>, usize) = (None, ladder.len());
    let mut runs = 0;
    let mut retried = None;
    let mut passed = None;
    while runs < rows {
        let from = lo.map_or(0, |l| l + 1);
        if from >= hi {
            break;
        }
        let mid = retried.unwrap_or((from + hi) / 2);
        let row = open_loop(
            pool,
            addr,
            ladder[mid],
            seconds,
            seed ^ ((mid as u64) << 32) ^ runs as u64,
        )?;
        if !row.errors.is_empty() {
            return Err(row.errors.join("; "));
        }
        runs += 1;
        let judged = row.judge(seconds, PROBE_WINDOWS);
        // When the generator fell behind in most windows the row measured
        // the generator, not the server: probe the rung again.
        let inconclusive = 2 * judged.valid <= judged.windows;
        let pass = !inconclusive && row.meets_slo(&judged);
        eprintln!(
            "slo probe {:.0}/s: {} ({}/{} windows valid, {} passing; p99 {:.3} ms, \
             drain {:.3} ms, shed {} of {})",
            ladder[mid],
            match (inconclusive, pass) {
                (true, _) => "inconclusive",
                (false, true) => "pass",
                (false, false) => "fail",
            },
            judged.valid,
            judged.windows,
            judged.passing,
            judged.p99_ms,
            row.drain_ms,
            row.shed,
            row.sent
        );
        if inconclusive {
            continue;
        }
        if pass {
            lo = Some(mid);
            passed = Some((row.t0, Instant::now()));
            retried = None;
        } else if retried.is_none() {
            retried = Some(mid);
        } else {
            hi = mid;
            retried = None;
        }
    }
    Ok(SloFound {
        rate: lo.map_or(0.0, |l| ladder[l]),
        rows: runs,
        passed,
    })
}

/// Totals of the in-process request path (traced or not).
#[derive(Default)]
struct InProcess {
    requests: u64,
    wall_s: f64,
    queue_wait_us: Vec<f64>,
    solve_us: Vec<f64>,
    cache_hits: u64,
    candidates: u64,
    errors: Vec<String>,
}

/// The serving path in-process, for the traced run: request bytes are
/// decoded (`codec`/`protocol`), submitted to an in-process [`Engine`] and
/// waited on (`Engine::submit` → `Ticket::wait`), and the response encoded
/// again, in the server's format. A reader thread decodes and submits, a
/// writer thread waits and encodes — the server's per-connection split.
/// Whole passes over the pool alternate binary and JSONL bytes. Every span
/// of one request shares its operation id.
fn in_process(pool: &Pool, seconds: f64, traced: bool) -> (InProcess, Option<Recorder>, Engine) {
    let engine = Engine::new(EngineConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        ..EngineConfig::default()
    });
    let epoch = Instant::now();
    let n = SMALL;
    // As many requests in flight as the two closed-loop connections keep.
    let (tx, rx) = mpsc::sync_channel::<Submitted>(2 * WINDOW);
    let mut result = InProcess::default();
    let mut recorder = traced.then(|| Recorder::new(epoch, 0));
    std::thread::scope(|scope| {
        let engine = &engine;
        let reader = scope.spawn(move || {
            let mut rec = traced.then(|| Recorder::new(epoch, 1));
            let mut op = 0u64;
            while epoch.elapsed().as_secs_f64() < seconds {
                for i in 0..n {
                    let binary = (op / n as u64).is_multiple_of(2);
                    let root = rec.as_mut().map_or(0, |r| r.reserve());
                    let start = Instant::now();
                    let mut r = rec.as_mut();
                    let parsed = if binary {
                        spans::maybe(&mut r, root, op, "codec.decode.binary", || {
                            let (format, payload) = codec::read_frame(&mut &pool.frames[i][..])
                                .map_err(|e| e.to_string())?
                                .ok_or("empty frame")?;
                            let value = codec::payload_to_value(format, &payload)
                                .map_err(|e| e.to_string())?;
                            parse_value(&value).map_err(|e| e.to_string())
                        })
                    } else {
                        spans::maybe(&mut r, root, op, "codec.decode.jsonl", || {
                            parse_line(pool.lines[i].trim_end()).map_err(|e| e.to_string())
                        })
                    };
                    let req = match parsed {
                        Ok(WireRequest::Solve(req)) => *req,
                        Ok(WireRequest::Control(_)) => {
                            return Err(format!("pool request {i} decoded as a control verb"))
                        }
                        Err(e) => return Err(format!("decode pool request {i}: {e}")),
                    };
                    let ticket =
                        spans::maybe(&mut r, root, op, "engine.submit", || engine.submit(req));
                    let submitted = Submitted {
                        op,
                        pool_index: i,
                        binary,
                        root,
                        start,
                        submitted: Instant::now(),
                        ticket,
                    };
                    if tx.send(submitted).is_err() {
                        return Err("writer thread ended early".into());
                    }
                    op += 1;
                }
            }
            drop(tx);
            Ok(rec)
        });
        for s in rx {
            let mut r = recorder.as_mut();
            let resp = spans::maybe(&mut r, s.root, s.op, "engine.wait", || s.ticket.wait());
            let waited = Instant::now();
            let encoded = spans::maybe(&mut r, s.root, s.op, "codec.encode", || {
                if s.binary {
                    codec::value_to_payload(WireFormat::Binary, &resp).map(|p| p.len())
                } else {
                    serde_json::to_string(&resp).map(|l| l.len())
                }
            });
            if let Some(r) = r {
                r.record(s.root, 0, s.op, "request", s.start, Instant::now());
            }
            result.requests += 1;
            if let Err(e) = encoded {
                result.errors.push(format!("encode response: {e}"));
            }
            match pool.check(s.pool_index, &resp) {
                Served::Ok => {}
                Served::Shed => result.errors.push("in-process request shed".into()),
                Served::Failed(e) => result.errors.push(e),
            }
            if let Some(m) = resp.metrics {
                let in_engine = waited.duration_since(s.submitted).as_secs_f64() * 1e6;
                result.solve_us.push(m.solve_micros as f64);
                result
                    .queue_wait_us
                    .push((in_engine - m.solve_micros as f64).max(0.0));
                result.cache_hits += u64::from(m.cache_hit);
                result.candidates += m.candidates;
            }
        }
        match reader.join() {
            Ok(Ok(Some(rec))) => {
                if let Some(r) = recorder.as_mut() {
                    r.absorb(rec);
                }
            }
            Ok(Ok(None)) => {}
            Ok(Err(e)) => result.errors.push(e),
            Err(_) => result.errors.push("reader thread panicked".into()),
        }
    });
    result.wall_s = epoch.elapsed().as_secs_f64();
    (result, recorder, engine)
}

/// Keeps every core busy with lowest-priority spinning while it lives.
///
/// A request hops between several threads (client, connection reader,
/// worker, connection writer). On a virtual machine each hop that lands on
/// an idle virtual CPU waits for the hypervisor to wake that CPU, which on a
/// busy host takes milliseconds and swamps sub-millisecond latencies. One
/// `SCHED_IDLE` spinner per core keeps the virtual CPUs running without
/// taking processor time from any other thread: the scheduler runs an
/// idle-policy thread only when nothing else is runnable, and preempts it
/// as soon as anything is.
struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    fn start() -> Result<KeepAwake, String> {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (ready_tx, ready_rx) = mpsc::channel();
        let spinners = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let ready = ready_tx.clone();
                std::thread::spawn(move || {
                    let idle = set_idle_policy();
                    let ok = idle.is_ok();
                    let _ = ready.send(idle);
                    // A spinner that could not drop to the idle policy would
                    // compete with the server, so it ends at once.
                    while ok && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        let keep = KeepAwake { stop, spinners };
        for _ in 0..cores {
            ready_rx
                .recv()
                .map_err(|_| "keep-awake spinner ended early".to_string())??;
        }
        Ok(keep)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for s in self.spinners.drain(..) {
            let _ = s.join();
        }
    }
}

/// Moves the calling thread to the `SCHED_IDLE` scheduling policy.
fn set_idle_policy() -> Result<(), String> {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` reads one `struct sched_param` (a single
    // C `int`, matching `SchedParam`) through a pointer to a live local;
    // pid 0 names the calling thread, so no other thread is affected.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setscheduler(SCHED_IDLE): {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// One request in flight between the in-process reader and writer.
struct Submitted {
    op: u64,
    pool_index: usize,
    binary: bool,
    root: u64,
    start: Instant,
    submitted: Instant,
    ticket: sched_engine::Ticket,
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut generate = Vec::new();
    let (state, setup_s, energies) = crate::repeated_setup(
        || {
            let (state, energy) = setup(args.seed)?;
            generate.push(state.pool.generate_s);
            Ok((state, energy))
        },
        |old: State| {
            if let Err(e) = old.server.shutdown() {
                eprintln!("perfbench: shutting down a set-up server: {e}");
            }
        },
    )?;
    crate::check_setup_energies(&mut out, &energies);
    out.energy = energies[0];
    let State { pool, server } = state;
    let addr = server.addr;
    let s = args.seconds;

    // Closed loop: binary and JSONL connections side by side.
    let closed_s = CLOSED_SHARE * s;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(closed_s);
    let half = SMALL / 2;
    // The clients and the server keep both cores busy, so the host speed is
    // sampled on a thread of its own, in that thread's CPU time.
    let stop = AtomicBool::new(false);
    let (binary, jsonl, speed) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| speed::sample_until(t0, &stop));
        let b = scope.spawn(|| closed_loop(&pool, addr, Transport::Binary, 0, t0, deadline));
        let j = closed_loop(&pool, addr, Transport::Jsonl, half, t0, deadline);
        let b = b
            .join()
            .unwrap_or_else(|_| Err("client thread panicked".into()));
        stop.store(true, Ordering::Relaxed);
        let speed = sampler
            .join()
            .map_err(|_| "host-speed sampler panicked".to_string());
        (b, j, speed)
    });
    let (binary, jsonl, speed) = (binary?, jsonl?, speed?);
    speed::report(&speed);
    let closed_done = (binary.done_s.len() + jsonl.done_s.len()) as u64;
    // Throughput per short interval of the phase, both connections
    // together, scaled to the reference host speed, leaving out the
    // connections' first intervals (warm-up); the median interval is the
    // result, so a burst of machine noise moves a few intervals, not the
    // result.
    let intervals = ((closed_s / CLOSED_INTERVAL_S).floor() as usize).max(1);
    let width = closed_s / intervals as f64;
    let mut per_interval = vec![0u64; intervals];
    for &t in binary.done_s.iter().chain(&jsonl.done_s) {
        if let Some(c) = per_interval.get_mut((t / width) as usize) {
            *c += 1;
        }
    }
    let at = |k: usize| t0 + Duration::from_secs_f64(k as f64 * width);
    let (raw, rates): (Vec<f64>, Vec<f64>) = per_interval
        .iter()
        .enumerate()
        .skip(CLOSED_WARMUP.min(intervals - 1))
        .map(|(k, &c)| {
            let rate = c as f64 / width;
            (rate, rate / speed.scale(at(k), at(k + 1)))
        })
        .unzip();
    let ops_per_s = stats::median(&rates);
    eprintln!(
        "closed loop: median interval {:.0} req/s, {ops_per_s:.0} req/s at the reference speed",
        stats::median(&raw)
    );
    for e in binary.errors.into_iter().chain(jsonl.errors) {
        out.error(e);
    }

    // Open loop at the fixed rate, then the SLO search. Both leave the
    // processors partly idle, so spinners keep them awake (see KeepAwake);
    // the closed loop keeps them busy by itself.
    let keep_awake = KeepAwake::start()?;
    let fixed_s = FIXED_SHARE * s;
    let stop = AtomicBool::new(false);
    let phase = Instant::now();
    let (rows, speed) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| speed::sample_until(phase, &stop));
        let rows = open_loop(&pool, addr, FIXED_RATE, fixed_s, args.seed).and_then(|fixed| {
            // Highest ladder rate meeting the SLO.
            let search = slo_search(
                &pool,
                addr,
                SLO_ROWS,
                SLO_SHARE * s / SLO_ROWS as f64,
                args.seed,
            )?;
            Ok((fixed, search))
        });
        stop.store(true, Ordering::Relaxed);
        let speed = sampler
            .join()
            .map_err(|_| "host-speed sampler panicked".to_string());
        (rows, speed)
    });
    drop(keep_awake);
    let ((mut fixed, found), speed) = (rows?, speed?);
    speed::report(&speed);
    for e in &fixed.errors {
        out.error(e.clone());
    }
    let lag_p99 = fixed.lag_p99();
    fixed.scale_latencies(&speed);
    let judged = fixed.judge(fixed_s, (fixed_s.floor() as usize).max(1));
    eprintln!(
        "fixed {FIXED_RATE}/s: generator on schedule in {} of {} windows (lag p50 {:.3} ms, \
         p99 {lag_p99:.3} ms); at the reference speed latency p50 {:.3} ms, p99 {:.3} ms \
         (windows {:.3?})",
        judged.valid,
        judged.windows,
        stats::median(&fixed.lag_ms),
        judged.p50_ms,
        judged.p99_ms,
        judged.window_p99_ms
    );
    // The rate the search settled on, at the reference speed.
    let slo = found
        .passed
        .map_or(0.0, |(from, to)| found.rate / speed.scale(from, to));
    eprintln!(
        "slo: {:.0} req/s, {slo:.0} req/s at the reference speed",
        found.rate
    );

    let shed_total = server
        .control("metrics")
        .map_err(|e| format!("metrics verb: {e}"))?
        .obs
        .and_then(|snap| snap.counters.into_iter().find(|c| c.name == "engine.shed"))
        .map_or(0, |c| c.value);
    server.shutdown()?;

    out.attempted = closed_done + fixed.sent;
    out.failed = binary.failed + jsonl.failed + fixed.shed + fixed.failed;

    if !args.trace {
        let n = judged.samples;
        out.metrics = vec![
            Metric::new("setup_s", setup_s, "s", crate::SETUP_REPS as u64),
            Metric::new("ops_per_s", ops_per_s, "1/s", closed_done),
            Metric::new("latency_p50_ms", judged.p50_ms, "ms", n),
            Metric::new("latency_p99_ms", judged.p99_ms, "ms", n),
            Metric::new(
                "ok_frac",
                (out.attempted - out.failed) as f64 / out.attempted as f64,
                "frac",
                out.attempted,
            ),
            Metric::new("energy", out.energy, "energy", pool.requests.len() as u64),
            Metric::new("slo_rps", slo, "1/s", found.rows as u64),
        ];
        return Ok(out);
    }

    // Traced run: the in-process path once bare and once with spans; the
    // gap between the two is the tracing overhead.
    let (bare, _, bare_engine) = in_process(&pool, 0.25 * s, false);
    drop(bare_engine);
    let (traced, rec, engine) = in_process(&pool, 0.25 * s, true);
    for e in bare.errors.iter().chain(&traced.errors) {
        out.error(e.clone());
    }
    let rec = rec.expect("traced run records spans");
    spans::write_jsonl(
        &crate::out_dir().join(format!("spans-serve_mixed-{}.jsonl", args.seed)),
        rec.spans(),
    )
    .map_err(|e| format!("write spans: {e}"))?;
    let layers = spans::layer_times(rec.spans());
    let per_us = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / 1e3 / l.count.max(1) as f64)
    };
    let count = |name: &str| layers.get(name).map_or(0, |l| l.count);
    let snapshot = engine.metrics_snapshot();
    drop(engine);
    let worker_sum = |suffix: &str| -> f64 {
        let c: u64 = snapshot
            .counters
            .iter()
            .filter(|c| c.name.starts_with("worker") && c.name.ends_with(suffix))
            .map(|c| c.value)
            .sum();
        let h: u64 = snapshot
            .histograms
            .iter()
            .filter(|h| h.name.starts_with("worker") && h.name.ends_with(suffix))
            .map(|h| h.sum)
            .sum();
        (c + h) as f64
    };
    let requests = traced.requests.max(1) as f64;
    let (hits, misses) = (
        worker_sum(".core.gain_memo.hits"),
        worker_sum(".core.gain_memo.misses"),
    );
    // Request sizes of the small requests, the ones the traced path sends.
    let mean_len =
        |lens: &mut dyn Iterator<Item = usize>| lens.sum::<usize>() as f64 / SMALL as f64;
    let bare_rate = bare.requests as f64 / bare.wall_s;
    let traced_rate = traced.requests as f64 / traced.wall_s;
    out.metrics = vec![
        Metric::new(
            "workloads.generate_s",
            stats::median(&generate),
            "s",
            generate.len() as u64,
        ),
        Metric::new(
            "candidates.enumerate_ms",
            worker_sum(".core.enumerate_ns") / 1e6 / requests,
            "ms",
            traced.requests,
        ),
        Metric::new(
            "candidates.count",
            traced.candidates as f64 / requests,
            "count",
            traced.requests,
        ),
        Metric::new(
            "objective.reduction_build_ms",
            worker_sum(".core.reduction.build_ns") / 1e6 / requests,
            "ms",
            traced.requests,
        ),
        Metric::new(
            "greedy.evaluations",
            worker_sum(".submodular.greedy.evaluations") / requests,
            "count",
            traced.requests,
        ),
        Metric::new(
            "greedy.memo_hit_frac",
            hits / (hits + misses).max(1.0),
            "frac",
            (hits + misses) as u64,
        ),
        Metric::new(
            "matching.augments",
            worker_sum(".matching.oracle.augments") / requests,
            "count",
            traced.requests,
        ),
        Metric::new(
            "codec.decode_us.binary",
            per_us("codec.decode.binary"),
            "us",
            count("codec.decode.binary"),
        ),
        Metric::new(
            "codec.decode_us.jsonl",
            per_us("codec.decode.jsonl"),
            "us",
            count("codec.decode.jsonl"),
        ),
        Metric::new(
            "codec.encode_us",
            per_us("codec.encode"),
            "us",
            count("codec.encode"),
        ),
        Metric::new(
            "codec.request_bytes.binary",
            mean_len(&mut pool.frames[..SMALL].iter().map(Vec::len)),
            "bytes",
            SMALL as u64,
        ),
        Metric::new(
            "codec.request_bytes.jsonl",
            mean_len(&mut pool.lines[..SMALL].iter().map(String::len)),
            "bytes",
            SMALL as u64,
        ),
        Metric::new(
            "engine.queue_wait_us",
            mean(&traced.queue_wait_us),
            "us",
            traced.queue_wait_us.len() as u64,
        ),
        Metric::new(
            "engine.solve_us",
            mean(&traced.solve_us),
            "us",
            traced.solve_us.len() as u64,
        ),
        Metric::new(
            "engine.cache_hit_frac",
            traced.cache_hits as f64 / requests,
            "frac",
            traced.requests,
        ),
        Metric::new("engine.shed", shed_total as f64, "count", out.attempted),
        Metric::new(
            "loadgen.lag_p99_ms",
            lag_p99,
            "ms",
            fixed.lag_ms.len() as u64,
        ),
        Metric::new(
            "loadgen.valid_frac",
            judged.valid as f64 / judged.windows as f64,
            "frac",
            judged.windows as u64,
        ),
        Metric::new(
            "tracing.overhead_frac",
            bare_rate / traced_rate - 1.0,
            "frac",
            traced.requests,
        ),
    ];
    Ok(out)
}
