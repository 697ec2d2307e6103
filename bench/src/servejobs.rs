//! `serve_jobs`: an in-process `serve::Server` with two workers, driven
//! as a **closed loop by two client connections** — each client submits
//! its next job only when the previous result frame has arrived, so a
//! slower server receives less load. Jobs come in rounds of eight from a
//! seeded mix: seven small defended plans and one stream-heavy recorded
//! plan. The worlds are too small for netsim to matter; what shows is
//! per-job overhead (accept, `parse_request`, plan parse, build,
//! hand-off) and framing plus event-frame serialisation.
//!
//! The clients acknowledge every segment at once ([`QuickAck`]). The
//! server writes one frame a `write` and never sets `TCP_NODELAY`, so with
//! a client that delays its ACKs the kernel holds every job but a
//! connection's first for the 40 ms delayed-ACK timer — between `accepted`
//! and `started` for a small job, before the last segment for a
//! stream-heavy one — with the job's few milliseconds of work hidden
//! behind the timer, and its heuristics flip a connection in and out of
//! that regime from run to run. Acknowledging at once keeps the timer out,
//! and the latencies are the server's work.

use crate::drive::{guarded, sample_setup, span_medians, REP_SPANS, SETUP_SHARE};
use crate::layers::{self, per_call};
use crate::metrics::{fast_end, fnv1a, median, percentile, proc_status_bytes, Outcome, FNV_OFFSET};
use crate::trace::Tracer;
use crate::workloads::{self, JobClass, Sizes, JOBS_PER_ROUND};
use crate::world::{self, WorldSpec};
use ddosim::serve::protocol::{frame_event, parse_request};
use ddosim::serve::{submit, LineReader, ServeOptions, Server, SubmitOptions, SubmitOutcome};
use ddosim::telemetry::FlightRecorder;
use ddosim::TelemetryConfig;
use djson::Json;
use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections, each a closed loop. Not more than the box has cores.
const CLIENTS: usize = 2;
/// Worker threads of the server.
const WORKERS: usize = 2;
/// The quantile of a session's job latencies reported as `wall_s`: a small
/// job that had a core to itself all the way. A run holds thousands of
/// jobs, so dozens of them are faster still. The first decile, which the
/// offline repetitions report, is a job that shared the cores with the
/// other connection's, and over 40 runs of one seed it ranged 1.21–1.55 ms
/// with whatever else the host was doing; this quantile, 1.05–1.15 ms.
const UNCONTENDED: f64 = 0.01;

/// The two plan documents and the order of classes within a round.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// `ddosim.scenario/1`: the small defended plan.
    pub small_text: String,
    /// `ddosim.scenario/1`: the stream-heavy plan.
    pub stream_text: String,
    /// Class of each job of a round.
    pub round: [JobClass; JOBS_PER_ROUND],
}

impl ServeSpec {
    /// Generates the documents and the mix from the benchmark seed.
    pub fn generate(seed: u64, z: &Sizes) -> ServeSpec {
        ServeSpec {
            small_text: workloads::serve_small_plan(seed, z),
            stream_text: workloads::serve_stream_plan(seed, z),
            round: workloads::serve_round(seed),
        }
    }

    fn plan_text(&self, class: JobClass) -> &str {
        match class {
            JobClass::Small => &self.small_text,
            JobClass::Stream => &self.stream_text,
        }
    }

    fn request(&self, job: usize, id: &str) -> (JobClass, String) {
        let class = self.round[job % JOBS_PER_ROUND];
        (
            class,
            workloads::serve_request(class, self.plan_text(class), id),
        )
    }
}

impl ServeSpec {
    /// A job of `class` as an offline world, observed the way the
    /// request line's knobs make the server observe it.
    fn offline_spec(&self, class: JobClass) -> WorldSpec {
        let telemetry = match class {
            JobClass::Small => TelemetryConfig {
                metrics_interval: Some(Duration::from_secs(2)),
                ..TelemetryConfig::default()
            },
            JobClass::Stream => TelemetryConfig {
                record: true,
                ..TelemetryConfig::default()
            },
        };
        WorldSpec {
            plan_text: self.plan_text(class).to_owned(),
            telemetry,
            full_recruitment: false,
        }
    }
}

/// What the offline path produces for a plan: the deterministic result
/// text every result frame must equal, and the trace text.
fn offline(spec: &WorldSpec) -> Result<(String, Option<String>), String> {
    let (_, detail) = guarded(|| world::rep(spec, &mut Tracer::disabled()))?;
    Ok((
        detail.result.to_deterministic_json().to_string_compact(),
        detail.trace_text,
    ))
}

/// A server accepting on an ephemeral port, with [`CLIENTS`] connections
/// already made to it.
struct Running {
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<Result<(), String>>,
    addr: SocketAddr,
}

impl Running {
    /// Binds, connects the clients, and only then starts the accept loop:
    /// the kernel queues the connections, the loop's first `accept` calls
    /// find them, and no client ever waits out the loop's 50 ms poll sleep.
    fn start() -> Result<(Running, Vec<Client>), String> {
        let server = Server::bind(ServeOptions {
            listen: "127.0.0.1:0".to_owned(),
            idle_timeout: None,
            workers: Some(WORKERS),
        })?;
        let addr = server.local_addr();
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(addr))
            .collect::<Result<_, _>>()?;
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok((
            Running {
                shutdown,
                thread,
                addr,
            },
            clients,
        ))
    }

    /// Drains and joins the server; every client connection must already
    /// be closed.
    fn stop(self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .map_err(|_| "the server thread panicked".to_owned())?
    }
}

/// One `setup_s` sample: `Server::bind` → the result of a first
/// stream-heavy job from a cold server — thread pool started, connections
/// accepted, the job parsed, built, run and streamed. (Bind → the first
/// `accepted` frame alone is a chain of five thread wake-ups and nothing
/// else: 0.4 ms or 1.4 ms depending on whether the host lets the idle
/// vCPU halt, which flips from run to run. A connection's first job does
/// not meet the delayed-ACK stall.)
fn setup_sample(spec: &ServeSpec, expected: &[String; 2]) -> Result<f64, String> {
    let class = JobClass::Stream;
    let request = workloads::serve_request(class, spec.plan_text(class), "s0");
    let start = Instant::now();
    let (server, mut clients) = Running::start()?;
    let job = clients[0].job(
        class,
        &request,
        &expected[class as usize],
        &mut Tracer::disabled(),
    );
    let took = start.elapsed().as_secs_f64();
    drop(clients);
    server.stop()?;
    job?.check?;
    Ok(took)
}

/// The `frame` kind of a line the server wrote. Frames are written with
/// `schema` then `frame` first, so no parse is needed to tell an event
/// frame from a result frame — the client stays cheap next to the server
/// it shares two cores with.
fn frame_kind(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"schema\":\"ddosim.serve/1\",\"frame\":\"")?;
    rest.split('"').next()
}

/// One finished job, as its client saw it.
#[derive(Debug)]
struct Job {
    class: JobClass,
    traced: bool,
    latency_s: f64,
    first_frame_s: f64,
    accept_to_started_s: f64,
    frames: u64,
    bytes: u64,
    packets: u64,
    check: Result<(), String>,
}

/// The read half of a client connection: puts the socket back into
/// quick-ACK mode after every read, which the kernel leaves again on its
/// own (`TCP_QUICKACK` "is not permanent", tcp(7)). Setting it also sends
/// an ACK the kernel was holding back.
struct QuickAck(TcpStream);

impl QuickAck {
    #[cfg(target_os = "linux")]
    fn arm(&self) {
        use std::os::fd::AsRawFd;
        use std::os::raw::{c_int, c_void};
        extern "C" {
            fn setsockopt(
                socket: c_int,
                level: c_int,
                name: c_int,
                value: *const c_void,
                len: u32,
            ) -> c_int;
        }
        const IPPROTO_TCP: c_int = 6;
        const TCP_QUICKACK: c_int = 12;
        let on: c_int = 1;
        // SAFETY: the descriptor is this open socket's, and `value` points
        // at a live `c_int` of the length passed. A refusal changes
        // nothing the program relies on, only the numbers.
        unsafe {
            setsockopt(
                self.0.as_raw_fd(),
                IPPROTO_TCP,
                TCP_QUICKACK,
                std::ptr::from_ref(&on).cast(),
                std::mem::size_of::<c_int>() as u32,
            );
        }
    }

    #[cfg(not(target_os = "linux"))]
    fn arm(&self) {}
}

impl Read for QuickAck {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.read(buf);
        self.arm();
        n
    }
}

/// One persistent client connection.
struct Client {
    stream: TcpStream,
    reader: LineReader<QuickAck>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let read_half = QuickAck(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        read_half.arm();
        Ok(Client {
            stream,
            reader: LineReader::new(read_half),
        })
    }

    /// Submits one request and reads its frames up to the result.
    /// `expected` is the offline result text the result frame must equal.
    fn job(
        &mut self,
        class: JobClass,
        request: &str,
        expected: &str,
        t: &mut Tracer,
    ) -> Result<Job, String> {
        let root = t.enter("serve.job");
        let submit = Instant::now();
        self.stream
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let (mut accepted, mut started, mut first) = (None, None, None);
        let (mut frames, mut bytes) = (0u64, 0u64);
        loop {
            let line = self
                .reader
                .next_line()
                .map_err(|e| e.message())?
                .ok_or("the server closed the connection mid-job")?;
            let now = Instant::now();
            frames += 1;
            bytes += line.len() as u64 + 1;
            match frame_kind(&line) {
                Some("accepted") => accepted = Some(now),
                Some("started") => started = Some(now),
                Some("event" | "metrics") => {
                    first.get_or_insert(now);
                }
                Some("result") => {
                    let frame = Json::parse(&line).map_err(|e| format!("result frame: {e}"))?;
                    let result = frame.get("result").ok_or("result frame without a result")?;
                    let check = if result.to_string_compact() == expected {
                        Ok(())
                    } else {
                        Err("the result frame differs from the offline result".to_owned())
                    };
                    let accepted = accepted.ok_or("result before accepted")?;
                    let started = started.ok_or("result before started")?;
                    let first = first.unwrap_or(now);
                    t.record("serve.submit_to_accepted", submit, accepted);
                    t.record("serve.accepted_to_started", accepted, started);
                    t.record("serve.started_to_first_frame", started, first);
                    t.record("serve.stream", first, now);
                    t.exit(root);
                    return Ok(Job {
                        class,
                        traced: t.is_enabled(),
                        latency_s: (now - submit).as_secs_f64(),
                        first_frame_s: (first - submit).as_secs_f64(),
                        accept_to_started_s: (started - accepted).as_secs_f64(),
                        frames,
                        bytes,
                        packets: result
                            .get("packets_sent")
                            .and_then(Json::as_u64)
                            .unwrap_or(0),
                        check,
                    });
                }
                _ => return Err(format!("job failed: {line}")),
            }
        }
    }
}

/// When the closed loop stops handing out jobs. Either way it stops on a
/// round boundary, so every session runs the same mix.
#[derive(Clone, Copy)]
enum Until {
    Rounds(usize),
    Deadline(Instant),
}

/// Runs the closed loop: the connections draw job numbers from one
/// counter and are closed at the end. With `epoch` set, the jobs of odd
/// rounds are traced.
fn session(
    clients: Vec<Client>,
    spec: &ServeSpec,
    expected: &[String; 2],
    label: &str,
    until: Until,
    epoch: Option<Instant>,
) -> (Vec<Result<Job, String>>, Tracer, f64) {
    let next = AtomicUsize::new(0);
    let limit = AtomicUsize::new(match until {
        Until::Rounds(n) => n * JOBS_PER_ROUND,
        Until::Deadline(_) => usize::MAX,
    });
    let start = Instant::now();
    let per_client: Vec<(Vec<Result<Job, String>>, Tracer)> = std::thread::scope(|scope| {
        let (next, limit) = (&next, &limit);
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                scope.spawn(move || {
                    let mut tracer = epoch.map_or_else(Tracer::disabled, Tracer::enabled);
                    let mut off = Tracer::disabled();
                    let mut jobs = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if let Until::Deadline(at) = until {
                            if i % JOBS_PER_ROUND == 0 && Instant::now() >= at {
                                limit.fetch_min(i, Ordering::SeqCst);
                            }
                        }
                        if i >= limit.load(Ordering::SeqCst) {
                            break;
                        }
                        let (class, request) = spec.request(i, &format!("{label}{i}"));
                        let traced = (i / JOBS_PER_ROUND) % 2 == 1;
                        tracer.set_op(i as u64);
                        let t = if traced { &mut tracer } else { &mut off };
                        let job = client.job(class, &request, &expected[class as usize], t);
                        let failed = job.is_err();
                        jobs.push(job);
                        if failed {
                            // The connection's frame stream is no longer in step.
                            tracer.close_open();
                            break;
                        }
                    }
                    (jobs, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut tracer = epoch.map_or_else(Tracer::disabled, Tracer::enabled);
    let mut jobs = Vec::new();
    for (client_jobs, client_tracer) in per_client {
        jobs.extend(client_jobs);
        if tracer.is_enabled() {
            tracer.absorb(client_tracer);
        }
    }
    (jobs, tracer, wall_s)
}

/// Submits a plan of `class` through the product's own client with
/// recording on, and holds the reassembled trace and the result to the
/// offline run.
fn reassembly_check(addr: SocketAddr, spec: &ServeSpec, class: JobClass) -> Result<(), String> {
    let mut recorded = spec.offline_spec(class);
    recorded.telemetry.record = true;
    let metrics_interval_secs = recorded.telemetry.metrics_interval.map(|d| d.as_secs_f64());
    let (result, trace) = offline(&recorded)?;
    let outcome = submit(&SubmitOptions {
        addr: addr.to_string(),
        scenario: Some(recorded.plan_text),
        record: true,
        metrics_interval_secs,
        ..SubmitOptions::default()
    })?;
    let SubmitOutcome::Completed {
        result: served,
        trace: served_trace,
        ..
    } = outcome
    else {
        return Err("the server acknowledged a shutdown nobody asked for".to_owned());
    };
    if served.to_string_compact() != result {
        return Err(format!(
            "{class:?}: the served result differs from the offline result"
        ));
    }
    if served_trace != trace {
        return Err(format!(
            "{class:?}: the reassembled trace is not the offline trace"
        ));
    }
    Ok(())
}

/// Runs the workload for `seconds` and reports its metrics.
pub fn run(spec: &ServeSpec, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    if trace {
        layers::probe_world(&mut out, &spec.offline_spec(JobClass::Small));
    }
    // Indexed by `JobClass as usize`.
    let references = offline(&spec.offline_spec(JobClass::Small))
        .and_then(|small| Ok((small, offline(&spec.offline_spec(JobClass::Stream))?)));
    let (expected, stream_trace) = match references {
        Ok(((small, _), (stream, trace))) => ([small, stream], trace.unwrap_or_default()),
        Err(why) => {
            out.attempt(Err(format!("offline reference: {why}")));
            return out;
        }
    };

    let setups = if trace {
        Vec::new()
    } else {
        sample_setup(seconds, &mut out, || setup_sample(spec, &expected))
    };

    let started = Running::start().and_then(|(server, warm)| {
        // The timed connections wait in the kernel's queue during the
        // warm-up round; the accept loop picks them up within its poll.
        let timed = (0..CLIENTS)
            .map(|_| Client::connect(server.addr))
            .collect::<Result<_, _>>();
        Ok((server, warm, timed?))
    });
    let (server, warm_clients, timed_clients): (Running, Vec<Client>, Vec<Client>) = match started {
        Ok(s) => s,
        Err(why) => {
            out.attempt(Err(why));
            return out;
        }
    };
    for class in [JobClass::Small, JobClass::Stream] {
        out.attempt(reassembly_check(server.addr, spec, class));
    }
    // One untimed round: worker threads, allocator and sockets warm.
    let (warm, _, _) = session(warm_clients, spec, &expected, "w", Until::Rounds(1), None);
    let warm_failed = warm.iter().filter_map(|j| j.as_ref().err()).next().cloned();
    let epoch = Instant::now();
    let share = if trace { 0.6 } else { 1.0 - SETUP_SHARE };
    let deadline = epoch + Duration::from_secs_f64(seconds * share);
    let (jobs, mut tracer, wall_s) = match warm_failed {
        Some(why) => (
            vec![Err(format!("warm-up: {why}"))],
            Tracer::disabled(),
            0.0,
        ),
        None => session(
            timed_clients,
            spec,
            &expected,
            "j",
            Until::Deadline(deadline),
            trace.then_some(epoch),
        ),
    };
    if let Err(why) = server.stop() {
        out.attempt(Err(why));
    }

    let mut done = Vec::new();
    for job in jobs {
        match job {
            Ok(mut job) => {
                out.attempt(std::mem::replace(&mut job.check, Ok(())));
                done.push(job);
            }
            Err(why) => out.attempt(Err(why)),
        }
    }
    if done.is_empty() {
        return out;
    }
    let latencies: Vec<f64> = done.iter().map(|j| j.latency_s).collect();
    let packets: u64 = done.iter().map(|j| j.packets).sum();
    out.n.insert("jobs", done.len() as u64);
    out.n.insert(
        "stream_jobs",
        done.iter().filter(|j| j.class == JobClass::Stream).count() as u64,
    );
    // The offline texts every result frame and reassembled trace was held
    // to, and what one round of the mix comes to (sessions end on a round
    // boundary): the same for any two runs of one seed.
    let digest = [&expected[0], &expected[1], &stream_trace]
        .iter()
        .fold(FNV_OFFSET, |h, text| fnv1a(h, text.as_bytes()));
    out.exact.insert("sim_digest", format!("{digest:016x}"));
    if done.len() % JOBS_PER_ROUND == 0 {
        let rounds = (done.len() / JOBS_PER_ROUND) as u64;
        let frames: u64 = done.iter().map(|j| j.frames).sum();
        out.exact
            .insert("packets_sent_per_round", (packets / rounds).to_string());
        out.exact
            .insert("frames_per_round", (frames / rounds).to_string());
    }
    if !trace {
        if !setups.is_empty() {
            out.set("setup_s", fast_end(&setups));
            out.set("wall_s", percentile(&latencies, UNCONTENDED));
            out.set("peak_rss_mb", proc_status_bytes("VmHWM:") as f64 / 1e6);
        }
        return out;
    }

    layer_metrics(
        &mut out,
        spec,
        &done,
        wall_s,
        &mut tracer,
        &stream_trace,
        seconds,
    );
    out.spans = Some(tracer.to_json("serve_jobs"));
    out
}

/// The per-layer metrics of a traced session.
fn layer_metrics(
    out: &mut Outcome,
    spec: &ServeSpec,
    done: &[Job],
    wall_s: f64,
    tracer: &mut Tracer,
    stream_trace: &str,
    seconds: f64,
) {
    let mean = |f: &dyn Fn(&Job) -> f64| done.iter().map(f).sum::<f64>() / done.len() as f64;
    let latencies: Vec<f64> = done.iter().map(|j| j.latency_s).collect();
    let packets: u64 = done.iter().map(|j| j.packets).sum();
    out.set("serve.jobs_per_s", done.len() as f64 / wall_s);
    out.set("serve.job_p50_s", median(&latencies));
    out.set("serve.job_p95_s", percentile(&latencies, 0.95));
    let first: Vec<f64> = done.iter().map(|j| j.first_frame_s).collect();
    out.set("serve.first_frame_p50_s", median(&first));
    let started: Vec<f64> = done.iter().map(|j| j.accept_to_started_s).collect();
    out.set("serve.accept_to_started_s", median(&started));
    out.set("serve.frames_per_job", mean(&|j| j.frames as f64));
    out.set("serve.bytes_per_job", mean(&|j| j.bytes as f64));
    out.set("netsim.packets_per_s", packets as f64 / wall_s);
    // Whole rounds on both sides, so the class mix is the same.
    let class_mean = |traced: bool| {
        let of: Vec<f64> = done
            .iter()
            .filter(|j| j.traced == traced)
            .map(|j| j.latency_s)
            .collect();
        (!of.is_empty()).then(|| of.iter().sum::<f64>() / of.len() as f64)
    };
    if let (Some(on), Some(off)) = (class_mean(true), class_mean(false)) {
        out.set("trace.overhead_share", on / off - 1.0);
    }
    if let Some(job) = tracer.totals().get("serve.job") {
        out.set(
            "trace.attributed_share",
            1.0 - job.self_ns as f64 / job.total_ns as f64,
        );
    }

    // What the server does per job, called directly on the same text.
    let requests: Vec<String> = (0..JOBS_PER_ROUND)
        .map(|i| spec.request(i, &format!("m{i}")).1)
        .collect();
    out.set(
        "serve.parse_request_us",
        1e6 / JOBS_PER_ROUND as f64
            * per_call(|| {
                for line in &requests {
                    std::hint::black_box(parse_request(line).expect("the server accepted these"));
                }
            }),
    );
    let events = Json::parse(stream_trace)
        .ok()
        .and_then(|doc| FlightRecorder::events_from_json(&doc).ok())
        .unwrap_or_default();
    if !events.is_empty() {
        let mut lines = String::new();
        let secs = per_call(|| {
            lines.clear();
            for event in &events {
                lines.push_str(&frame_event("j0", event).to_string_compact());
                lines.push('\n');
            }
        });
        out.set("serve.frame_event_ns", secs * 1e9 / events.len() as f64);
        let secs = per_call(|| {
            let mut reader = LineReader::new(lines.as_bytes());
            while let Ok(Some(line)) = reader.next_line() {
                std::hint::black_box(line);
            }
        });
        out.set("serve.framing.lines_per_s", events.len() as f64 / secs);
        out.set("telemetry.events_recorded", events.len() as f64);
    }
    // The small plan's own offline phases: where a job's time goes once
    // a worker has it.
    let small = spec.offline_spec(JobClass::Small);
    tracer.set_op(u64::MAX);
    tracer.enter("offline.small");
    for _ in 0..3 {
        if let Err(why) = guarded(|| world::rep(&small, tracer).map(|_| ())) {
            out.attempt(Err(format!("offline small plan: {why}")));
            break;
        }
    }
    // Also closes whatever a failed repetition left open.
    tracer.close_open();
    span_medians(out, tracer, REP_SPANS);
    let stream = spec.offline_spec(JobClass::Stream);
    layers::telemetry_overhead(out, &stream, seconds * 0.1);
    layers::json(out, stream_trace);
    layers::infection_chain(out);
}
