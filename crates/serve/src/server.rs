//! The resident server: accept loop, per-connection reader/writer
//! threads, and the job worker pool.
//!
//! Threading model (one `Ddosim` world is `!Send` by design, so worlds
//! are built *inside* worker threads, never moved across them — the same
//! shape as the sweep runners in `ddosim_core::experiment`):
//!
//! * The accept loop polls a nonblocking listener every 50 ms so it can
//!   notice shutdown (SIGTERM, a protocol `shutdown` request, or the
//!   idle timeout) promptly.
//! * Each connection gets a reader thread (sockets carry a 100 ms read
//!   timeout, again so shutdown is prompt) and a writer thread fed by an
//!   unbounded channel — every frame for that connection, whichever
//!   worker produced it, funnels through the one writer, so frames are
//!   whole lines and per-job order is preserved.
//! * Workers pull jobs off a shared queue, build the world, attach the
//!   streaming event sink, run, and emit the final frame. A job that
//!   fails validation or panics mid-run costs an `error` frame for that
//!   job id and nothing else: the worker survives (`catch_unwind`, the
//!   same isolation the sweep paths use) and keeps serving.
//!
//! Shutdown drains: queued jobs still run, their frames still deliver,
//! and `run` returns `Ok(())` once workers and connections are joined.

use crate::framing::{FrameError, LineReader};
use crate::protocol::{self, Action, JobSpec};
use ddosim_core::{
    install_location_hook, panic_message, take_panic_location, Telemetry, TelemetryConfig,
};
use djson::Json;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Set by the SIGTERM handler; the accept loop polls it.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM handler via the C `signal` symbol directly —
/// the workspace has no libc crate, and storing one atomic flag is
/// async-signal-safe.
fn install_sigterm_handler() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
        }
    }
}

/// How `ddosim serve` listens and when it gives up.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:0` (port 0 picks an ephemeral
    /// port; read it back with [`Server::local_addr`]).
    pub listen: String,
    /// Stop serving after this much wall-clock time with no connection
    /// activity and no pending jobs. `None` serves until SIGTERM or a
    /// protocol shutdown.
    pub idle_timeout: Option<Duration>,
    /// Worker threads (each runs one world at a time). Defaults to a
    /// small pool sized from available parallelism.
    pub workers: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { listen: "127.0.0.1:0".to_owned(), idle_timeout: None, workers: None }
    }
}

/// A bound (but not yet serving) server. Binding and serving are split
/// so callers can learn the ephemeral port before entering the accept
/// loop.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    opts: ServeOptions,
    shutdown: Arc<AtomicBool>,
}

/// Binds and serves in one call; returns when the server shuts down.
///
/// # Errors
///
/// Returns a message if the listen address cannot be bound or the
/// listener fails.
pub fn serve(opts: ServeOptions) -> Result<(), String> {
    Server::bind(opts)?.run()
}

/// One queued unit of work: what to run and where its frames go.
struct Job {
    id: String,
    spec: JobSpec,
    record: bool,
    metrics_interval: Option<Duration>,
    out: Sender<String>,
}

fn send_frame(out: &Sender<String>, frame: Json) {
    // A send error means the connection's writer is gone (client hung
    // up); the job keeps running, its remaining frames just drop.
    let _ = out.send(frame.to_string_compact());
}

impl Server {
    /// Binds the listen address.
    ///
    /// # Errors
    ///
    /// Returns a message if binding fails.
    pub fn bind(opts: ServeOptions) -> Result<Server, String> {
        let listener = TcpListener::bind(&opts.listen)
            .map_err(|e| format!("binding {}: {e}", opts.listen))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("reading bound address: {e}"))?;
        Ok(Server { listener, addr, opts, shutdown: Arc::new(AtomicBool::new(false)) })
    }

    /// The bound address (the real port, when `listen` asked for 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that makes [`Server::run`] return after draining when
    /// set (what a protocol `shutdown` request sets internally).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serves until SIGTERM, a protocol `shutdown` request, or the idle
    /// timeout; drains pending jobs, then returns.
    ///
    /// # Errors
    ///
    /// Returns a message if the listener itself fails. Per-connection
    /// and per-job failures are reported as `error` frames, never here.
    pub fn run(self) -> Result<(), String> {
        install_sigterm_handler();
        install_location_hook();
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("listener nonblocking: {e}"))?;

        let pending = Arc::new(AtomicUsize::new(0));
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let worker_count = self.opts.workers.unwrap_or_else(default_workers).max(1);
        let workers: Vec<_> = (0..worker_count)
            .map(|_| {
                let rx = Arc::clone(&job_rx);
                let pending = Arc::clone(&pending);
                thread::spawn(move || worker_loop(&rx, &pending))
            })
            .collect();

        let job_counter = Arc::new(AtomicU64::new(0));
        let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
        let mut last_activity = Instant::now();
        loop {
            if self.shutdown.load(Ordering::SeqCst) || SIGNALLED.load(Ordering::SeqCst) {
                break;
            }
            // A finished connection thread keeps its stack mapped until it
            // is joined: reap as we go, not only at shutdown.
            for done in connections.extract_if(.., |c| c.is_finished()) {
                let _ = done.join();
            }
            if pending.load(Ordering::SeqCst) > 0 {
                last_activity = Instant::now();
            } else if let Some(limit) = self.opts.idle_timeout {
                if last_activity.elapsed() >= limit {
                    break;
                }
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    last_activity = Instant::now();
                    let job_tx = job_tx.clone();
                    let shutdown = Arc::clone(&self.shutdown);
                    let pending = Arc::clone(&pending);
                    let counter = Arc::clone(&job_counter);
                    connections.push(thread::spawn(move || {
                        // A dead or misbehaving client costs only its own
                        // connection.
                        let _ = handle_connection(stream, &job_tx, &shutdown, &pending, &counter);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(50));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        }
        // Drain: reader threads notice the flag within their read
        // timeout, workers finish the queue once every sender is gone.
        self.shutdown.store(true, Ordering::SeqCst);
        drop(job_tx);
        for w in workers {
            let _ = w.join();
        }
        for c in connections {
            let _ = c.join();
        }
        Ok(())
    }
}

fn default_workers() -> usize {
    // Each worker runs a full single-threaded world; a small pool keeps
    // the box responsive while still overlapping concurrent jobs.
    thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).clamp(1, 4))
        .unwrap_or(2)
}

/// Reads requests off one connection, queueing jobs and answering
/// protocol errors, until EOF, a fatal transport error, or shutdown.
fn handle_connection(
    stream: TcpStream,
    job_tx: &Sender<Job>,
    shutdown: &Arc<AtomicBool>,
    pending: &Arc<AtomicUsize>,
    counter: &Arc<AtomicU64>,
) -> Result<(), String> {
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| format!("socket read timeout: {e}"))?;
    let write_half = stream.try_clone().map_err(|e| format!("socket clone: {e}"))?;
    let (out_tx, out_rx) = mpsc::channel::<String>();
    let writer = thread::spawn(move || writer_loop(write_half, &out_rx));

    let mut reader = LineReader::new(stream);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let line = match reader.next_line() {
            Ok(None) => break,
            Ok(Some(line)) if line.trim().is_empty() => continue,
            Ok(Some(line)) => line,
            Err(FrameError::TimedOut) => continue,
            // Recoverable framing failures answer with an error frame
            // and keep the connection alive (the reader has already
            // resynchronized).
            Err(e @ (FrameError::Oversized { .. } | FrameError::NotUtf8)) => {
                send_frame(&out_tx, protocol::frame_error(None, &e.message()));
                continue;
            }
            Err(FrameError::Io(e)) => {
                // The transport died; nobody is left to notify.
                let _ = e;
                break;
            }
        };
        match protocol::parse_request(&line) {
            Err(msg) => send_frame(&out_tx, protocol::frame_error(None, &msg)),
            Ok(Action::Shutdown) => {
                send_frame(&out_tx, protocol::frame_shutdown());
                shutdown.store(true, Ordering::SeqCst);
                break;
            }
            Ok(Action::Submit(req)) => {
                let id = req
                    .id
                    .unwrap_or_else(|| format!("job-{}", counter.fetch_add(1, Ordering::SeqCst)));
                send_frame(&out_tx, protocol::frame_accepted(&id));
                pending.fetch_add(1, Ordering::SeqCst);
                let job = Job {
                    id,
                    spec: req.spec,
                    record: req.record,
                    metrics_interval: req.metrics_interval,
                    out: out_tx.clone(),
                };
                if let Err(refused) = job_tx.send(job) {
                    pending.fetch_sub(1, Ordering::SeqCst);
                    send_frame(
                        &out_tx,
                        protocol::frame_error(Some(&refused.0.id), "server is shutting down"),
                    );
                }
            }
        }
    }
    // The writer exits once every sender is gone — ours here, plus the
    // clone each of this connection's jobs holds until it finishes, so
    // in-flight frames still deliver.
    drop(out_tx);
    let _ = writer.join();
    Ok(())
}

/// Writes queued frame lines to the socket until every sender is gone.
fn writer_loop(mut stream: TcpStream, rx: &Receiver<String>) {
    while let Ok(mut line) = rx.recv() {
        line.push('\n');
        if stream.write_all(line.as_bytes()).and_then(|()| stream.flush()).is_err() {
            // Client hung up; drain silently so senders never block.
            while rx.recv().is_ok() {}
            break;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// Pulls jobs off the shared queue until the queue closes.
fn worker_loop(rx: &Arc<Mutex<Receiver<Job>>>, pending: &Arc<AtomicUsize>) {
    loop {
        // Standard pool idiom: the lock is held only for the blocking
        // recv; a poisoned lock (a panic between recv and unlock cannot
        // happen, but belt and braces) still yields the receiver.
        let job = {
            let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv()
        };
        let Ok(job) = job else { break };
        run_one(&job);
        pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs one job with panic isolation: any failure becomes an `error`
/// frame for this job id, and the worker lives on.
fn run_one(job: &Job) {
    let outcome = catch_unwind(AssertUnwindSafe(|| run_job(job)));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(msg)) => send_frame(&job.out, protocol::frame_error(Some(&job.id), &msg)),
        Err(payload) => {
            let msg = format!(
                "job panicked{}: {}",
                take_panic_location(),
                panic_message(&*payload)
            );
            send_frame(&job.out, protocol::frame_error(Some(&job.id), &msg));
        }
    }
}

/// Builds the world through
/// [`ScenarioPlan::build_with_telemetry`](scenario::ScenarioPlan::build_with_telemetry)
/// — the call the offline `--scenario` path makes — attaches the
/// streaming sink, runs, and emits the final frame.
///
/// Determinism: the sink and the `run_prefix` stepping are both proven
/// observers (the sink never touches the ring's contents; the resumable
/// phase walk is byte-identical to a straight-through run, which the
/// checkpoint CI stage already enforces). So the streamed trace for
/// seed+plan equals the offline trace byte for byte; the CI serve stage
/// diffs exactly that.
fn run_job(job: &Job) -> Result<(), String> {
    let JobSpec::Scenario(plan) = &job.spec;
    let mut world = plan.build_with_telemetry(TelemetryConfig {
        record: job.record,
        metrics_interval: job.metrics_interval,
        ..TelemetryConfig::default()
    })?;
    let tele = world.telemetry().clone();
    send_frame(&job.out, protocol::frame_started(&job.id, tele.recorder_capacity()));
    if job.record {
        // World construction already recorded events (container starts
        // and the like) before any sink could exist; stream that ring
        // prefix first, then tap the recorder live for the rest —
        // together they are the run's complete event sequence.
        for event in &tele.recorded_events() {
            send_frame(&job.out, protocol::frame_event(&job.id, event));
        }
        let out = job.out.clone();
        let id = job.id.clone();
        tele.set_event_sink(move |event| {
            let _ = out.send(protocol::frame_event(&id, event).to_string_compact());
        });
    }

    // With metrics on, step the simulation in interval-sized prefixes so
    // new samples stream out while the run is still going. run_prefix is
    // the checkpoint-proven resumable walk: stepping changes nothing the
    // simulation can observe.
    let mut emitted: Vec<(String, usize)> = Vec::new();
    if let Some(interval) = job.metrics_interval {
        let horizon = world.config().sim_time;
        let mut upto = interval;
        while upto < horizon {
            world.run_prefix(upto)?;
            flush_new_samples(job, &tele, &mut emitted);
            upto += interval;
        }
    }
    let completion = world.try_run_to_completion();
    flush_new_samples(job, &tele, &mut emitted);
    tele.clear_event_sink();
    let (result, _checkpoint) = completion?;
    send_frame(
        &job.out,
        protocol::frame_result(
            &job.id,
            result.to_deterministic_json(),
            tele.events_recorded(),
            tele.recorder_capacity(),
        ),
    );
    Ok(())
}

/// Streams every time-series sample not yet sent, tracking a per-series
/// high-water mark.
fn flush_new_samples(job: &Job, tele: &Telemetry, emitted: &mut Vec<(String, usize)>) {
    tele.with_metrics(|set| {
        let interval = set.interval_nanos();
        for series in set.all() {
            let slot = emitted.iter().position(|(name, _)| name == series.name());
            let start = slot.map_or(0, |i| emitted[i].1);
            for (index, value) in series.samples().iter().enumerate().skip(start) {
                send_frame(
                    &job.out,
                    protocol::frame_metrics(&job.id, series.name(), index, interval, *value),
                );
            }
            match slot {
                Some(i) => emitted[i].1 = series.len(),
                None => emitted.push((series.name().to_owned(), series.len())),
            }
        }
    });
}
