//! A long-lived server does not grow with the connections it has served:
//! each finished connection thread is joined in the accept loop, so its
//! 2 MiB stack is unmapped (or reused) instead of kept until shutdown.
//!
//! Alone in its file so no other test's threads share the process whose
//! address space is measured.

use serve::{submit, Server, ServeOptions, SubmitOptions, SubmitOutcome};
use std::io::Read as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

/// `VmSize` of this process, in kB.
fn vm_size_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmSize:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmSize line")
}

/// Opens a connection, hangs up, and waits until the server has closed
/// its side: by then the connection's thread is returning.
fn connect_and_close(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("the server closes");
}

#[test]
#[cfg_attr(not(target_os = "linux"), ignore = "reads /proc/self/status")]
fn finished_connections_do_not_keep_their_thread_stacks() {
    let server = Server::bind(ServeOptions { workers: Some(1), ..ServeOptions::default() })
        .expect("bind an ephemeral port");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run());

    for _ in 0..32 {
        connect_and_close(addr);
    }
    // Two accept-loop polls, so the warm-up's last thread is reaped too.
    thread::sleep(Duration::from_millis(150));
    let before = vm_size_kb();
    for _ in 0..64 {
        connect_and_close(addr);
    }
    thread::sleep(Duration::from_millis(150));
    let grown = vm_size_kb().saturating_sub(before);
    // Unreaped, 64 connections keep 64 × 2,052 kB (+131,328 kB measured).
    assert!(grown < 16 * 1024, "64 finished connections grew VmSize by {grown} kB");

    let outcome = submit(&SubmitOptions {
        addr: addr.to_string(),
        shutdown: true,
        ..SubmitOptions::default()
    })
    .expect("shutdown request");
    assert!(matches!(outcome, SubmitOutcome::ShutdownAcknowledged));
    handle.join().expect("server thread").expect("clean shutdown");
}
