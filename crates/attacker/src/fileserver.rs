//! The Attacker's file server (the paper installs Apache for this role):
//! serves the infection shell script and the per-architecture bot binaries
//! over HTTP.

use firmware::ServedFile;
use netsim::{Application, Ctx, ForkMap, Payload, TcpEvent};
use protocols::{HttpRequest, HttpResponse, HTTP_PORT};
use std::collections::HashMap;

/// A static HTTP file server.
#[derive(Debug, Default)]
pub struct FileServer {
    files: HashMap<String, ServedFile>,
    /// Requests served with 200.
    pub hits: u64,
    /// Requests answered 404.
    pub misses: u64,
}

impl FileServer {
    /// Creates a server hosting `files` (keyed by their published paths).
    pub fn new(files: Vec<ServedFile>) -> Self {
        FileServer {
            files: files.into_iter().map(|f| (f.path.clone(), f)).collect(),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of hosted files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }
}

impl Application for FileServer {
    fn name(&self) -> &str {
        "apache"
    }

    fn fork(&self, _map: &ForkMap) -> Option<Box<dyn Application>> {
        // ServedFile entries share their ProgramLauncher through an Arc;
        // launchers capture only plain configuration, so sharing is safe.
        Some(Box::new(FileServer {
            files: self.files.clone(),
            hits: self.hits,
            misses: self.misses,
        }))
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.tcp_listen(HTTP_PORT)
            .expect("HTTP port is free on the attacker node");
    }

    fn on_tcp(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        if let TcpEvent::Data { conn, payload, .. } = event {
            let Some(req) = payload.get::<HttpRequest>() else {
                return;
            };
            let resp = match self.files.get(&req.path) {
                Some(file) => {
                    self.hits += 1;
                    let bytes = u32::try_from(file.entry.size_bytes).unwrap_or(u32::MAX);
                    HttpResponse::ok(Payload::new(file.clone()), bytes)
                }
                None => {
                    self.misses += 1;
                    HttpResponse::not_found()
                }
            };
            let bytes = resp.wire_size();
            let _ = ctx.tcp_send(conn, Payload::new(resp), bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmware::{FileEntry, FileKind, ShellScript};

    fn script_file(path: &str) -> ServedFile {
        let s = ShellScript::new(["echo hi"]);
        let size = s.byte_size();
        ServedFile {
            path: path.to_owned(),
            entry: FileEntry {
                kind: FileKind::Script(s),
                size_bytes: size,
                executable: false,
            },
        }
    }

    #[test]
    fn files_are_indexed_by_path() {
        let fs = FileServer::new(vec![script_file("/infect.sh"), script_file("/other.sh")]);
        assert_eq!(fs.file_count(), 2);
    }
}
