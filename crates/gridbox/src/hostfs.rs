//! The simulated host filesystem the DataServices stage files on.
//!
//! In-memory directories and files with calibrated I/O costs charged per
//! access; the WS-Transfer DataService's hash-of-DN directory naming
//! (§4.2.2) is provided as a helper.

use std::collections::BTreeMap;
use std::sync::Arc;

use ogsa_sim::rng::hash_str;
use ogsa_sim::{CostModel, VirtualClock};
use parking_lot::Mutex;

/// One staged directory: `file name → contents`.
type Directory = BTreeMap<String, Vec<u8>>;

/// Per-host filesystem: `directory name → (file name → contents)`.
#[derive(Clone)]
pub struct HostFs {
    clock: VirtualClock,
    model: Arc<CostModel>,
    dirs: Arc<Mutex<BTreeMap<String, Directory>>>,
}

impl HostFs {
    pub fn new(clock: VirtualClock, model: Arc<CostModel>) -> Self {
        HostFs {
            clock,
            model,
            dirs: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// The WS-Transfer DataService's directory naming: "The directory
    /// created is a hash of the user DN" (§4.2.2).
    pub fn dn_directory(dn: &str) -> String {
        format!("u{:016x}", hash_str(dn))
    }

    /// Create a directory (idempotent). Charged as one file op.
    pub fn create_dir(&self, dir: &str) {
        self.clock.advance(self.model.file_time(0));
        self.dirs.lock().entry(dir.to_owned()).or_default();
    }

    pub fn dir_exists(&self, dir: &str) -> bool {
        self.dirs.lock().contains_key(dir)
    }

    /// Write (or overwrite) a file; creates the directory if needed.
    pub fn write_file(&self, dir: &str, name: &str, contents: Vec<u8>) {
        self.clock.advance(self.model.file_time(contents.len()));
        self.dirs
            .lock()
            .entry(dir.to_owned())
            .or_default()
            .insert(name.to_owned(), contents);
    }

    /// Read a file's contents.
    pub fn read_file(&self, dir: &str, name: &str) -> Option<Vec<u8>> {
        let dirs = self.dirs.lock();
        let contents = dirs.get(dir)?.get(name)?.clone();
        drop(dirs);
        self.clock.advance(self.model.file_time(contents.len()));
        Some(contents)
    }

    /// File names in a directory (the DataService's dynamically-computed
    /// file-list resource property).
    pub fn list_dir(&self, dir: &str) -> Option<Vec<String>> {
        self.clock.advance(self.model.file_time(0));
        Some(self.dirs.lock().get(dir)?.keys().cloned().collect())
    }

    /// Delete one file; false if absent.
    pub fn delete_file(&self, dir: &str, name: &str) -> bool {
        self.clock.advance(self.model.file_time(0));
        self.dirs
            .lock()
            .get_mut(dir)
            .map(|d| d.remove(name).is_some())
            .unwrap_or(false)
    }

    /// Remove a directory and its contents (the WSRF DataService's Destroy).
    pub fn delete_dir(&self, dir: &str) -> bool {
        self.clock.advance(self.model.file_time(0));
        self.dirs.lock().remove(dir).is_some()
    }

    /// Size of a file, without charging I/O (metadata).
    pub fn file_size(&self, dir: &str, name: &str) -> Option<usize> {
        self.dirs.lock().get(dir)?.get(name).map(Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> HostFs {
        HostFs::new(VirtualClock::new(), Arc::new(CostModel::free()))
    }

    #[test]
    fn file_lifecycle() {
        let fs = fs();
        fs.write_file("d1", "a.dat", vec![1, 2, 3]);
        assert_eq!(fs.read_file("d1", "a.dat"), Some(vec![1, 2, 3]));
        assert_eq!(fs.file_size("d1", "a.dat"), Some(3));
        assert_eq!(fs.list_dir("d1"), Some(vec!["a.dat".into()]));
        assert!(fs.delete_file("d1", "a.dat"));
        assert!(!fs.delete_file("d1", "a.dat"));
        assert_eq!(fs.list_dir("d1"), Some(vec![]));
    }

    #[test]
    fn overwrite_replaces() {
        let fs = fs();
        fs.write_file("d", "f", vec![1]);
        fs.write_file("d", "f", vec![2, 3]);
        assert_eq!(fs.read_file("d", "f"), Some(vec![2, 3]));
    }

    #[test]
    fn delete_dir_removes_contents() {
        let fs = fs();
        fs.write_file("d", "f", vec![1]);
        assert!(fs.delete_dir("d"));
        assert!(!fs.dir_exists("d"));
        assert!(fs.read_file("d", "f").is_none());
        assert!(!fs.delete_dir("d"));
    }

    #[test]
    fn dn_directory_is_stable_and_distinct() {
        let a1 = HostFs::dn_directory("CN=alice,O=VO");
        let a2 = HostFs::dn_directory("CN=alice,O=VO");
        let b = HostFs::dn_directory("CN=bob,O=VO");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert!(a1.starts_with('u'));
    }

    #[test]
    fn io_charges_scale_with_size() {
        let clock = VirtualClock::new();
        let fs = HostFs::new(clock.clone(), Arc::new(CostModel::calibrated_2005()));
        let t0 = clock.now();
        fs.write_file("d", "small", vec![0; 10]);
        let small = clock.now().since(t0);
        let t1 = clock.now();
        fs.write_file("d", "big", vec![0; 512 * 1024]);
        let big = clock.now().since(t1);
        assert!(big > small * 10);
    }
}
