//! The content-addressed result store.
//!
//! Results are keyed by [`em_json::hash::content_hash`] over `(resolved
//! spec, engine config, host/ISA fingerprint)` and hold the *canonical*
//! artifact bytes (wall-clock-free outcome JSON, see
//! [`em_scenarios::JobOutcome::to_json_canonical`]). Because the key
//! derives from everything that determines the solve and the solver is
//! bit-deterministic, a stored artifact is byte-identical to what a
//! fresh solve of the same submission would produce — serving it skips
//! the solve entirely, which on a bandwidth-bound code is the cheapest
//! MLUP there is.
//!
//! With a backing directory, artifacts are persisted as `<key>.json`
//! and reloaded on startup, so the store (like the tuning cache) stays
//! warm across daemon restarts.
//!
//! ## Crash safety and integrity
//!
//! A served artifact must be the bytes the solver produced — a torn
//! write or a flipped bit silently served from cache would corrupt a
//! result *and keep corrupting it on every future hit*. The disk
//! format therefore carries a fixed-width integrity footer:
//!
//! ```text
//! <payload bytes>\n#em-store-integrity fnv1a128=<32 hex> len=<16 digits>\n
//! ```
//!
//! where the hash is [`em_json::hash::content_hash_bytes`] over the
//! payload. Writes go `write tmp → fsync → rename → fsync(dir)`, so a
//! crash leaves either the old state or the complete new file. Every
//! disk read (the eager warm reload in [`ResultStore::open`]) verifies
//! the footer; a truncated, bit-flipped or footer-less file is
//! *quarantined* — renamed to `<key>.json.corrupt`, counted, logged —
//! and treated as a miss. Corrupt bytes are never served. In-memory
//! entries hold the payload only (no footer).

use em_faults::{DiskFault, FaultInjector};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Warm-reload guard: artifacts larger than this are skipped (logged,
/// not quarantined — they may be legitimate, just unreasonable to pin
/// in memory).
pub const MAX_ENTRY_BYTES: u64 = 16 * 1024 * 1024;

/// Warm-reload guard: once the reloaded payload bytes exceed this
/// total, remaining files are skipped.
pub const MAX_TOTAL_BYTES: u64 = 1024 * 1024 * 1024;

const FOOTER_TAG: &[u8] = b"\n#em-store-integrity fnv1a128=";
/// `\n` + tag + 32 hash hex + ` len=` + 16 digits + `\n`.
const FOOTER_LEN: usize = FOOTER_TAG.len() + 32 + 5 + 16 + 1;

/// The integrity footer for `payload` (ASCII, fixed width).
fn encode_footer(payload: &[u8]) -> String {
    format!(
        "\n#em-store-integrity fnv1a128={} len={:016}\n",
        em_json::hash::content_hash_bytes(payload),
        payload.len()
    )
}

/// Split `bytes` into `(payload, ())`, verifying the footer. Errors
/// describe what was wrong (for the quarantine log).
fn verify_and_strip(bytes: &[u8]) -> Result<&[u8], String> {
    if bytes.len() < FOOTER_LEN {
        return Err(format!(
            "file is {} bytes, shorter than the {FOOTER_LEN}-byte integrity footer",
            bytes.len()
        ));
    }
    let (payload, footer) = bytes.split_at(bytes.len() - FOOTER_LEN);
    let Some(rest) = footer.strip_prefix(FOOTER_TAG) else {
        return Err("integrity footer tag missing (truncated or pre-integrity file)".to_string());
    };
    let hash = &rest[..32];
    let len_digits = &rest[32 + 5..32 + 5 + 16];
    if &rest[32..32 + 5] != b" len=" || rest[rest.len() - 1] != b'\n' {
        return Err("integrity footer is malformed".to_string());
    }
    let len = std::str::from_utf8(len_digits)
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .ok_or_else(|| "integrity footer length field is not a number".to_string())?;
    if len != payload.len() {
        return Err(format!(
            "integrity footer says {len} payload bytes, file has {}",
            payload.len()
        ));
    }
    let actual = em_json::hash::content_hash_bytes(payload);
    if actual.as_bytes() != hash {
        return Err(format!(
            "integrity hash mismatch: footer {}, payload {actual}",
            String::from_utf8_lossy(hash)
        ));
    }
    Ok(payload)
}

struct Entry {
    bytes: Arc<Vec<u8>>,
    hits: u64,
}

/// A thread-safe, optionally disk-backed map `key -> artifact bytes`.
pub struct ResultStore {
    entries: Mutex<HashMap<String, Entry>>,
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Corrupt on-disk artifacts moved aside (here and across reloads
    /// of this directory within this process lifetime).
    quarantined: AtomicU64,
    /// Chaos seam: when set, store writes consult the injector
    /// (injected write errors, post-rename truncation / bit flips).
    faults: Mutex<Option<Arc<FaultInjector>>>,
}

impl ResultStore {
    /// An in-memory store.
    pub fn in_memory() -> ResultStore {
        ResultStore {
            entries: Mutex::new(HashMap::new()),
            dir: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            faults: Mutex::new(None),
        }
    }

    /// A disk-backed store: existing `<32-hex>.json` files in `dir` are
    /// loaded eagerly (a warm start), new artifacts are written through.
    ///
    /// Every loaded file's integrity footer is verified; corrupt or
    /// truncated files are quarantined to `<key>.json.corrupt` and
    /// skipped. Files larger than [`MAX_ENTRY_BYTES`] — and any files
    /// past a [`MAX_TOTAL_BYTES`] running total — are skipped with a
    /// log line (junk in the directory must not wedge startup).
    pub fn open(dir: &Path) -> Result<ResultStore, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create result store {}: {e}", dir.display()))?;
        let store = ResultStore {
            entries: Mutex::new(HashMap::new()),
            dir: Some(dir.to_path_buf()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            faults: Mutex::new(None),
        };
        let listing = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read result store {}: {e}", dir.display()))?;
        let mut total: u64 = 0;
        let mut entries = HashMap::new();
        // Deterministic reload order so the total-bytes cap cuts the
        // same tail on every start.
        let mut items: Vec<_> = listing
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("result store listing failed: {e}"))?;
        items.sort_by_key(|i| i.file_name());
        for item in items {
            let name = item.file_name();
            let Some(key) = name.to_str().and_then(|n| n.strip_suffix(".json")) else {
                continue;
            };
            if !em_json::hash::is_key(key) {
                continue;
            }
            let path = item.path();
            let size = item.metadata().map(|m| m.len()).unwrap_or(u64::MAX);
            if size > MAX_ENTRY_BYTES {
                eprintln!(
                    "[store] skipping oversized artifact {} ({size} bytes > {MAX_ENTRY_BYTES})",
                    path.display()
                );
                continue;
            }
            if total + size > MAX_TOTAL_BYTES {
                eprintln!(
                    "[store] warm-reload byte budget exhausted ({total} loaded); skipping {}",
                    path.display()
                );
                continue;
            }
            let bytes = std::fs::read(&path)
                .map_err(|e| format!("cannot read artifact {}: {e}", path.display()))?;
            match verify_and_strip(&bytes) {
                Ok(payload) => {
                    total += size;
                    entries.insert(
                        key.to_string(),
                        Entry {
                            bytes: Arc::new(payload.to_vec()),
                            hits: 0,
                        },
                    );
                }
                Err(why) => store.quarantine(&path, &why),
            }
        }
        *store.entries.lock().unwrap_or_else(PoisonError::into_inner) = entries;
        Ok(store)
    }

    /// Move a failed-verification artifact aside so it is never loaded
    /// (or served) again, and count it. Best-effort: if even the rename
    /// fails the file is left behind but still not loaded.
    fn quarantine(&self, path: &Path, why: &str) {
        let target = path.with_extension("json.corrupt");
        eprintln!(
            "[store] quarantining {} -> {}: {why}",
            path.display(),
            target.display()
        );
        if let Err(e) = std::fs::rename(path, &target) {
            eprintln!("[store] quarantine rename failed: {e} (entry still skipped)");
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Install the chaos injector consulted by [`Self::put`].
    pub fn set_fault_injector(&self, inj: Arc<FaultInjector>) {
        *self.faults.lock().unwrap_or_else(PoisonError::into_inner) = Some(inj);
    }

    fn fault_for(&self, key: &str) -> DiskFault {
        let guard = self.faults.lock().unwrap_or_else(PoisonError::into_inner);
        match guard.as_ref() {
            Some(inj) => inj.disk_fault(key),
            None => DiskFault::None,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Entry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look a key up, counting the hit or miss.
    pub fn get(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        let mut entries = self.lock();
        match entries.get_mut(key) {
            Some(e) => {
                e.hits += 1;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.bytes.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether a key is present (no hit accounting).
    pub fn contains(&self, key: &str) -> bool {
        self.lock().contains_key(key)
    }

    /// Insert an artifact. Content-addressing makes double insertion
    /// benign (the bytes are equal by construction), so concurrent
    /// completions of coalesced jobs need no further coordination.
    ///
    /// The disk write is crash-safe: payload + integrity footer go to a
    /// temp file, which is fsynced *before* the rename, and the
    /// directory entry is fsynced after — a crash at any point leaves
    /// either no `<key>.json` or a complete, verifiable one.
    pub fn put(&self, key: &str, bytes: Vec<u8>) -> Result<(), String> {
        let fault = if self.dir.is_some() {
            self.fault_for(key)
        } else {
            DiskFault::None
        };
        if fault == DiskFault::Error {
            return Err(format!("injected: disk write error for artifact {key}"));
        }
        if let Some(dir) = &self.dir {
            let path = dir.join(format!("{key}.json"));
            let tmp = dir.join(format!("{key}.tmp.{}", std::process::id()));
            let write = || -> std::io::Result<()> {
                let mut f = std::fs::File::create(&tmp)?;
                f.write_all(&bytes)?;
                f.write_all(encode_footer(&bytes).as_bytes())?;
                // Data must be durable before the rename publishes the
                // name, else a crash can leave a named-but-empty file.
                f.sync_all()
            };
            write().map_err(|e| {
                let _ = std::fs::remove_file(&tmp);
                format!("cannot write artifact {}: {e}", tmp.display())
            })?;
            std::fs::rename(&tmp, &path).map_err(|e| {
                let _ = std::fs::remove_file(&tmp);
                format!("cannot move artifact into {}: {e}", path.display())
            })?;
            // Publish the directory entry too; best-effort (some
            // filesystems refuse fsync on directories).
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
            match fault {
                DiskFault::Truncate => {
                    // Corrupt the *disk* copy only: the running daemon
                    // keeps serving the good in-memory payload; the next
                    // warm reload must quarantine this file.
                    if let (Ok(f), Some(inj)) = (
                        std::fs::OpenOptions::new().write(true).open(&path),
                        self.faults
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .clone(),
                    ) {
                        let full = bytes.len() + FOOTER_LEN;
                        let _ = f.set_len(inj.truncate_len(full, key) as u64);
                    }
                }
                DiskFault::BitFlip => {
                    let inj = self
                        .faults
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .clone();
                    if let (Ok(mut on_disk), Some(inj)) = (std::fs::read(&path), inj) {
                        inj.flip_bit(&mut on_disk, key);
                        let _ = std::fs::write(&path, &on_disk);
                    }
                }
                DiskFault::None | DiskFault::Error => {}
            }
        }
        self.lock().entry(key.to_string()).or_insert(Entry {
            bytes: Arc::new(bytes),
            hits: 0,
        });
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// `(lookup hits, lookup misses)` since construction.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Corrupt artifacts quarantined by this store instance.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_faults::FaultPlan;

    fn key(n: u8) -> String {
        em_json::hash::content_hash(&["test", &n.to_string()])
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("em_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_roundtrip_and_counters() {
        let store = ResultStore::in_memory();
        let k = key(1);
        assert!(store.get(&k).is_none());
        store.put(&k, b"{\"x\": 1}\n".to_vec()).unwrap();
        assert_eq!(store.get(&k).unwrap().as_slice(), b"{\"x\": 1}\n");
        assert!(store.contains(&k));
        assert_eq!(store.len(), 1);
        assert_eq!(store.counters(), (1, 1));
    }

    #[test]
    fn double_insert_keeps_the_first_bytes() {
        let store = ResultStore::in_memory();
        let k = key(2);
        store.put(&k, b"first".to_vec()).unwrap();
        store.put(&k, b"second".to_vec()).unwrap();
        assert_eq!(store.get(&k).unwrap().as_slice(), b"first");
    }

    #[test]
    fn disk_backed_store_survives_a_restart() {
        let dir = temp_dir("restart");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(&key(3), b"artifact-bytes".to_vec()).unwrap();
            assert!(dir.join(format!("{}.json", key(3))).is_file());
        }
        // Unrelated files are ignored on reload.
        std::fs::write(dir.join("notes.txt"), b"x").unwrap();
        std::fs::write(dir.join("zz.json"), b"x").unwrap();
        let warm = ResultStore::open(&dir).unwrap();
        assert_eq!(warm.len(), 1);
        assert_eq!(warm.get(&key(3)).unwrap().as_slice(), b"artifact-bytes");
        assert_eq!(warm.quarantined(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn footer_roundtrip_and_tamper_detection() {
        let payload = b"{\"key\": \"abc\"}\n";
        let mut on_disk = payload.to_vec();
        on_disk.extend_from_slice(encode_footer(payload).as_bytes());
        assert_eq!(verify_and_strip(&on_disk).unwrap(), payload);

        // Truncation (any amount) fails verification.
        for cut in [1, FOOTER_LEN / 2, FOOTER_LEN, on_disk.len() - 1] {
            let torn = &on_disk[..on_disk.len() - cut];
            assert!(verify_and_strip(torn).is_err(), "cut {cut} bytes");
        }
        // A single flipped bit anywhere fails verification.
        for at in [0, payload.len() / 2, on_disk.len() - 2] {
            let mut bad = on_disk.clone();
            bad[at] ^= 0x01;
            assert!(verify_and_strip(&bad).is_err(), "flip at {at}");
        }
        // Footer-less (legacy / foreign) bytes fail verification.
        assert!(verify_and_strip(payload).is_err());
    }

    #[test]
    fn corrupt_artifacts_are_quarantined_not_served() {
        let dir = temp_dir("quarantine");
        let (good, torn, flipped) = (key(4), key(5), key(6));
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(&good, b"good-bytes".to_vec()).unwrap();
            store.put(&torn, b"torn-bytes".to_vec()).unwrap();
            store.put(&flipped, b"flipped-bytes".to_vec()).unwrap();
        }
        // Corrupt two of the three on disk.
        let torn_path = dir.join(format!("{torn}.json"));
        let n = std::fs::metadata(&torn_path).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&torn_path)
            .unwrap();
        f.set_len(n / 2).unwrap();
        drop(f);
        let flip_path = dir.join(format!("{flipped}.json"));
        let mut b = std::fs::read(&flip_path).unwrap();
        b[3] ^= 0x40;
        std::fs::write(&flip_path, &b).unwrap();

        let warm = ResultStore::open(&dir).unwrap();
        assert_eq!(warm.len(), 1, "only the intact artifact loads");
        assert_eq!(warm.get(&good).unwrap().as_slice(), b"good-bytes");
        assert!(warm.get(&torn).is_none());
        assert!(warm.get(&flipped).is_none());
        assert_eq!(warm.quarantined(), 2);
        assert!(dir.join(format!("{torn}.json.corrupt")).is_file());
        assert!(dir.join(format!("{flipped}.json.corrupt")).is_file());
        assert!(!dir.join(format!("{torn}.json")).is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_reload_shrugs_off_a_directory_of_junk() {
        let dir = temp_dir("junk");
        std::fs::create_dir_all(&dir).unwrap();
        // Key-shaped but empty / garbage / footer-less files, plus an
        // oversized key-shaped file, plus assorted non-key junk.
        std::fs::write(dir.join(format!("{}.json", key(7))), b"").unwrap();
        std::fs::write(dir.join(format!("{}.json", key(8))), vec![0u8; 700]).unwrap();
        std::fs::write(
            dir.join(format!("{}.json", key(9))),
            b"{\"no\": \"footer\"}",
        )
        .unwrap();
        let big = dir.join(format!("{}.json", key(10)));
        let f = std::fs::File::create(&big).unwrap();
        f.set_len(MAX_ENTRY_BYTES + 1).unwrap();
        drop(f);
        std::fs::write(dir.join("README"), b"not an artifact").unwrap();
        std::fs::write(dir.join("short.json"), b"x").unwrap();
        std::fs::create_dir_all(dir.join("subdir.json")).unwrap();

        let store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty(), "nothing loadable in a junk directory");
        assert_eq!(store.quarantined(), 3, "the three key-shaped files");
        // The store still works for new writes afterwards.
        store.put(&key(11), b"fresh".to_vec()).unwrap();
        assert_eq!(store.get(&key(11)).unwrap().as_slice(), b"fresh");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_disk_faults_fail_writes_or_corrupt_only_the_disk_copy() {
        let dir = temp_dir("faults");
        let store = ResultStore::open(&dir).unwrap();
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::parse("seed=1,disk-error=1").unwrap(),
        ));
        store.set_fault_injector(inj);
        let err = store.put(&key(12), b"doomed".to_vec()).unwrap_err();
        assert!(err.starts_with("injected:"), "{err}");
        assert!(!store.contains(&key(12)), "failed write must not land");

        // Bit-flip: the write succeeds, memory serves good bytes, the
        // disk copy is quarantined on the next reload.
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::parse("seed=1,bit-flip=1").unwrap(),
        ));
        store.set_fault_injector(inj.clone());
        store
            .put(&key(13), b"still-good-in-memory".to_vec())
            .unwrap();
        assert_eq!(
            store.get(&key(13)).unwrap().as_slice(),
            b"still-good-in-memory"
        );
        assert_eq!(inj.counts().bit_flips, 1);
        let warm = ResultStore::open(&dir).unwrap();
        assert!(
            warm.get(&key(13)).is_none(),
            "corrupt disk copy never serves"
        );
        assert_eq!(warm.quarantined(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
