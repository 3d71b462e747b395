//! Workload inputs: simulated data directories, generated from the
//! workload seed, cached by (seed, size) and identified by a digest.
//!
//! A data directory has exactly the files `retrodns simulate` writes and
//! `retrodns analyze` / `retrodns-serve` read, so the program under test
//! sees nothing but generated data. Generation is deterministic: the same
//! (seed, domains) pair yields byte-identical files, hence the same
//! digest, and a cached directory is reused only if its files still
//! hash to the digest recorded when it was generated.

use std::path::{Path, PathBuf};

use retrodns::sim::{SimConfig, World};

/// Files of a data directory, in digest order.
pub const FILES: [&str; 8] = [
    "scans.json",
    "certs.json",
    "asdb.json",
    "pdns.json",
    "crtsh.json",
    "dnssec.json",
    "trust.json",
    "meta.json",
];

/// Sidecar holding the digest recorded at generation time.
const DIGEST_FILE: &str = "digest.txt";

/// Cached data directories kept per cache; older ones are evicted.
const KEEP: usize = 6;

/// A ready data directory.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The directory.
    pub dir: PathBuf,
    /// Digest of its files.
    pub digest: u64,
    /// Total bytes of its files.
    pub bytes: u64,
}

/// Build the world for (`seed`, `domains`) and write its data sets into
/// `out` as JSON, in the layout `retrodns simulate` writes.
pub fn generate(out: &Path, seed: u64, domains: usize) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let world = World::build(SimConfig {
        seed,
        n_domains: domains,
        ..SimConfig::default()
    });
    let dataset = world.scan();
    save(out, "scans.json", &dataset)?;
    save(out, "certs.json", &world.certs)?;
    save(out, "asdb.json", &world.geo.asdb)?;
    save(out, "pdns.json", &world.pdns)?;
    save(out, "crtsh.json", &world.crtsh)?;
    save(out, "dnssec.json", &world.dnssec)?;
    save(out, "trust.json", &world.trust)?;
    save(out, "meta.json", &world.meta)
}

fn save<T: serde::Serialize>(dir: &Path, name: &str, value: &T) -> Result<(), String> {
    let path = dir.join(name);
    let json = serde_json::to_vec(value).expect("world data serializes");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Digest (FNV-1a over each file's name, length and bytes, in [`FILES`]
/// order) and total size of a data directory.
pub fn digest(dir: &Path) -> Result<(u64, u64), String> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut total = 0u64;
    for name in FILES {
        let path = dir.join(name);
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        eat(name.as_bytes());
        eat(&(bytes.len() as u64).to_le_bytes());
        eat(&bytes);
        total += bytes.len() as u64;
    }
    Ok((h, total))
}

/// The data directory for (`seed`, `domains`) under `cache`, generated
/// with `generate` when it is missing or no longer matches its recorded
/// digest.
pub fn ensure(
    cache: &Path,
    seed: u64,
    domains: usize,
    generate: &dyn Fn(&Path) -> Result<(), String>,
) -> Result<Inputs, String> {
    let dir = cache.join(format!("d{domains}-s{seed}"));
    let recorded = std::fs::read_to_string(dir.join(DIGEST_FILE))
        .ok()
        .and_then(|s| u64::from_str_radix(s.trim(), 16).ok());
    if let Some(recorded) = recorded {
        if let Ok((d, bytes)) = digest(&dir) {
            if d == recorded {
                return Ok(Inputs {
                    dir,
                    digest: d,
                    bytes,
                });
            }
        }
    }
    let tmp = cache.join(format!(".tmp-d{domains}-s{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    generate(&tmp)?;
    let (d, bytes) = digest(&tmp)?;
    std::fs::write(tmp.join(DIGEST_FILE), format!("{d:016x}\n"))
        .map_err(|e| format!("{}: {e}", tmp.display()))?;
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::rename(&tmp, &dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    evict(cache, &dir);
    Ok(Inputs {
        dir,
        digest: d,
        bytes,
    })
}

/// Remove the least recently generated directories beyond [`KEEP`].
fn evict(cache: &Path, keep: &Path) {
    let Ok(entries) = std::fs::read_dir(cache) else {
        return;
    };
    let mut dirs: Vec<(std::time::SystemTime, PathBuf)> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.as_path() != keep)
        .filter_map(|p| Some((p.metadata().ok()?.modified().ok()?, p)))
        .collect();
    dirs.sort();
    let excess = (dirs.len() + 1).saturating_sub(KEEP);
    for (_, p) in dirs.into_iter().take(excess) {
        let _ = std::fs::remove_dir_all(p);
    }
}
