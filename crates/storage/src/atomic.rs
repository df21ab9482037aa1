//! Crash-safe persistence primitives shared by every writer in the
//! pipeline: CRC32, write-temp-then-rename, and a checksummed byte-frame
//! container.
//!
//! The weekly offline job (§6, Table 9 — 65 VMs, 998 GB of logs) dies
//! mid-write as a matter of course at production scale. Every artifact
//! writer in the workspace (`esharp-graph::io::save_graph`,
//! `DomainCollection::save`, table export, checkpoint manifests, heap
//! file metadata) routes through
//! [`atomic_write`]: the payload goes to a unique temporary file
//! in the destination directory, is fsynced, and only then renamed over
//! the final path. A torn write can therefore never shadow a good
//! artifact — the worst case is a stale `.tmp` file next to it.
//!
//! Fault injection (`esharp-fault`) threads through the `_with` variants
//! only; the plain entry points never consult an injector, so default
//! builds pay nothing.

use esharp_fault::{fault_error, Fault, FaultInjector, RetryPolicy};
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven, implemented
/// in-tree — the offline container has no access to a checksum crate.
///
/// Slicing-by-8: eight bytes per iteration through eight derived tables
/// instead of one byte through one. Checksumming runs over every
/// persisted artifact on every load (the corpus alone is megabytes), so
/// the byte-at-a-time loop was a measurable slice of binary load time.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: [[u32; 256]; 8] = build_crc_tables();
    let mut crc: u32 = !0;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb88320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // tables[t][b] = crc of byte b followed by t zero bytes, so eight
    // lookups combine to one 8-byte step.
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Monotonic suffix so concurrent writers in one process never collide on
/// a temporary name.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_path(path: &Path) -> PathBuf {
    let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let name = path
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    path.with_file_name(format!(".{name}.tmp.{pid}.{n}"))
}

/// Atomically replace `path` with `bytes`: write to a unique temporary
/// file in the same directory, fsync it, then rename over `path`. Parent
/// directories are created as needed.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    write_attempt(path.as_ref(), bytes, None)
}

/// [`atomic_write`] with fault injection and bounded retry. `site` names
/// this operation for the injector (convention: `write:<file>`).
pub fn atomic_write_with(
    path: impl AsRef<Path>,
    bytes: &[u8],
    injector: &dyn FaultInjector,
    site: &str,
    retry: &RetryPolicy,
) -> io::Result<()> {
    let path = path.as_ref();
    retry.run(|attempt| write_attempt(path, bytes, injector.fault_at(site, attempt).map(|f| (f, site))))
}

/// One write attempt, optionally perturbed by an injected fault.
fn write_attempt(path: &Path, bytes: &[u8], fault: Option<(Fault, &str)>) -> io::Result<()> {
    if let Some((f @ (Fault::IoError { .. } | Fault::Kill), site)) = fault {
        // Dies before touching the filesystem.
        return Err(fault_error(f, site));
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let tmp = temp_path(path);
    let result = (|| -> io::Result<()> {
        let mut file = File::create(&tmp)?;
        match fault {
            Some((Fault::TornWrite { numerator, denominator }, site)) => {
                // The simulated crash: a prefix reaches the temp file, the
                // rename never happens, the destination stays untouched.
                let den = denominator.max(1) as u64;
                let keep = ((bytes.len() as u64 * numerator.min(denominator) as u64) / den) as usize;
                file.write_all(&bytes[..keep.min(bytes.len())])?;
                let _ = file.sync_all();
                return Err(fault_error(
                    Fault::TornWrite { numerator, denominator },
                    site,
                ));
            }
            Some((Fault::BitFlip { offset, bit }, _)) if !bytes.is_empty() => {
                // Silent corruption: the write "succeeds"; only a checksum
                // can catch it downstream.
                let mut corrupt = bytes.to_vec();
                let idx = (offset % corrupt.len() as u64) as usize;
                corrupt[idx] ^= 1 << (bit % 8);
                file.write_all(&corrupt)?;
            }
            _ => file.write_all(bytes)?,
        }
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        // Best effort: persist the rename itself.
        if let Some(parent) = path.parent() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Magic of the checksummed byte-frame container ([`write_framed`]).
pub const FRAME_MAGIC: &[u8; 4] = b"ESCK";
const FRAME_VERSION: u16 = 1;
/// magic(4) + version(2) + payload length(8) + crc32(4).
const FRAME_HEADER: usize = 4 + 2 + 8 + 4;

/// Wrap `payload` in a checksummed frame
/// (`"ESCK" | version u16 | len u64 | crc32 u32 | payload`, all LE) and
/// write it atomically to `path`. Any torn write, truncation or single
/// bit flip anywhere in the file is detected by [`read_framed`].
pub fn write_framed(path: impl AsRef<Path>, payload: &[u8]) -> io::Result<()> {
    atomic_write(path, &frame(payload))
}

/// [`write_framed`] with fault injection and retry.
pub fn write_framed_with(
    path: impl AsRef<Path>,
    payload: &[u8],
    injector: &dyn FaultInjector,
    site: &str,
    retry: &RetryPolicy,
) -> io::Result<()> {
    atomic_write_with(path, &frame(payload), injector, site, retry)
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(FRAME_MAGIC);
    out.extend_from_slice(&FRAME_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Read and verify a frame written by [`write_framed`], returning the
/// payload. Errors (never panics) on bad magic, version, length mismatch
/// or checksum mismatch.
pub fn read_framed(path: impl AsRef<Path>) -> io::Result<Vec<u8>> {
    let mut file = File::open(path.as_ref())?;
    let mut data = Vec::new();
    file.read_to_end(&mut data)?;
    unframe(&data)
}

/// Verify and strip the [`write_framed`] container from an in-memory
/// buffer.
pub fn unframe(data: &[u8]) -> io::Result<Vec<u8>> {
    let err = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, format!("checked frame: {msg}"));
    if data.len() < FRAME_HEADER {
        return Err(err("truncated header"));
    }
    if &data[..4] != FRAME_MAGIC {
        return Err(err("bad magic"));
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != FRAME_VERSION {
        return Err(err("unsupported version"));
    }
    let len = u64::from_le_bytes(
        data[6..14]
            .try_into()
            .map_err(|_| err("truncated length"))?,
    ) as usize;
    let crc = u32::from_le_bytes(
        data[14..18]
            .try_into()
            .map_err(|_| err("truncated checksum"))?,
    );
    let payload = &data[FRAME_HEADER..];
    if payload.len() != len {
        return Err(err("payload length mismatch"));
    }
    if crc32(payload) != crc {
        return Err(err("checksum mismatch"));
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use esharp_fault::{FaultPlan, NoFaults};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("esharp_atomic_{name}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slicing_matches_bytewise_reference() {
        // The one-table, one-byte-per-step reference the slicing-by-8
        // implementation must agree with at every length (remainder
        // handling covers 0..8 tail bytes).
        fn reference(bytes: &[u8]) -> u32 {
            let mut crc: u32 = !0;
            for &b in bytes {
                let mut c = (crc ^ b as u32) & 0xff;
                for _ in 0..8 {
                    c = if c & 1 != 0 { 0xedb88320 ^ (c >> 1) } else { c >> 1 };
                }
                crc = (crc >> 8) ^ c;
            }
            !crc
        }
        let data: Vec<u8> = (0..1024u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        for len in (0..64).chain([255, 1000, 1024]) {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = tmpdir("replace");
        let path = dir.join("artifact.bin");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name() != "artifact.bin")
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_write_never_shadows_a_good_artifact() {
        let dir = tmpdir("torn");
        let path = dir.join("artifact.bin");
        atomic_write(&path, b"known good").unwrap();
        let plan = FaultPlan::new(0).trigger(
            "write:artifact",
            0,
            Fault::TornWrite { numerator: 1, denominator: 2 },
        );
        let err = atomic_write_with(
            &path,
            b"replacement that tears",
            &plan,
            "write:artifact",
            &RetryPolicy::none(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("torn"));
        assert_eq!(fs::read(&path).unwrap(), b"known good");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn transient_io_error_is_retried_away() {
        let dir = tmpdir("retry");
        let path = dir.join("artifact.bin");
        let plan = FaultPlan::new(0)
            .trigger("write:a", 0, Fault::IoError { transient: true })
            .trigger("write:a", 1, Fault::IoError { transient: true });
        atomic_write_with(&path, b"payload", &plan, "write:a", &RetryPolicy { max_attempts: 3 })
            .unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"payload");
        // Same plan, no retries: the first transient error surfaces.
        let plan2 = FaultPlan::new(0).trigger("write:a", 0, Fault::IoError { transient: true });
        assert!(
            atomic_write_with(&path, b"x", &plan2, "write:a", &RetryPolicy::none()).is_err()
        );
        assert_eq!(fs::read(&path).unwrap(), b"payload");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn framed_round_trip_and_full_corruption_matrix() {
        let dir = tmpdir("framed");
        let path = dir.join("framed.bin");
        let payload = b"the quick brown fox jumps over the lazy dog";
        write_framed(&path, payload).unwrap();
        assert_eq!(read_framed(&path).unwrap(), payload);

        let good = fs::read(&path).unwrap();
        // Truncation at every byte boundary errors.
        for cut in 0..good.len() {
            assert!(unframe(&good[..cut]).is_err(), "cut at {cut} accepted");
        }
        // Every single-bit flip errors.
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    unframe(&bad).is_err(),
                    "bit flip at byte {byte} bit {bit} accepted"
                );
            }
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn injected_bit_flip_is_caught_by_the_frame() {
        let dir = tmpdir("bitflip");
        let path = dir.join("framed.bin");
        let plan = FaultPlan::new(0).trigger(
            "write:f",
            0,
            Fault::BitFlip { offset: 21, bit: 3 },
        );
        write_framed_with(&path, b"some payload bytes", &plan, "write:f", &RetryPolicy::none())
            .unwrap();
        // The write itself succeeded; the read detects the corruption.
        assert!(read_framed(&path).is_err());
        // A clean rewrite heals it.
        write_framed_with(&path, b"some payload bytes", &NoFaults, "write:f", &RetryPolicy::none())
            .unwrap();
        assert_eq!(read_framed(&path).unwrap(), b"some payload bytes");
        let _ = fs::remove_dir_all(dir);
    }
}
