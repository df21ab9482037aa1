//! Crash-safe persistence primitives shared by every writer in the
//! pipeline: CRC32, write-temp-then-rename, and the one sealed frame.
//!
//! The weekly offline job (§6, Table 9 — 65 VMs, 998 GB of logs) dies
//! mid-write as a matter of course at production scale. Every artifact
//! writer in the workspace (`esharp-graph::io::save_graph`,
//! `DomainCollection::save`, checkpoints, the corpus file, heap file
//! metadata) routes through
//! [`atomic_write`]: the payload goes to a unique temporary file
//! in the destination directory, is fsynced, and only then renamed over
//! the final path. A torn write can therefore never shadow a good
//! artifact — the worst case is a stale `.tmp` file next to it.
//!
//! Every checksummed container seals its parts the same way, as frames of
//! `len u64 LE | crc32 u32 LE | payload` ([`frame_header`] writes the
//! header, [`read_frame`] checks it, and [`split_frame`] checks a frame
//! already in memory without copying its payload): the binfmt table
//! containers (graph, domains, checkpoints, the corpus file's string
//! section), spill runs and heap metadata. A truncation, a torn tail or a flipped bit anywhere in a
//! frame fails its read with `InvalidData`.
//!
//! Fault injection (`esharp-fault`) threads through [`atomic_write_with`]
//! only; [`atomic_write`] never consults an injector, so default builds
//! pay nothing.

use esharp_fault::{write_with_fault, Fault, FaultInjector, RetryPolicy};
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven, implemented
/// in-tree — the offline container has no access to a checksum crate.
///
/// Slicing-by-16: sixteen bytes per iteration through sixteen derived
/// tables instead of one byte through one. Checksumming runs over every
/// persisted artifact on every load — the corpus file's string section
/// is hashed once, frame by frame — and sixteen-byte steps are about
/// twice as fast as eight-byte ones (36 vs 78 ms per 100 MiB on one core
/// of a 2-vCPU x86-64 VM).
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: [[u32; 256]; 16] = build_crc_tables();
    let mut crc: u32 = !0;
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        let mut next = 0;
        for (w, word) in c.chunks_exact(4).enumerate() {
            let mut v = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            if w == 0 {
                v ^= crc;
            }
            for b in 0..4 {
                next ^= TABLES[15 - 4 * w - b][((v >> (8 * b)) & 0xff) as usize];
            }
        }
        crc = next;
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
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
    // tables[t][b] = crc of byte b followed by t zero bytes, so sixteen
    // lookups combine to one 16-byte step.
    let mut t = 1;
    while t < 16 {
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
    write_attempt(path.as_ref(), bytes, None, "")
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
    retry.run(|attempt| write_attempt(path, bytes, injector.fault_at(site, attempt), site))
}

/// One write attempt, optionally perturbed by an injected fault. A failed
/// attempt (a torn write is the simulated crash) removes its temporary
/// file and leaves the destination untouched.
fn write_attempt(path: &Path, bytes: &[u8], fault: Option<Fault>, site: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let tmp = temp_path(path);
    let result = (|| -> io::Result<()> {
        let mut file = File::create(&tmp)?;
        write_with_fault(&mut file, bytes, fault, site)?;
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

/// Bytes of a frame header: the payload length (u64 LE), then the
/// payload's CRC32 (u32 LE).
pub const FRAME_HEADER: usize = 12;

/// The header that seals `payload` as one frame; the payload follows it.
pub fn frame_header(payload: &[u8]) -> [u8; FRAME_HEADER] {
    let mut header = [0u8; FRAME_HEADER];
    header[..8].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[8..].copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

/// Read one frame from `src` and return its payload. A short header or
/// payload, a length no allocation can hold, and a checksum mismatch are
/// all `InvalidData` errors, never a panic or an abort. The payload is
/// reserved up front, in one allocation.
pub fn read_frame(src: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut header = [0u8; FRAME_HEADER];
    src.read_exact(&mut header).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => invalid_frame("truncated header".into()),
        _ => e,
    })?;
    let len = frame_len(&header);
    let mut payload = Vec::new();
    usize::try_from(len)
        .ok()
        .and_then(|len| payload.try_reserve_exact(len).ok())
        .ok_or_else(|| invalid_frame(format!("no allocation holds a {len}-byte payload")))?;
    src.take(len).read_to_end(&mut payload)?;
    unseal(&header, &payload)?;
    Ok(payload)
}

/// Split one frame off the front of `src` and return its payload,
/// borrowed from `src`: [`read_frame`] over bytes already in memory,
/// without copying the payload. A short header or payload and a checksum
/// mismatch are `InvalidData` errors, as there; on success `src` starts
/// after the frame.
pub fn split_frame<'a>(src: &mut &'a [u8]) -> io::Result<&'a [u8]> {
    let (header, rest) = src
        .split_first_chunk::<FRAME_HEADER>()
        .ok_or_else(|| invalid_frame("truncated header".into()))?;
    let take = usize::try_from(frame_len(header)).map_or(rest.len(), |len| len.min(rest.len()));
    let (payload, rest) = rest.split_at(take);
    unseal(header, payload)?;
    *src = rest;
    Ok(payload)
}

/// The payload length a frame header declares.
fn frame_len(header: &[u8; FRAME_HEADER]) -> u64 {
    let [l0, l1, l2, l3, l4, l5, l6, l7, ..] = *header;
    u64::from_le_bytes([l0, l1, l2, l3, l4, l5, l6, l7])
}

/// Check that `payload` is the whole payload `header` seals: its length
/// and its CRC, for both frame readers.
fn unseal(header: &[u8; FRAME_HEADER], payload: &[u8]) -> io::Result<()> {
    if payload.len() as u64 != frame_len(header) {
        return Err(invalid_frame("truncated payload".into()));
    }
    let [.., c0, c1, c2, c3] = *header;
    if crc32(payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
        return Err(invalid_frame("checksum mismatch".into()));
    }
    Ok(())
}

fn invalid_frame(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("sealed frame: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use esharp_fault::corrupt::assert_rejects_every_damage;
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
        // The one-table, one-byte-per-step reference the slicing-by-16
        // implementation must agree with at every length (remainder
        // handling covers 0..16 tail bytes).
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
    fn request_path_faults_at_a_write_are_ignored() {
        let dir = tmpdir("request_path");
        let path = dir.join("artifact.bin");
        for fault in [Fault::Delay { us: 5_000 }, Fault::Stall, Fault::Panic] {
            let _ = fs::remove_file(&path);
            let plan = FaultPlan::new(0).trigger("write:artifact", 0, fault);
            atomic_write_with(&path, b"payload", &plan, "write:artifact", &RetryPolicy::none())
                .unwrap();
            assert_eq!(fs::read(&path).unwrap(), b"payload", "{fault:?}");
            assert_eq!(plan.consulted(), vec![("write:artifact".into(), 0, true)]);
        }
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

    /// Two frames back to back, and the reader that expects exactly them.
    fn two_frames() -> Vec<u8> {
        let mut buf = Vec::new();
        for payload in [&b"the quick brown fox"[..], b"jumps over the lazy dog"] {
            buf.extend_from_slice(&frame_header(payload));
            buf.extend_from_slice(payload);
        }
        buf
    }

    fn read_two(mut buf: &[u8]) -> io::Result<(Vec<u8>, Vec<u8>)> {
        let frames = (read_frame(&mut buf)?, read_frame(&mut buf)?);
        match buf.is_empty() {
            true => Ok(frames),
            false => Err(io::Error::new(io::ErrorKind::InvalidData, "trailing bytes")),
        }
    }

    #[test]
    fn framed_round_trip_and_full_corruption_matrix() {
        let good = two_frames();
        let (first, second) = read_two(&good).unwrap();
        assert_eq!(first, b"the quick brown fox");
        assert_eq!(second, b"jumps over the lazy dog");
        assert_rejects_every_damage("sealed frames", &good, read_two);
    }

    #[test]
    fn borrowed_frames_read_like_copied_ones_and_reject_every_damage() {
        fn split_two(mut buf: &[u8]) -> io::Result<(Vec<u8>, Vec<u8>)> {
            let frames = (
                split_frame(&mut buf)?.to_vec(),
                split_frame(&mut buf)?.to_vec(),
            );
            match buf.is_empty() {
                true => Ok(frames),
                false => Err(io::Error::new(io::ErrorKind::InvalidData, "trailing bytes")),
            }
        }
        let good = two_frames();
        assert_eq!(split_two(&good).unwrap(), read_two(&good).unwrap());
        assert_rejects_every_damage("borrowed sealed frames", &good, split_two);
    }

    #[test]
    fn hostile_lengths_error_without_aborting() {
        for len in [u64::MAX, 1 << 40] {
            let mut buf = len.to_le_bytes().to_vec();
            buf.extend_from_slice(&crc32(b"abc").to_le_bytes());
            buf.extend_from_slice(b"abc");
            let err = read_frame(&mut &buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{len}");
            let err = split_frame(&mut &buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{len}");
        }
    }

    #[test]
    fn injected_bit_flip_is_caught_by_the_frame() {
        let dir = tmpdir("bitflip");
        let path = dir.join("framed.bin");
        let payload = b"some payload bytes";
        let framed = [&frame_header(payload)[..], payload].concat();
        let plan = FaultPlan::new(0).trigger("write:f", 0, Fault::BitFlip { offset: 21, bit: 3 });
        atomic_write_with(&path, &framed, &plan, "write:f", &RetryPolicy::none()).unwrap();
        // The write itself succeeded; the read detects the corruption.
        assert!(read_frame(&mut File::open(&path).unwrap()).is_err());
        // A clean rewrite heals it.
        atomic_write_with(&path, &framed, &NoFaults, "write:f", &RetryPolicy::none()).unwrap();
        assert_eq!(
            read_frame(&mut File::open(&path).unwrap()).unwrap(),
            payload
        );
        let _ = fs::remove_dir_all(dir);
    }
}
