//! Compact binary serialization of tables.
//!
//! The offline pipeline ships its intermediate relations between runs (the
//! paper persists the graph and the domain collection between weekly
//! iterations); JSON is ~4× larger and slower for numeric columns. Format:
//!
//! ```text
//! magic "ESRT" | version u16 | crc32 u32 (v2+) | columns u32 | rows u64
//! per column: name (u16 len + utf8) | dtype u8 | payload
//!   Bool : rows bytes (0/1)
//!   Int  : rows × i64 LE
//!   Float: rows × f64 LE
//!   Str  : rows × (u32 len + utf8)
//! ```
//!
//! Version 2 (current) adds a CRC32 over everything after the checksum
//! field, so a torn write, truncation, or silent single-bit flip anywhere
//! in the frame is detected at decode time instead of yielding a
//! plausible-but-wrong table. Version 1 frames (no checksum) remain
//! readable for artifacts persisted by older runs.

use crate::atomic::{atomic_write, atomic_write_with, crc32};
use crate::column::Column;
use esharp_fault::{FaultInjector, RetryPolicy};
use crate::error::{RelError, RelResult};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::DataType;
use bytes::{BufMut, Bytes, BytesMut};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"ESRT";
const VERSION: u16 = 2;

/// Serialize a table into the binary format (v2: checksummed).
pub fn encode_table(table: &Table) -> Bytes {
    // The checksum covers everything after the crc field, so the payload
    // is built first and the header prepended once the crc is known.
    let mut payload = BytesMut::with_capacity(table.byte_size() + 64);
    payload.put_u32_le(table.schema().len() as u32);
    payload.put_u64_le(table.num_rows() as u64);
    for (field, column) in table.schema().fields().iter().zip(table.columns()) {
        payload.put_u16_le(field.name.len() as u16);
        payload.put_slice(field.name.as_bytes());
        payload.put_u8(dtype_tag(field.dtype));
        match column.as_ref() {
            Column::Bool(v) => {
                for &b in v {
                    payload.put_u8(b as u8);
                }
            }
            Column::Int(v) => {
                for &i in v {
                    payload.put_i64_le(i);
                }
            }
            Column::Float(v) => {
                for &x in v {
                    payload.put_f64_le(x);
                }
            }
            Column::Str(v) => {
                for s in v {
                    payload.put_u32_le(s.len() as u32);
                    payload.put_slice(s.as_bytes());
                }
            }
        }
    }
    let payload = payload.freeze();
    let mut buf = BytesMut::with_capacity(payload.len() + 10);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(crc32(&payload));
    buf.put_slice(&payload);
    buf.freeze()
}

/// Deserialize a table from the binary format. Accepts the current
/// checksummed v2 frames and legacy v1 frames (no checksum).
///
/// Decoding runs over a plain byte slice with bulk per-column loops
/// (`chunks_exact` for the fixed-width types) instead of a per-value
/// cursor — column payloads are contiguous, so this is the difference
/// between a vectorizable copy and hundreds of thousands of bounds
/// checks on the corpus-sized frames of the online read path.
pub fn decode_table(data: Bytes) -> RelResult<Table> {
    let err = |msg: &str| RelError::Eval(format!("binary table decode: {msg}"));
    let buf: &[u8] = &data;
    if buf.len() < 4 + 2 + 4 + 8 {
        return Err(err("truncated header"));
    }
    if &buf[..4] != MAGIC {
        return Err(err("bad magic"));
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    let mut off = 6usize;
    match version {
        1 => {}
        2 => {
            if buf.len() - off < 4 + 4 + 8 {
                return Err(err("truncated header"));
            }
            let expected = u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]);
            off += 4;
            if crc32(&buf[off..]) != expected {
                return Err(err("checksum mismatch"));
            }
        }
        other => return Err(err(&format!("unsupported version {other}"))),
    }
    if buf.len() - off < 4 + 8 {
        return Err(err("truncated header"));
    }
    let columns = u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]) as usize;
    off += 4;
    let rows = u64::from_le_bytes([
        buf[off],
        buf[off + 1],
        buf[off + 2],
        buf[off + 3],
        buf[off + 4],
        buf[off + 5],
        buf[off + 6],
        buf[off + 7],
    ]);
    off += 8;
    let rows = usize::try_from(rows).map_err(|_| err("row count overflows usize"))?;

    let mut fields = Vec::with_capacity(columns.min(1024));
    let mut cols = Vec::with_capacity(columns.min(1024));
    for _ in 0..columns {
        if buf.len() - off < 2 {
            return Err(err("truncated column name length"));
        }
        let name_len = u16::from_le_bytes([buf[off], buf[off + 1]]) as usize;
        off += 2;
        if buf.len() - off < name_len + 1 {
            return Err(err("truncated column name"));
        }
        let name = std::str::from_utf8(&buf[off..off + name_len])
            .map_err(|_| err("column name not UTF-8"))?
            .to_string();
        off += name_len;
        let dtype = tag_dtype(buf[off]).ok_or_else(|| err("unknown dtype tag"))?;
        off += 1;
        let column = match dtype {
            DataType::Bool => {
                if buf.len() - off < rows {
                    return Err(err("truncated bool column"));
                }
                let v = buf[off..off + rows].iter().map(|&b| b != 0).collect();
                off += rows;
                Column::Bool(v)
            }
            DataType::Int => {
                let bytes = rows.checked_mul(8).ok_or_else(|| err("int column overflows"))?;
                if buf.len() - off < bytes {
                    return Err(err("truncated int column"));
                }
                let v = buf[off..off + bytes]
                    .chunks_exact(8)
                    .map(|c| i64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
                    .collect();
                off += bytes;
                Column::Int(v)
            }
            DataType::Float => {
                let bytes = rows
                    .checked_mul(8)
                    .ok_or_else(|| err("float column overflows"))?;
                if buf.len() - off < bytes {
                    return Err(err("truncated float column"));
                }
                let v = buf[off..off + bytes]
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
                    .collect();
                off += bytes;
                Column::Float(v)
            }
            DataType::Str => {
                // Capacity is clamped by what the payload could possibly
                // hold (4 length bytes per row) so a corrupt row count
                // cannot force a huge allocation before the first row
                // fails to parse.
                let mut v: Vec<Arc<str>> = Vec::with_capacity(rows.min((buf.len() - off) / 4));
                for _ in 0..rows {
                    if buf.len() - off < 4 {
                        return Err(err("truncated string length"));
                    }
                    let len =
                        u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
                            as usize;
                    off += 4;
                    if buf.len() - off < len {
                        return Err(err("truncated string payload"));
                    }
                    let s = std::str::from_utf8(&buf[off..off + len])
                        .map_err(|_| err("string not UTF-8"))?;
                    off += len;
                    v.push(Arc::from(s));
                }
                Column::Str(v)
            }
        };
        fields.push(Field::new(name, dtype));
        cols.push(column);
    }
    if off != buf.len() {
        return Err(err("trailing bytes after the last column"));
    }
    Table::new(Arc::new(Schema::new(fields)?), cols)
}

/// Concatenate tables into one buffer of length-prefixed frames
/// (`u64 LE frame length | frame` per table) — the on-disk container the
/// graph file and the checkpoint artifacts use.
pub fn encode_frames(tables: &[Table]) -> Vec<u8> {
    let mut out = Vec::new();
    for table in tables {
        let bytes = encode_table(table);
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&bytes);
    }
    out
}

/// Decode a buffer of length-prefixed frames produced by
/// [`encode_frames`]. Strict: a truncated prefix, an overlong length, or
/// trailing bytes after the final frame all error — extra bytes after a
/// valid prefix are how a torn append masquerades as a good artifact.
pub fn decode_frames(data: &[u8]) -> RelResult<Vec<Table>> {
    let err = |msg: &str| RelError::Eval(format!("binary container decode: {msg}"));
    let mut tables = Vec::new();
    let mut rest = data;
    while !rest.is_empty() {
        if rest.len() < 8 {
            return Err(err("trailing bytes where a frame length was expected"));
        }
        let (len_bytes, tail) = rest.split_at(8);
        let len = u64::from_le_bytes(
            len_bytes
                .try_into()
                .map_err(|_| err("unreadable frame length"))?,
        ) as usize;
        if len > tail.len() {
            return Err(err("frame length exceeds remaining bytes"));
        }
        let (frame, tail) = tail.split_at(len);
        tables.push(decode_table(Bytes::copy_from_slice(frame))?);
        rest = tail;
    }
    Ok(tables)
}

/// Decode exactly `expect` frames; anything else (including trailing
/// bytes, which [`decode_frames`] already rejects) errors.
pub fn decode_frames_exact(data: &[u8], expect: usize) -> RelResult<Vec<Table>> {
    let tables = decode_frames(data)?;
    if tables.len() != expect {
        return Err(RelError::Eval(format!(
            "binary container decode: expected {expect} frames, found {}",
            tables.len()
        )));
    }
    Ok(tables)
}

/// Export a table to `path` atomically (write-temp-then-rename) in the
/// checksummed binary format.
pub fn save_table(table: &Table, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    atomic_write(path, &encode_table(table))
}

/// [`save_table`] with fault injection and bounded retry.
pub fn save_table_with(
    table: &Table,
    path: impl AsRef<std::path::Path>,
    injector: &dyn FaultInjector,
    site: &str,
    retry: &RetryPolicy,
) -> std::io::Result<()> {
    atomic_write_with(path, &encode_table(table), injector, site, retry)
}

/// Load a table exported by [`save_table`]. Corruption (truncation, bit
/// flips, trailing garbage) surfaces as an error, never a panic.
pub fn load_table(path: impl AsRef<std::path::Path>) -> std::io::Result<Table> {
    let data = std::fs::read(path)?;
    decode_table(Bytes::from(data))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

fn dtype_tag(dtype: DataType) -> u8 {
    match dtype {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
    }
}

fn tag_dtype(tag: u8) -> Option<DataType> {
    Some(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Str,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample() -> Table {
        let schema = Schema::of(&[
            ("query", DataType::Str),
            ("clicks", DataType::Int),
            ("score", DataType::Float),
            ("kept", DataType::Bool),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec![
                    Value::str("49ers"),
                    Value::Int(25),
                    Value::Float(0.29),
                    Value::Bool(true),
                ],
                vec![
                    Value::str("nfl"),
                    Value::Int(-3),
                    Value::Float(-1.5),
                    Value::Bool(false),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let encoded = encode_table(&t);
        let decoded = decode_table(encoded).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn empty_table_round_trips() {
        let t = Table::empty(Schema::of(&[("x", DataType::Int)]));
        let decoded = decode_table(encode_table(&t)).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn rejects_corruption() {
        let t = sample();
        let encoded = encode_table(&t);
        // Bad magic.
        let mut bad = encoded.to_vec();
        bad[0] = b'X';
        assert!(decode_table(Bytes::from(bad)).is_err());
        // Truncation at every prefix must error, never panic.
        for cut in [0, 4, 7, 10, 20, encoded.len() - 1] {
            let prefix = Bytes::copy_from_slice(&encoded[..cut]);
            assert!(decode_table(prefix).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn v1_frames_remain_readable() {
        let t = sample();
        let v2 = encode_table(&t);
        // A v1 frame is the same payload without the crc field.
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"ESRT");
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&v2[10..]);
        let decoded = decode_table(Bytes::from(v1)).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let encoded = encode_table(&sample());
        for byte in 0..encoded.len() {
            for bit in 0..8 {
                let mut bad = encoded.to_vec();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_table(Bytes::from(bad)).is_err(),
                    "bit flip at byte {byte} bit {bit} accepted"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_table(&sample()).to_vec();
        bytes.push(0);
        assert!(decode_table(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn frame_container_round_trips_and_rejects_corruption() {
        let a = sample();
        let b = Table::empty(Schema::of(&[("x", DataType::Int)]));
        let buf = encode_frames(&[a.clone(), b.clone()]);
        let back = decode_frames_exact(&buf, 2).unwrap();
        assert_eq!(back[0], a);
        assert_eq!(back[1], b);
        // Truncation at every byte boundary errors under the expected
        // frame count (a cut exactly at a frame boundary is a *valid
        // shorter* container, which only the count check can reject —
        // that is why every consumer states its frame count).
        for cut in 0..buf.len() {
            assert!(
                decode_frames_exact(&buf[..cut], 2).is_err(),
                "cut at {cut} accepted"
            );
        }
        // Trailing garbage errors.
        let mut extra = buf.clone();
        extra.extend_from_slice(&[1, 2, 3]);
        assert!(decode_frames(&extra).is_err());
        // Wrong frame count errors.
        assert!(decode_frames_exact(&buf, 1).is_err());
    }

    #[test]
    fn table_file_export_round_trips_and_detects_bit_flips() {
        let dir = std::env::temp_dir().join("esharp_binfmt_file_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("table.tbl");
        let t = sample();
        save_table(&t, &path).unwrap();
        assert_eq!(load_table(&path).unwrap(), t);
        let good = std::fs::read(&path).unwrap();
        for byte in 0..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            assert!(load_table(&path).is_err(), "flip in byte {byte} accepted");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn binary_is_compact_for_numeric_columns() {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let t = Table::from_rows(
            schema,
            (0..100).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap();
        let encoded = encode_table(&t);
        // ~8 bytes/row plus small header.
        assert!(encoded.len() < 100 * 8 + 64);
    }
}
