//! Compact binary serialization of tables.
//!
//! The offline pipeline ships its intermediate relations between runs (the
//! paper persists the graph and the domain collection between weekly
//! iterations); JSON is ~4× larger and slower for numeric columns. Format:
//!
//! ```text
//! magic "ESRT" | version u16 | columns u32 | rows u64
//! per column: name (u16 len + utf8) | dtype u8 | payload
//!   Bool : rows bytes (0/1)
//!   Int  : rows × i64 LE
//!   Float: rows × f64 LE
//!   Str  : rows × (u32 len + utf8)
//! ```
//!
//! A table carries no checksum of its own: every container that persists
//! one seals it in a frame (`esharp_storage::atomic::read_frame`) — the
//! multi-table containers below, spill runs, heap metadata — so a torn
//! write, truncation, or silent single-bit flip is detected before a
//! table is decoded instead of yielding a plausible-but-wrong table.
//! Versions 1 and 2 (2 carried a table CRC) are rejected as unsupported.

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::DataType;
use bytes::{BufMut, Bytes, BytesMut};
use esharp_storage::atomic::{frame_header, read_frame};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"ESRT";
const VERSION: u16 = 3;

/// Serialize a table into the binary format.
pub fn encode_table(table: &Table) -> Bytes {
    let mut buf = BytesMut::with_capacity(table.byte_size() + 64);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(table.schema().len() as u32);
    buf.put_u64_le(table.num_rows() as u64);
    for (field, column) in table.schema().fields().iter().zip(table.columns()) {
        buf.put_u16_le(field.name.len() as u16);
        buf.put_slice(field.name.as_bytes());
        buf.put_u8(dtype_tag(field.dtype));
        match column.as_ref() {
            Column::Bool(v) => {
                for &b in v {
                    buf.put_u8(b as u8);
                }
            }
            Column::Int(v) => {
                for &i in v {
                    buf.put_i64_le(i);
                }
            }
            Column::Float(v) => {
                for &x in v {
                    buf.put_f64_le(x);
                }
            }
            Column::Str(v) => {
                for s in v {
                    buf.put_u32_le(s.len() as u32);
                    buf.put_slice(s.as_bytes());
                }
            }
        }
    }
    buf.freeze()
}

/// Deserialize a table from the binary format (version 3 only). Any
/// byte string decodes to a table or an error, never a panic.
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
    if version != VERSION {
        return Err(err(&format!("unsupported version {version}")));
    }
    let mut off = 6usize;
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

/// Concatenate tables into one buffer of sealed frames, one per table —
/// the on-disk container the graph file, `domains.bin`, the checkpoint
/// artifacts and the corpus file's string section use.
pub fn encode_frames(tables: &[Table]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frames_into(&mut out, tables);
    out
}

/// [`encode_frames`], appending to `out` (for containers that embed the
/// frames after a header of their own).
pub fn encode_frames_into(out: &mut Vec<u8>, tables: &[Table]) {
    for table in tables {
        let bytes = encode_table(table);
        out.extend_from_slice(&frame_header(&bytes));
        out.extend_from_slice(&bytes);
    }
}

/// Decode a buffer of exactly `expect` sealed frames produced by
/// [`encode_frames`]. Strict: a truncated or corrupt frame, fewer frames,
/// and bytes after the last frame all error — a cut at a frame boundary
/// is a valid shorter container only the count rejects, and extra bytes
/// after a valid prefix are how a torn append masquerades as a good
/// artifact.
pub fn decode_frames_exact(data: &[u8], expect: usize) -> RelResult<Vec<Table>> {
    let err = |msg: String| RelError::Eval(format!("binary container decode: {msg}"));
    let mut rest = data;
    let mut tables = Vec::with_capacity(expect);
    for _ in 0..expect {
        let frame = read_frame(&mut rest).map_err(|e| err(e.to_string()))?;
        tables.push(decode_table(Bytes::from(frame))?);
    }
    if !rest.is_empty() {
        return Err(err(format!("bytes after the last of {expect} frames")));
    }
    Ok(tables)
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
    use esharp_fault::corrupt::{assert_rejects_damage_where, for_each_damage, Damage};
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

    /// A bare table has no frame and so no checksum: every truncation
    /// and flip of the magic or version fails to decode; any other flip
    /// is the sealing frame's to catch.
    #[test]
    fn rejects_corruption() {
        let encoded = encode_table(&sample());
        for_each_damage(&encoded, |damage, image| {
            let checked = match damage {
                Damage::Truncated(_) => true,
                Damage::Flipped { byte, .. } => byte < 6,
                Damage::Trailing(_) => return,
            };
            let res = decode_table(Bytes::copy_from_slice(image));
            assert!(!checked || res.is_err(), "{damage:?} accepted");
        });
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let encoded = encode_table(&sample());
        for_each_damage(&encoded, |damage, image| {
            if let Damage::Trailing(_) = damage {
                let res = decode_table(Bytes::copy_from_slice(image));
                assert!(res.is_err(), "bare table: {damage:?} accepted");
            }
        });
        let trailing = |damage| matches!(damage, Damage::Trailing(_));
        assert_rejects_damage_where("table frames", &two_frames(), trailing, open_two_frames);
    }

    #[test]
    fn v1_frames_are_rejected() {
        // Version 1 had this layout; version 2 put a CRC after the version.
        let v3 = encode_table(&sample());
        let mut v1 = v3.to_vec();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        let err = decode_table(Bytes::from(v1)).unwrap_err();
        assert!(err.to_string().contains("unsupported version 1"), "{err}");
        let mut v2 = b"ESRT".to_vec();
        v2.extend_from_slice(&2u16.to_le_bytes());
        v2.extend_from_slice(&[0; 4]);
        v2.extend_from_slice(&v3[6..]);
        let err = decode_table(Bytes::from(v2)).unwrap_err();
        assert!(err.to_string().contains("unsupported version 2"), "{err}");
    }

    /// The sample table and an empty one, framed.
    fn two_frames() -> Vec<u8> {
        encode_frames(&[sample(), Table::empty(Schema::of(&[("x", DataType::Int)]))])
    }

    /// The frame container's opener in the corruption matrix.
    fn open_two_frames(image: &[u8]) -> std::io::Result<Vec<Table>> {
        decode_frames_exact(image, 2)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    #[test]
    fn frame_container_round_trips_and_rejects_corruption() {
        let buf = two_frames();
        let back = decode_frames_exact(&buf, 2).unwrap();
        assert_eq!(back[0], sample());
        assert_eq!(back[1], Table::empty(Schema::of(&[("x", DataType::Int)])));
        // A cut exactly at a frame boundary is a valid shorter container
        // only the count rejects: that is why every consumer states its
        // frame count.
        assert!(decode_frames_exact(&buf, 1).is_err());
        let truncated = |damage| matches!(damage, Damage::Truncated(_));
        assert_rejects_damage_where("table frames", &buf, truncated, open_two_frames);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        // The frame seals the table: every flip in the container errors.
        let flipped = |damage| matches!(damage, Damage::Flipped { .. });
        assert_rejects_damage_where("table frames", &two_frames(), flipped, open_two_frames);
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
