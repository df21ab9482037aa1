//! Compact binary serialization of tables: the one table codec. Files
//! seal one table per frame (the multi-table containers below), spill
//! runs write one partition or sorted batch per frame, and a paged
//! table stores one chunk of consecutive rows per heap page
//! (`crate::paged`). The paper persists the graph and the domain
//! collection between weekly iterations; JSON is ~4× larger and slower
//! for numeric columns. Format:
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
//! Both directions run a column at a time: the encoder writes a
//! fixed-width column into a pre-sized buffer in one loop, and the
//! decoder ([`decode_table`], and the page scan through the same
//! column-appending cursor) appends a column's values straight from the
//! byte slice to a typed column, skipping the columns nobody asked for.
//!
//! A table carries no checksum of its own: every container that persists
//! one seals it in a frame (`esharp_storage::atomic::split_frame`) or a
//! page CRC — the multi-table containers below, spill runs, heap pages
//! and heap metadata — so a torn write, truncation, or silent single-bit
//! flip is detected before a table is decoded instead of yielding a
//! plausible-but-wrong table. Versions 1 and 2 (2 carried a table CRC)
//! are rejected as unsupported.

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::DataType;
use esharp_storage::atomic::{frame_header, split_frame, FRAME_HEADER};
use std::ops::Range;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"ESRT";
const VERSION: u16 = 3;
/// Magic, version, column count and row count.
const HEADER: usize = 4 + 2 + 4 + 8;

/// Serialize a table into the binary format.
pub fn encode_table(table: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    encode_rows_into(table, 0..table.num_rows(), &mut out);
    out
}

/// Append the encoding of rows `rows` of `table` to `out`: the bytes
/// [`encode_table`] writes for a table of just those rows.
pub(crate) fn encode_rows_into(table: &Table, rows: Range<usize>, out: &mut Vec<u8>) {
    let fields = table.schema().fields();
    let names: usize = fields.iter().map(|f| 2 + f.name.len() + 1).sum();
    let payload: usize = table
        .columns()
        .iter()
        .map(|column| match column.as_ref() {
            Column::Bool(_) => rows.len(),
            Column::Int(_) | Column::Float(_) => rows.len() * 8,
            Column::Str(v) => v[rows.clone()].iter().map(|s| 4 + s.len()).sum(),
        })
        .sum();
    out.reserve(HEADER + names + payload);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
    out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    for (field, column) in fields.iter().zip(table.columns()) {
        out.extend_from_slice(&(field.name.len() as u16).to_le_bytes());
        out.extend_from_slice(field.name.as_bytes());
        out.push(dtype_tag(field.dtype));
        match column.as_ref() {
            Column::Bool(v) => out.extend(v[rows.clone()].iter().map(|&b| b as u8)),
            Column::Int(v) => put_words(out, &v[rows.clone()], i64::to_le_bytes),
            Column::Float(v) => put_words(out, &v[rows.clone()], f64::to_le_bytes),
            Column::Str(v) => {
                for s in &v[rows.clone()] {
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
    }
}

/// Write `values` as 8-byte little-endian words: the buffer grows once
/// and one loop fills it.
fn put_words<T: Copy>(out: &mut Vec<u8>, values: &[T], le: fn(T) -> [u8; 8]) {
    let start = out.len();
    out.resize(start + values.len() * 8, 0);
    for (dst, &x) in out[start..].chunks_exact_mut(8).zip(values) {
        dst.copy_from_slice(&le(x));
    }
}

/// The payload bytes each row of `table` adds to an encoding; a chunk
/// of rows is its header (the encoding of the empty table) plus its
/// rows' lengths.
pub(crate) fn row_lens(table: &Table) -> Vec<usize> {
    let fixed: usize = table
        .columns()
        .iter()
        .map(|column| match column.as_ref() {
            Column::Bool(_) => 1,
            Column::Int(_) | Column::Float(_) => 8,
            Column::Str(_) => 4,
        })
        .sum();
    let mut lens = vec![fixed; table.num_rows()];
    for column in table.columns() {
        if let Column::Str(v) = column.as_ref() {
            for (len, s) in lens.iter_mut().zip(v) {
                *len += s.len();
            }
        }
    }
    lens
}

fn decode_err(msg: &str) -> RelError {
    RelError::Eval(format!("binary table decode: {msg}"))
}

/// A cursor over one encoded table, read a column at a time:
/// [`Chunk::open`] reads the header, then each column in order gives
/// its name and type ([`Chunk::field`]) and its values
/// ([`Chunk::values`]), and [`Chunk::finish`] demands that every byte
/// was read. Any byte string reads to values or an error, never a
/// panic.
pub(crate) struct Chunk<'a> {
    buf: &'a [u8],
    off: usize,
    rows: usize,
    columns: usize,
}

impl<'a> Chunk<'a> {
    /// Read the header of the table encoded in `buf` (version 3 only).
    pub(crate) fn open(buf: &'a [u8]) -> RelResult<Chunk<'a>> {
        if buf.len() < HEADER {
            return Err(decode_err("truncated header"));
        }
        if &buf[..4] != MAGIC {
            return Err(decode_err("bad magic"));
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != VERSION {
            return Err(decode_err(&format!("unsupported version {version}")));
        }
        let columns = u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]) as usize;
        let mut rows = [0u8; 8];
        rows.copy_from_slice(&buf[10..HEADER]);
        let rows = usize::try_from(u64::from_le_bytes(rows))
            .map_err(|_| decode_err("row count overflows usize"))?;
        Ok(Chunk {
            buf,
            off: HEADER,
            rows,
            columns,
        })
    }

    /// Rows of every column.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn columns(&self) -> usize {
        self.columns
    }

    /// The next `n` bytes, or `what` as the error.
    fn bytes(&mut self, n: usize, what: &str) -> RelResult<&'a [u8]> {
        let buf: &'a [u8] = self.buf;
        let end = self
            .off
            .checked_add(n)
            .filter(|&end| end <= buf.len())
            .ok_or_else(|| decode_err(what))?;
        let bytes = &buf[self.off..end];
        self.off = end;
        Ok(bytes)
    }

    /// The next column's name and type; its values follow.
    pub(crate) fn field(&mut self) -> RelResult<(&'a str, DataType)> {
        let len = self.bytes(2, "truncated column name length")?;
        let len = u16::from_le_bytes([len[0], len[1]]) as usize;
        let name = self.bytes(len, "truncated column name")?;
        let name = std::str::from_utf8(name).map_err(|_| decode_err("column name not UTF-8"))?;
        let tag = self.bytes(1, "truncated column type")?[0];
        let dtype = tag_dtype(tag).ok_or_else(|| decode_err("unknown dtype tag"))?;
        Ok((name, dtype))
    }

    /// Read the values of the column whose [`Chunk::field`] was just
    /// read, of type `dtype`: append the first `take` of them to `into`
    /// (a column of that type) when it is given, and step over the
    /// rest.
    pub(crate) fn values(
        &mut self,
        dtype: DataType,
        take: usize,
        into: Option<&mut Column>,
    ) -> RelResult<()> {
        if into.as_ref().is_some_and(|col| col.dtype() != dtype) {
            return Err(decode_err("column type differs from its builder"));
        }
        let rows = self.rows;
        let take = take.min(rows);
        match dtype {
            DataType::Bool => {
                let bytes = self.bytes(rows, "truncated bool column")?;
                if let Some(Column::Bool(v)) = into {
                    v.extend(bytes[..take].iter().map(|&b| b != 0));
                }
            }
            DataType::Int | DataType::Float => {
                let len = rows
                    .checked_mul(8)
                    .ok_or_else(|| decode_err("column overflows"))?;
                let words = self.bytes(len, "truncated fixed-width column")?[..take * 8]
                    .chunks_exact(8)
                    .map(word);
                match into {
                    Some(Column::Int(v)) => v.extend(words.map(i64::from_le_bytes)),
                    Some(Column::Float(v)) => v.extend(words.map(f64::from_le_bytes)),
                    _ => {}
                }
            }
            DataType::Str => {
                let mut into = match into {
                    Some(Column::Str(v)) => {
                        // Clamped by what the payload could hold (4
                        // length bytes per row), so a corrupt row count
                        // cannot force a huge allocation.
                        v.reserve(take.min((self.buf.len() - self.off) / 4));
                        Some(v)
                    }
                    _ => None,
                };
                for row in 0..rows {
                    let len = self.bytes(4, "truncated string length")?;
                    let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize;
                    let bytes = self.bytes(len, "truncated string payload")?;
                    if let Some(v) = into.as_mut().filter(|_| row < take) {
                        let s = std::str::from_utf8(bytes)
                            .map_err(|_| decode_err("string not UTF-8"))?;
                        v.push(Arc::from(s));
                    }
                }
            }
        }
        Ok(())
    }

    /// Errors unless every byte has been read.
    pub(crate) fn finish(&self) -> RelResult<()> {
        if self.off != self.buf.len() {
            return Err(decode_err("trailing bytes after the last column"));
        }
        Ok(())
    }
}

/// An 8-byte chunk of a fixed-width column as a word.
fn word(bytes: &[u8]) -> [u8; 8] {
    let mut w = [0u8; 8];
    w.copy_from_slice(bytes);
    w
}

/// Deserialize a table from the binary format (version 3 only). Any
/// byte string decodes to a table or an error, never a panic. Every
/// column is appended from the slice in one loop (`Chunk::values`):
/// column payloads are contiguous, so this is a vectorizable copy and
/// not a bounds check per value.
pub fn decode_table(buf: &[u8]) -> RelResult<Table> {
    let mut chunk = Chunk::open(buf)?;
    let mut fields = Vec::with_capacity(chunk.columns().min(1024));
    let mut cols = Vec::with_capacity(chunk.columns().min(1024));
    for _ in 0..chunk.columns() {
        let (name, dtype) = chunk.field()?;
        let mut column = Column::empty(dtype);
        chunk.values(dtype, usize::MAX, Some(&mut column))?;
        fields.push(Field::new(name, dtype));
        cols.push(column);
    }
    chunk.finish()?;
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
/// frames after a header of their own). Each table is encoded straight
/// into `out` behind a reserved frame header, which is sealed once the
/// table's length and bytes are known.
pub fn encode_frames_into(out: &mut Vec<u8>, tables: &[Table]) {
    for table in tables {
        let at = out.len();
        out.resize(at + FRAME_HEADER, 0);
        encode_rows_into(table, 0..table.num_rows(), out);
        let header = frame_header(&out[at + FRAME_HEADER..]);
        out[at..at + FRAME_HEADER].copy_from_slice(&header);
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
        let frame = split_frame(&mut rest).map_err(|e| err(e.to_string()))?;
        tables.push(decode_table(frame)?);
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
        let decoded = decode_table(&encoded).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn empty_table_round_trips() {
        let t = Table::empty(Schema::of(&[("x", DataType::Int)]));
        let decoded = decode_table(&encode_table(&t)).unwrap();
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
            let res = decode_table(image);
            assert!(!checked || res.is_err(), "{damage:?} accepted");
        });
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let encoded = encode_table(&sample());
        for_each_damage(&encoded, |damage, image| {
            if let Damage::Trailing(_) = damage {
                let res = decode_table(image);
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
        let mut v1 = v3.clone();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        let err = decode_table(&v1).unwrap_err();
        assert!(err.to_string().contains("unsupported version 1"), "{err}");
        let mut v2 = b"ESRT".to_vec();
        v2.extend_from_slice(&2u16.to_le_bytes());
        v2.extend_from_slice(&[0; 4]);
        v2.extend_from_slice(&v3[6..]);
        let err = decode_table(&v2).unwrap_err();
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
    fn frames_encoded_in_place_match_the_two_step_encoding() {
        // Each frame was once encoded into a table buffer of its own,
        // then sealed and copied behind what `out` already held.
        let tables = [
            sample(),
            Table::empty(Schema::of(&[("x", DataType::Int)])),
            sample(),
        ];
        let mut two_step = b"prefix".to_vec();
        for table in &tables {
            let bytes = encode_table(table);
            two_step.extend_from_slice(&frame_header(&bytes));
            two_step.extend_from_slice(&bytes);
        }
        let mut in_place = b"prefix".to_vec();
        encode_frames_into(&mut in_place, &tables);
        assert_eq!(in_place, two_step);
        assert_eq!(encode_frames(&tables), two_step[6..]);
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
