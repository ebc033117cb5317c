//! Schemas, values, and the fixed-length row codec.
//!
//! ObliDB assumes fixed-length records (paper §3): every row of a table
//! serializes to exactly `schema.row_len()` bytes — a `used` flag followed
//! by fixed-width column encodings. Fixed length is what makes dummy rows
//! indistinguishable from real ones once encrypted.

use crate::error::DbError;

/// Column data types. All encodings are fixed width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// 64-bit signed integer (8 bytes).
    Int,
    /// 64-bit IEEE float (8 bytes).
    Float,
    /// UTF-8 text, zero-padded to exactly `n` bytes.
    Text(usize),
}

impl DataType {
    /// Encoded width in bytes.
    pub fn width(&self) -> usize {
        match self {
            DataType::Int | DataType::Float => 8,
            DataType::Text(n) => *n,
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Text.
    Text(String),
}

impl Value {
    /// The integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload, if this is a [`Value::Float`].
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The text payload, if this is a [`Value::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Total order used by predicates and sorts. Cross-type comparisons
    /// order by type tag (they cannot arise from well-typed queries).
    pub fn cmp_total(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Text(a), Text(b)) => a.cmp(b),
            (Int(_), _) | (Float(_), Text(_)) => Ordering::Less,
            (Text(_), _) => Ordering::Greater,
        }
    }
}

/// A decoded row.
pub type Row = Vec<Value>;

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Column {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column { name: name.into(), dtype }
    }

    /// Encodes `value` into `out`, this column's `dtype.width()` bytes of
    /// a row — the one rule for which values a column accepts: its own
    /// type, an integer in a float column, text that fits.
    #[inline]
    pub fn encode_value(&self, value: &Value, out: &mut [u8]) -> Result<(), DbError> {
        match (self.dtype, value) {
            (DataType::Int, Value::Int(v)) => out.copy_from_slice(&v.to_le_bytes()),
            (DataType::Float, Value::Float(v)) => out.copy_from_slice(&v.to_le_bytes()),
            (DataType::Float, Value::Int(v)) => out.copy_from_slice(&(*v as f64).to_le_bytes()),
            (DataType::Text(n), Value::Text(s)) => {
                let bytes = s.as_bytes();
                if bytes.len() > n {
                    return Err(DbError::TypeMismatch(format!(
                        "string of {} bytes exceeds CHAR({n}) column {}",
                        bytes.len(),
                        self.name
                    )));
                }
                out[..bytes.len()].copy_from_slice(bytes);
            }
            (dt, v) => {
                return Err(DbError::TypeMismatch(format!(
                    "column {} is {dt:?}, value {v:?}",
                    self.name
                )));
            }
        }
        Ok(())
    }
}

/// An ordered list of columns; owns the row codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// The columns in storage order.
    pub columns: Vec<Column>,
}

impl Schema {
    /// Builds a schema from columns.
    pub fn new(columns: Vec<Column>) -> Self {
        Schema { columns }
    }

    /// Bytes per encoded row: 1 flag byte + fixed column widths
    /// (paper §3: "a boolean flag with each record indicating whether it is
    /// in use").
    pub fn row_len(&self) -> usize {
        1 + self.columns.iter().map(|c| c.dtype.width()).sum::<usize>()
    }

    /// Index of a column by name.
    ///
    /// Resolution order: exact match; then, for qualified lookups like
    /// `t.col` against bare column names, the bare suffix; then a unique
    /// qualified column ending in `.name` (for bare lookups against join
    /// outputs whose columns are table-prefixed).
    pub fn col(&self, name: &str) -> Result<usize, DbError> {
        if let Some(i) = self.columns.iter().position(|c| c.name == name) {
            return Ok(i);
        }
        if let Some((_, bare)) = name.rsplit_once('.') {
            if let Some(i) = self.columns.iter().position(|c| c.name == bare) {
                return Ok(i);
            }
        }
        let suffix = format!(".{name}");
        let mut hits = self.columns.iter().enumerate().filter(|(_, c)| c.name.ends_with(&suffix));
        match (hits.next(), hits.next()) {
            (Some((i, _)), None) => Ok(i),
            _ => Err(DbError::NoSuchColumn(name.to_string())),
        }
    }

    /// Byte offset of column `idx` within an encoded row.
    pub fn col_offset(&self, idx: usize) -> usize {
        1 + self.columns[..idx].iter().map(|c| c.dtype.width()).sum::<usize>()
    }

    /// Encodes `values` as a used row.
    pub fn encode_row(&self, values: &[Value]) -> Result<Vec<u8>, DbError> {
        if values.len() != self.columns.len() {
            return Err(DbError::TypeMismatch(format!(
                "expected {} values, got {}",
                self.columns.len(),
                values.len()
            )));
        }
        let mut out = vec![0u8; self.row_len()];
        out[0] = 1;
        let mut off = 1;
        for (col, val) in self.columns.iter().zip(values) {
            let width = col.dtype.width();
            col.encode_value(val, &mut out[off..off + width])?;
            off += width;
        }
        Ok(out)
    }

    /// Whether an encoded row is in use (dummy rows decode to `false`).
    pub fn row_used(bytes: &[u8]) -> bool {
        bytes[0] == 1
    }

    /// Decodes one column from an encoded row.
    pub fn decode_col(&self, bytes: &[u8], idx: usize) -> Value {
        let off = self.col_offset(idx);
        match self.columns[idx].dtype {
            DataType::Int => {
                Value::Int(i64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()))
            }
            DataType::Float => {
                Value::Float(f64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()))
            }
            DataType::Text(n) => {
                let raw = &bytes[off..off + n];
                let end = raw.iter().position(|&b| b == 0).unwrap_or(n);
                Value::Text(String::from_utf8_lossy(&raw[..end]).into_owned())
            }
        }
    }

    /// Decodes a full row.
    pub fn decode_row(&self, bytes: &[u8]) -> Row {
        (0..self.columns.len()).map(|i| self.decode_col(bytes, i)).collect()
    }

    /// A dummy (unused) row of the right length.
    pub fn dummy_row(&self) -> Vec<u8> {
        vec![0u8; self.row_len()]
    }

    /// Concatenates two schemas (for join outputs), prefixing column names
    /// to keep them unique.
    pub fn join(&self, left_name: &str, right: &Schema, right_name: &str) -> Schema {
        let mut columns = Vec::with_capacity(self.columns.len() + right.columns.len());
        for c in &self.columns {
            columns.push(Column::new(format!("{left_name}.{}", c.name), c.dtype));
        }
        for c in &right.columns {
            columns.push(Column::new(format!("{right_name}.{}", c.name), c.dtype));
        }
        Schema::new(columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("score", DataType::Float),
            Column::new("name", DataType::Text(12)),
        ])
    }

    #[test]
    fn row_len_includes_flag() {
        assert_eq!(schema().row_len(), 1 + 8 + 8 + 12);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = schema();
        let row = vec![Value::Int(-42), Value::Float(2.5), Value::Text("bob".into())];
        let bytes = s.encode_row(&row).unwrap();
        assert!(Schema::row_used(&bytes));
        assert_eq!(s.decode_row(&bytes), row);
    }

    #[test]
    fn dummy_rows_are_unused() {
        let s = schema();
        assert!(!Schema::row_used(&s.dummy_row()));
    }

    #[test]
    fn int_coerces_to_float_column() {
        let s = schema();
        let bytes = s.encode_row(&[Value::Int(1), Value::Int(3), Value::Text("x".into())]).unwrap();
        assert_eq!(s.decode_col(&bytes, 1), Value::Float(3.0));
    }

    #[test]
    fn oversized_text_rejected() {
        let s = schema();
        let long = "a".repeat(13);
        assert!(matches!(
            s.encode_row(&[Value::Int(1), Value::Float(0.0), Value::Text(long)]),
            Err(DbError::TypeMismatch(_))
        ));
    }

    #[test]
    fn wrong_arity_rejected() {
        let s = schema();
        assert!(s.encode_row(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn wrong_type_rejected() {
        let s = schema();
        assert!(s
            .encode_row(&[Value::Text("x".into()), Value::Float(0.0), Value::Text("y".into())])
            .is_err());
    }

    #[test]
    fn col_lookup_and_offsets() {
        let s = schema();
        assert_eq!(s.col("score").unwrap(), 1);
        assert_eq!(s.col_offset(0), 1);
        assert_eq!(s.col_offset(1), 9);
        assert_eq!(s.col_offset(2), 17);
        assert!(s.col("missing").is_err());
    }

    #[test]
    fn join_schema_prefixes_names() {
        let s = schema();
        let joined = s.join("a", &s, "b");
        assert_eq!(joined.columns.len(), 6);
        assert_eq!(joined.columns[0].name, "a.id");
        assert_eq!(joined.columns[3].name, "b.id");
    }

    #[test]
    fn value_total_order() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Int(1).cmp_total(&Value::Int(2)), Less);
        assert_eq!(Value::Float(2.0).cmp_total(&Value::Int(2)), Equal);
        assert_eq!(Value::Text("b".into()).cmp_total(&Value::Text("a".into())), Greater);
    }

    #[test]
    fn text_with_interior_content_roundtrip() {
        let s = Schema::new(vec![Column::new("t", DataType::Text(8))]);
        let bytes = s.encode_row(&[Value::Text("ab cd".into())]).unwrap();
        assert_eq!(s.decode_col(&bytes, 0), Value::Text("ab cd".into()));
    }
}
