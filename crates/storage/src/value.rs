//! Scalar values and data types.

use std::cmp::Ordering;

/// Column data types supported by the engine.
///
/// The warehouse only needs the types the paper's tables use: surrogate
/// keys and counts (`Int`), measures and mapping factors (`Float`), member
/// names and labels (`Str`), and flags (`Bool`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A dynamically typed scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL-style NULL; valid in any nullable column.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The value's data type, or `None` for NULL (which is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Whether the value is NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extracts an integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a float; integers widen losslessly.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Extracts a string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts a boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL-style comparison: NULL compares less than everything (used only
    /// for deterministic sorting), numerics compare across `Int`/`Float`,
    /// and mismatched types order by type tag.
    pub fn sql_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            // Deterministic fallback for heterogeneous comparisons.
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }

    /// SQL-style equality: NULL equals nothing, numerics compare across
    /// `Int`/`Float`.
    pub fn sql_eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => false,
            (Int(a), Float(b)) | (Float(b), Int(a)) => (*a as f64) == *b,
            (a, b) => a == b,
        }
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 2, // numerics rank together
        Value::Str(_) => 3,
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => {
                // Whole values print as integers; below 1e15 they are
                // exact in an `i64`, which formats faster than `{v:.0}`
                // and the same but for the sign of zero.
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    if *v == 0.0 && v.is_sign_negative() {
                        f.write_str("-0")
                    } else {
                        write!(f, "{}", *v as i64)
                    }
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_of_values() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::from("x").data_type(), Some(DataType::Str));
    }

    #[test]
    fn sql_eq_null_semantics() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Null.sql_eq(&Value::Int(1)));
        assert!(Value::Int(2).sql_eq(&Value::Float(2.0)));
        assert!(!Value::Int(2).sql_eq(&Value::Float(2.5)));
    }

    #[test]
    fn sql_cmp_numeric_cross_type() {
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).sql_cmp(&Value::Int(3)), Ordering::Equal);
    }

    #[test]
    fn sql_cmp_null_first() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(i64::MIN)), Ordering::Less);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Float(4.0).to_string(), "4");
        assert_eq!(Value::Float(0.4).to_string(), "0.4");
        for v in [
            0.0,
            -0.0,
            -4.0,
            1e15 - 1.0,
            -(1e15 - 1.0),
            1e15,
            2.5e15,
            -0.5,
        ] {
            assert_eq!(Value::Float(v).to_string(), {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.0}")
                } else {
                    format!("{v}")
                }
            });
        }
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::from("Sales").to_string(), "Sales");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::from("a").as_str(), Some("a"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Float(1.5).as_int(), None);
    }
}
