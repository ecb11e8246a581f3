//! The JSON-shaped value tree shared by the `serde` and `serde_json` shims.
//!
//! Lives here (rather than in `serde_json`) because the shim's
//! `Serialize`/`Deserialize` traits are defined in terms of it;
//! `serde_json` re-exports it as `serde_json::Value`.

/// A JSON value. Integers keep their exact 64-bit representation so
/// `u64`/`i64` round-trip losslessly (floats use `F64`).
#[derive(Clone, Debug)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer literal.
    U64(u64),
    /// A negative integer literal.
    I64(i64),
    /// A floating-point literal.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object; insertion-ordered key/value pairs.
    Map(Vec<(String, Value)>),
}

/// Equality follows JSON semantics: `U64(1) == I64(1)` (an integer is an
/// integer regardless of which variant the writer chose), while floats
/// only equal floats, mirroring `serde_json::Number`.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Seq(a), Value::Seq(b)) => a == b,
            (Value::Map(a), Value::Map(b)) => a == b,
            (Value::F64(a), Value::F64(b)) => a == b,
            (Value::U64(a), Value::U64(b)) => a == b,
            (Value::I64(a), Value::I64(b)) => a == b,
            (Value::U64(u), Value::I64(i)) | (Value::I64(i), Value::U64(u)) => {
                i64::try_from(*u).is_ok_and(|ui| ui == *i)
            }
            _ => false,
        }
    }
}

impl Value {
    /// Human-readable kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) | Value::I64(_) => "integer",
            Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Seq(_) => "array",
            Value::Map(_) => "object",
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Seq(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `u64`, when integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(u) => Some(*u),
            Value::I64(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as `i64`, when integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(i) => Some(*i),
            Value::U64(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The value as `f64`, for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(x) => Some(*x),
            Value::U64(u) => Some(*u as f64),
            Value::I64(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Object lookup by key (`None` when absent or not an object).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable object lookup by key (`None` when absent or not an object).
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Map(entries) => entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Moves the value out, leaving `Null` in its place.
    pub fn take(&mut self) -> Value {
        std::mem::replace(self, Value::Null)
    }
}

/// `value["key"]` — panics match `serde_json`'s behavior loosely by
/// returning `Null` for missing keys instead.
impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

/// `value[i]` for arrays.
impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Seq(v) => v.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}
