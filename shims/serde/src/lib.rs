//! Offline stand-in for [serde](https://crates.io/crates/serde).
//!
//! The MGDiffNet workspace uses serde only through `serde_json`
//! (`json!`, `Value`, `to_string`, `from_str`, `from_value`), so this shim
//! replaces serde's zero-copy visitor architecture with a simple tree
//! model: [`Serialize`] renders a value into a [`value::Value`] and
//! [`Deserialize`] rebuilds the value from one, following serde's JSON data
//! conventions for the primitives and containers implemented here. There
//! is no derive macro: no workspace type derives either trait.

pub mod value;

pub use value::Value;

/// Rendering into the [`Value`] tree (the shim's analogue of
/// `serde::Serialize`).
pub trait Serialize {
    /// Renders `self` as a value tree.
    fn serialize_value(&self) -> Value;
}

/// Rebuilding from a [`Value`] tree (the shim's analogue of
/// `serde::Deserialize`).
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    fn deserialize_value(v: &Value) -> Result<Self, Error>;
}

/// Serialization/deserialization error (a message, like `serde_json`'s).
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl Error {
    /// Creates an error with a message.
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

// ------------------------------------------------------------- primitives

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::msg(format!("expected bool, got {}", other.kind()))),
        }
    }
}

macro_rules! serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }

        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                let u = v.as_u64().ok_or_else(|| {
                    Error::msg(format!("expected unsigned integer, got {}", v.kind()))
                })?;
                <$t>::try_from(u).map_err(|_| Error::msg("integer out of range"))
            }
        }
    )*};
}
serde_uint!(u8, u16, u32, u64, usize);

macro_rules! serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }

        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                let i = v.as_i64().ok_or_else(|| {
                    Error::msg(format!("expected integer, got {}", v.kind()))
                })?;
                <$t>::try_from(i).map_err(|_| Error::msg("integer out of range"))
            }
        }
    )*};
}
serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .ok_or_else(|| Error::msg(format!("expected number, got {}", v.kind())))
    }
}

impl Serialize for f32 {
    fn serialize_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        f64::deserialize_value(v).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::msg(format!("expected string, got {}", other.kind()))),
        }
    }
}

impl Serialize for str {
    fn serialize_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

// ------------------------------------------------------------- containers

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::deserialize_value).collect(),
            other => Err(Error::msg(format!("expected array, got {}", other.kind()))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        match self {
            Some(x) => x.serialize_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize_value(other).map(Some),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::deserialize_value(v)?;
        items
            .try_into()
            .map_err(|_| Error::msg(format!("expected array of length {N}")))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        T::deserialize_value(v).map(Box::new)
    }
}

macro_rules! serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.serialize_value()),+])
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize_value(v: &Value) -> Result<Self, Error> {
                const LEN: usize = [$($idx),+].len();
                match v {
                    Value::Seq(items) if items.len() == LEN => {
                        Ok(($($name::deserialize_value(&items[$idx])?,)+))
                    }
                    other => Err(Error::msg(format!(
                        "expected {}-tuple, got {}", LEN, other.kind()
                    ))),
                }
            }
        }
    )*};
}
serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl Serialize for Value {
    fn serialize_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
