//! Offline drop-in subset of `serde_json` (serialization only).
//!
//! Provides [`to_string`], [`to_string_pretty`], [`to_writer`], a [`Value`]
//! tree, and the [`json!`] macro for flat `{"key": expr}` objects. Output is
//! fully deterministic: object fields keep insertion order and floats format
//! the same way on every run.
//!
//! There is one writer, generic over [`std::io::Write`] as upstream's is:
//! [`to_writer`] hands every piece of output to the caller's sink as it is
//! produced (a hasher, a reused buffer), and the `to_string` pair is that
//! writer over a `Vec<u8>`. Integers are formatted into a stack buffer and a
//! string is copied in runs between its escapes, so serializing allocates
//! only what the sink does.

#![forbid(unsafe_code)]

use serde::{ser, Serialize, Serializer};
use std::fmt;
use std::io;

/// Serialization error: the sink refused a write, or a map key was not a
/// string or an integer.
#[derive(Debug)]
pub struct Error(String);

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error(e.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// Serialize `value` as compact JSON into `writer`, piece by piece.
pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(writer: W, value: &T) -> Result<()> {
    value.serialize(&mut Writer::new(writer, false))
}

fn into_string<T: Serialize + ?Sized>(value: &T, pretty: bool) -> Result<String> {
    let mut w = Writer::new(Vec::new(), pretty);
    value.serialize(&mut w)?;
    String::from_utf8(w.out).map_err(|e| Error(e.to_string()))
}

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    into_string(value, false)
}

/// Serialize `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    into_string(value, true)
}

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    value.serialize(ValueSer)
}

// ---- Value tree ---------------------------------------------------------

/// An in-memory JSON value. Objects preserve insertion order so repeated
/// serialization is byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: S) -> std::result::Result<S::Ok, S::Error> {
        match self {
            Value::Null => s.serialize_none(),
            Value::Bool(b) => s.serialize_bool(*b),
            Value::I64(v) => s.serialize_i64(*v),
            Value::U64(v) => s.serialize_u64(*v),
            Value::F64(v) => s.serialize_f64(*v),
            Value::String(v) => s.serialize_str(v),
            Value::Array(items) => {
                use ser::SerializeSeq as _;
                let mut seq = s.serialize_seq(Some(items.len()))?;
                for item in items {
                    seq.serialize_element(item)?;
                }
                seq.end()
            }
            Value::Object(entries) => {
                use ser::SerializeMap as _;
                let mut map = s.serialize_map(Some(entries.len()))?;
                for (k, v) in entries {
                    map.serialize_entry(k, v)?;
                }
                map.end()
            }
        }
    }
}

/// Build a JSON [`Value`] from literal-style syntax. Supports objects,
/// arrays, `null`, and arbitrary serializable expressions as values.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:tt : $value:expr),* $(,)? }) => {
        $crate::Value::Object(vec![ $( ($key.to_string(), $crate::json!($value)) ),* ])
    };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($item) ),* ])
    };
    ($other:expr) => {
        $crate::to_value(&$other).expect("json! value serializes")
    };
}

// ---- Writer serializer --------------------------------------------------

struct Writer<W> {
    out: W,
    pretty: bool,
    depth: usize,
}

impl<W: io::Write> Writer<W> {
    fn new(out: W, pretty: bool) -> Self {
        Writer {
            out,
            pretty,
            depth: 0,
        }
    }

    fn put(&mut self, s: &str) -> Result<()> {
        Ok(self.out.write_all(s.as_bytes())?)
    }

    fn newline(&mut self) -> Result<()> {
        if self.pretty {
            self.put("\n")?;
            for _ in 0..self.depth {
                self.put("  ")?;
            }
        }
        Ok(())
    }

    /// The `:` after a key (and the space pretty output puts after it).
    fn colon(&mut self) -> Result<()> {
        self.put(if self.pretty { ": " } else { ":" })
    }

    /// `"key":`
    fn key(&mut self, key: &str) -> Result<()> {
        self.write_str_escaped(key)?;
        self.colon()
    }

    /// Everything between two escapes leaves in one write; a string
    /// with none is one copy.
    fn write_str_escaped(&mut self, s: &str) -> Result<()> {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.put("\"")?;
        let mut unicode = *b"\\u0000";
        let mut run = 0;
        // Every byte that needs an escape is ASCII, so `run..i` always
        // falls on character boundaries.
        for (i, b) in s.bytes().enumerate() {
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x08 => b"\\b",
                0x0c => b"\\f",
                0x00..=0x1f => {
                    unicode[4] = HEX[usize::from(b >> 4)];
                    unicode[5] = HEX[usize::from(b & 0xf)];
                    &unicode
                }
                _ => continue,
            };
            self.put(&s[run..i])?;
            self.out.write_all(escape)?;
            run = i + 1;
        }
        self.put(&s[run..])?;
        self.put("\"")
    }

    /// Decimal digits into a stack buffer (`u64::MAX` has twenty).
    fn write_u64(&mut self, mut v: u64) -> Result<()> {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        Ok(self.out.write_all(&digits[at..])?)
    }

    fn write_i64(&mut self, v: i64) -> Result<()> {
        if v < 0 {
            self.put("-")?;
        }
        self.write_u64(v.unsigned_abs())
    }

    fn write_f64(&mut self, v: f64) -> Result<()> {
        if !v.is_finite() {
            // serde_json refuses non-finite floats; emitting null keeps
            // every valid output unchanged without a new failure mode.
            self.put("null")
        } else if v == v.trunc() && v.abs() < 1e15 {
            Ok(write!(self.out, "{v:.1}")?)
        } else {
            Ok(write!(self.out, "{v}")?)
        }
    }

    /// `{"Variant":` — the wrapper object of a newtype or struct variant.
    fn open_variant(&mut self, variant: &str) -> Result<()> {
        self.put("{")?;
        self.depth += 1;
        self.newline()?;
        self.key(variant)
    }

    fn close_variant(&mut self) -> Result<()> {
        self.depth -= 1;
        self.newline()?;
        self.put("}")
    }
}

struct Compound<'a, W> {
    w: &'a mut Writer<W>,
    first: bool,
    close: &'static str,
}

impl<'a, W: io::Write> Compound<'a, W> {
    fn open(w: &'a mut Writer<W>, open: &str, close: &'static str) -> Result<Self> {
        w.put(open)?;
        w.depth += 1;
        Ok(Compound {
            w,
            first: true,
            close,
        })
    }

    fn elem_prefix(&mut self) -> Result<()> {
        if !self.first {
            self.w.put(",")?;
        }
        self.first = false;
        self.w.newline()
    }

    fn finish(self) -> Result<&'a mut Writer<W>> {
        self.w.depth -= 1;
        if !self.first {
            self.w.newline()?;
        }
        self.w.put(self.close)?;
        Ok(self.w)
    }

    fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) -> Result<()> {
        self.elem_prefix()?;
        self.w.key(key)?;
        value.serialize(&mut *self.w)
    }
}

impl<W: io::Write> ser::SerializeSeq for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.elem_prefix()?;
        value.serialize(&mut *self.w)
    }

    fn end(self) -> Result<()> {
        self.finish().map(drop)
    }
}

impl<W: io::Write> ser::SerializeMap for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<()> {
        // JSON keys must be strings; capture the key through a stringifying
        // serializer pass.
        let key = to_value(key)?;
        self.elem_prefix()?;
        match key {
            Value::String(s) => self.w.write_str_escaped(&s)?,
            Value::U64(_) | Value::I64(_) => {
                self.w.put("\"")?;
                key.serialize(&mut *self.w)?;
                self.w.put("\"")?;
            }
            other => return Err(Error(format!("non-string map key: {other:?}"))),
        }
        self.w.colon()?;
        value.serialize(&mut *self.w)
    }

    fn end(self) -> Result<()> {
        self.finish().map(drop)
    }
}

impl<W: io::Write> ser::SerializeStruct for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        self.field(key, value)
    }

    fn end(self) -> Result<()> {
        self.finish().map(drop)
    }
}

/// Struct variant: `{"Variant": {fields...}}` — tracks the extra closing
/// brace of the outer wrapper object.
struct VariantCompound<'a, W>(Compound<'a, W>);

impl<W: io::Write> ser::SerializeStructVariant for VariantCompound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        self.0.field(key, value)
    }

    fn end(self) -> Result<()> {
        // Close the inner fields object, then the `{"Variant": ...}`
        // wrapper opened in serialize_struct_variant.
        self.0.finish()?.close_variant()
    }
}

impl<'a, W: io::Write> Serializer for &'a mut Writer<W> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'a, W>;
    type SerializeMap = Compound<'a, W>;
    type SerializeStruct = Compound<'a, W>;
    type SerializeStructVariant = VariantCompound<'a, W>;

    fn serialize_bool(self, v: bool) -> Result<()> {
        self.put(if v { "true" } else { "false" })
    }

    fn serialize_i64(self, v: i64) -> Result<()> {
        self.write_i64(v)
    }

    fn serialize_u64(self, v: u64) -> Result<()> {
        self.write_u64(v)
    }

    fn serialize_f64(self, v: f64) -> Result<()> {
        self.write_f64(v)
    }

    fn serialize_str(self, v: &str) -> Result<()> {
        self.write_str_escaped(v)
    }

    fn serialize_none(self) -> Result<()> {
        self.put("null")
    }

    fn serialize_some<T: Serialize + ?Sized>(self, v: &T) -> Result<()> {
        v.serialize(self)
    }

    fn serialize_unit(self) -> Result<()> {
        self.put("null")
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _idx: u32,
        variant: &'static str,
    ) -> Result<()> {
        self.write_str_escaped(variant)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _idx: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<()> {
        self.open_variant(variant)?;
        value.serialize(&mut *self)?;
        self.close_variant()
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a, W>> {
        Compound::open(self, "[", "]")
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a, W>> {
        Compound::open(self, "{", "}")
    }

    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Compound<'a, W>> {
        Compound::open(self, "{", "}")
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _idx: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<VariantCompound<'a, W>> {
        self.open_variant(variant)?;
        Ok(VariantCompound(Compound::open(self, "{", "}")?))
    }
}

// ---- Value-building serializer ------------------------------------------

struct ValueSer;

struct ValueSeq(Vec<Value>);
struct ValueMap(Vec<(String, Value)>);
struct ValueVariant(&'static str, Vec<(String, Value)>);

impl ser::SerializeSeq for ValueSeq {
    type Ok = Value;
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.0.push(to_value(value)?);
        Ok(())
    }

    fn end(self) -> Result<Value> {
        Ok(Value::Array(self.0))
    }
}

impl ser::SerializeMap for ValueMap {
    type Ok = Value;
    type Error = Error;

    fn serialize_entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<()> {
        let key = match to_value(key)? {
            Value::String(s) => s,
            Value::U64(n) => n.to_string(),
            Value::I64(n) => n.to_string(),
            other => return Err(Error(format!("non-string map key: {other:?}"))),
        };
        self.0.push((key, to_value(value)?));
        Ok(())
    }

    fn end(self) -> Result<Value> {
        Ok(Value::Object(self.0))
    }
}

impl ser::SerializeStruct for ValueMap {
    type Ok = Value;
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        self.0.push((key.to_string(), to_value(value)?));
        Ok(())
    }

    fn end(self) -> Result<Value> {
        Ok(Value::Object(self.0))
    }
}

impl ser::SerializeStructVariant for ValueVariant {
    type Ok = Value;
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        self.1.push((key.to_string(), to_value(value)?));
        Ok(())
    }

    fn end(self) -> Result<Value> {
        Ok(Value::Object(vec![(
            self.0.to_string(),
            Value::Object(self.1),
        )]))
    }
}

impl Serializer for ValueSer {
    type Ok = Value;
    type Error = Error;
    type SerializeSeq = ValueSeq;
    type SerializeMap = ValueMap;
    type SerializeStruct = ValueMap;
    type SerializeStructVariant = ValueVariant;

    fn serialize_bool(self, v: bool) -> Result<Value> {
        Ok(Value::Bool(v))
    }

    fn serialize_i64(self, v: i64) -> Result<Value> {
        Ok(Value::I64(v))
    }

    fn serialize_u64(self, v: u64) -> Result<Value> {
        Ok(Value::U64(v))
    }

    fn serialize_f64(self, v: f64) -> Result<Value> {
        Ok(Value::F64(v))
    }

    fn serialize_str(self, v: &str) -> Result<Value> {
        Ok(Value::String(v.to_string()))
    }

    fn serialize_none(self) -> Result<Value> {
        Ok(Value::Null)
    }

    fn serialize_some<T: Serialize + ?Sized>(self, v: &T) -> Result<Value> {
        to_value(v)
    }

    fn serialize_unit(self) -> Result<Value> {
        Ok(Value::Null)
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _idx: u32,
        variant: &'static str,
    ) -> Result<Value> {
        Ok(Value::String(variant.to_string()))
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _idx: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<Value> {
        Ok(Value::Object(vec![(variant.to_string(), to_value(value)?)]))
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<ValueSeq> {
        Ok(ValueSeq(Vec::with_capacity(len.unwrap_or(0))))
    }

    fn serialize_map(self, len: Option<usize>) -> Result<ValueMap> {
        Ok(ValueMap(Vec::with_capacity(len.unwrap_or(0))))
    }

    fn serialize_struct(self, _name: &'static str, len: usize) -> Result<ValueMap> {
        Ok(ValueMap(Vec::with_capacity(len)))
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _idx: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<ValueVariant> {
        Ok(ValueVariant(variant, Vec::with_capacity(len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_object() {
        let v = json!({"a": 1u32, "b": "x\"y", "c": [1u8, 2u8]});
        assert_eq!(to_string(&v).unwrap(), r#"{"a":1,"b":"x\"y","c":[1,2]}"#);
    }

    #[test]
    fn pretty_object() {
        let v = json!({"a": 1u32});
        assert_eq!(to_string_pretty(&v).unwrap(), "{\n  \"a\": 1\n}");
    }

    #[test]
    fn float_formatting_stable() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&0.25f64).unwrap(), "0.25");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn options_and_nulls() {
        assert_eq!(to_string(&Option::<u32>::None).unwrap(), "null");
        assert_eq!(to_string(&Some(3u32)).unwrap(), "3");
        assert_eq!(to_string(&json!(null)).unwrap(), "null");
    }

    #[test]
    fn integers_at_the_edges_of_their_range() {
        assert_eq!(to_string(&0u64).unwrap(), "0");
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
        assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
        assert_eq!(to_string(&-1i64).unwrap(), "-1");
        assert_eq!(to_string(&i64::MAX).unwrap(), i64::MAX.to_string());
        for v in [9u64, 10, 99, 100, 1_000_000_007] {
            assert_eq!(to_string(&v).unwrap(), v.to_string());
        }
    }

    #[test]
    fn every_escape_class_next_to_an_escape_free_string() {
        let hostile = "a\"b\\c\nd\re\tf\u{08}g\u{0c}h\u{01}i\u{1f}j\u{7f}é\u{2028}";
        assert_eq!(
            to_string(&[hostile, "plain.example.", ""]).unwrap(),
            "[\"a\\\"b\\\\c\\nd\\re\\tf\\bg\\fh\\u0001i\\u001fj\u{7f}é\u{2028}\",\
             \"plain.example.\",\"\"]"
        );
        // Escapes at both ends and back to back leave no empty run behind.
        assert_eq!(to_string("\"\"x\n").unwrap(), r#""\"\"x\n""#);
    }

    /// A value with every shape the writer serializes: unit, newtype
    /// and struct variants, a struct, sequences, options, floats, and
    /// maps keyed by strings and by both integer kinds.
    enum Shape {
        Unit,
        Newtype(u32),
        Struct { a: i64, inner: Vec<Shape> },
    }

    impl Serialize for Shape {
        fn serialize<S: Serializer>(&self, s: S) -> std::result::Result<S::Ok, S::Error> {
            match self {
                Shape::Unit => s.serialize_unit_variant("Shape", 0, "Unit"),
                Shape::Newtype(v) => s.serialize_newtype_variant("Shape", 1, "Newtype", v),
                Shape::Struct { a, inner } => {
                    use ser::SerializeStructVariant as _;
                    let mut sv = s.serialize_struct_variant("Shape", 2, "Struct", 2)?;
                    sv.serialize_field("a", a)?;
                    sv.serialize_field("inner", inner)?;
                    sv.end()
                }
            }
        }
    }

    struct Nested {
        shapes: Vec<Shape>,
    }

    impl Serialize for Nested {
        fn serialize<S: Serializer>(&self, s: S) -> std::result::Result<S::Ok, S::Error> {
            use ser::SerializeStruct as _;
            let by_id: std::collections::BTreeMap<u64, Option<f64>> =
                [(7, Some(0.5)), (u64::MAX, None)].into();
            let by_delta: std::collections::BTreeMap<i64, (bool, &str)> =
                [(-3, (true, "t\tab"))].into();
            let empty: [u8; 0] = [];
            let mut st = s.serialize_struct("Nested", 5)?;
            st.serialize_field("name", "n\"1")?;
            st.serialize_field("shapes", &self.shapes)?;
            st.serialize_field("by_id", &by_id)?;
            st.serialize_field("by_delta", &by_delta)?;
            st.serialize_field("empty", &empty)?;
            st.end()
        }
    }

    fn nested() -> Nested {
        Nested {
            shapes: vec![
                Shape::Unit,
                Shape::Newtype(4),
                Shape::Struct {
                    a: -12,
                    inner: vec![Shape::Newtype(0), Shape::Unit],
                },
            ],
        }
    }

    const NESTED_COMPACT: &str = r#"{"name":"n\"1","shapes":["Unit",{"Newtype":4},{"Struct":{"a":-12,"inner":[{"Newtype":0},"Unit"]}}],"by_id":{"7":0.5,"18446744073709551615":null},"by_delta":{"-3":[true,"t\tab"]},"empty":[]}"#;

    const NESTED_PRETTY: &str = r#"{
  "name": "n\"1",
  "shapes": [
    "Unit",
    {
      "Newtype": 4
    },
    {
      "Struct": {
        "a": -12,
        "inner": [
          {
            "Newtype": 0
          },
          "Unit"
        ]
      }
    }
  ],
  "by_id": {
    "7": 0.5,
    "18446744073709551615": null
  },
  "by_delta": {
    "-3": [
      true,
      "t\tab"
    ]
  },
  "empty": []
}"#;

    #[test]
    fn nested_value_compact_and_pretty() {
        assert_eq!(to_string(&nested()).unwrap(), NESTED_COMPACT);
        assert_eq!(to_string_pretty(&nested()).unwrap(), NESTED_PRETTY);
    }

    #[test]
    fn to_writer_hands_the_sink_exactly_the_bytes_of_to_string() {
        let mut out = b"kept:".to_vec();
        to_writer(&mut out, &nested()).unwrap();
        assert_eq!(out, [b"kept:", NESTED_COMPACT.as_bytes()].concat());
    }

    #[test]
    fn a_refusing_sink_is_an_error_not_a_short_output() {
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("sink is full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = to_writer(Full, &nested()).unwrap_err();
        assert!(err.to_string().contains("sink is full"), "{err}");
    }

    #[test]
    fn btreemap_as_object() {
        let mut m = std::collections::BTreeMap::new();
        m.insert("k".to_string(), 7u64);
        assert_eq!(to_string(&m).unwrap(), r#"{"k":7}"#);
    }
}
