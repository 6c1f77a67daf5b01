//! Offline drop-in subset of `serde` (serialization only).
//!
//! The build environment has no registry access; this crate provides the
//! slice of serde the workspace uses: the [`Serialize`] / [`Serializer`]
//! traits, the compound-serialization traits in [`ser`], and (behind the
//! `derive` feature) a `#[derive(Serialize)]` proc macro supporting
//! `#[serde(skip)]` and `#[serde(serialize_with = "path")]`.
//!
//! Deserialization is intentionally absent — nothing in the workspace
//! deserializes.

#[cfg(feature = "derive")]
pub use serde_derive::Serialize;

/// A data structure that can be serialized.
pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A format backend (subset of `serde::Serializer`).
///
/// Unlike upstream serde this trait is generic-method based rather than
/// object-safe; every use in the workspace is monomorphic.
pub trait Serializer: Sized {
    type Ok;
    type Error;
    type SerializeSeq: ser::SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
    type SerializeMap: ser::SerializeMap<Ok = Self::Ok, Error = Self::Error>;
    type SerializeStruct: ser::SerializeStruct<Ok = Self::Ok, Error = Self::Error>;
    type SerializeStructVariant: ser::SerializeStructVariant<Ok = Self::Ok, Error = Self::Error>;

    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    fn serialize_none(self) -> Result<Self::Ok, Self::Error>;
    fn serialize_some<T: Serialize + ?Sized>(self, v: &T) -> Result<Self::Ok, Self::Error>;
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;
    fn serialize_unit_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
    ) -> Result<Self::Ok, Self::Error>;
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<Self::Ok, Self::Error>;
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;
    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, Self::Error>;
    fn serialize_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStruct, Self::Error>;
    fn serialize_struct_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStructVariant, Self::Error>;
}

/// Compound-value serialization traits (subset of `serde::ser`).
pub mod ser {
    use super::Serialize;

    pub trait SerializeSeq {
        type Ok;
        type Error;
        fn serialize_element<T: Serialize + ?Sized>(
            &mut self,
            value: &T,
        ) -> Result<(), Self::Error>;
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    pub trait SerializeMap {
        type Ok;
        type Error;
        fn serialize_entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(
            &mut self,
            key: &K,
            value: &V,
        ) -> Result<(), Self::Error>;
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    pub trait SerializeStruct {
        type Ok;
        type Error;
        fn serialize_field<T: Serialize + ?Sized>(
            &mut self,
            key: &'static str,
            value: &T,
        ) -> Result<(), Self::Error>;
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    pub trait SerializeStructVariant {
        type Ok;
        type Error;
        fn serialize_field<T: Serialize + ?Sized>(
            &mut self,
            key: &'static str,
            value: &T,
        ) -> Result<(), Self::Error>;
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }
}

// ---- Serialize impls for std types --------------------------------------

macro_rules! impl_ser_int {
    ($m:ident, $cast:ty, $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.$m(*self as $cast)
            }
        }
    )*};
}
impl_ser_int!(serialize_u64, u64, u8, u16, u32, u64, usize);
impl_ser_int!(serialize_i64, i64, i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_bool(*self)
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(*self as f64)
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(*self)
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => s.serialize_some(v),
            None => s.serialize_none(),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        use ser::SerializeSeq as _;
        let mut seq = s.serialize_seq(Some(self.len()))?;
        for item in self {
            seq.serialize_element(item)?;
        }
        seq.end()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(s)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(s)
    }
}

// Tuples serialize as fixed-length sequences, matching upstream serde.
macro_rules! impl_ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                use ser::SerializeSeq as _;
                let mut seq = s.serialize_seq(Some(0 $(+ { let _ = stringify!($t); 1 })+))?;
                $(seq.serialize_element(&self.$n)?;)+
                seq.end()
            }
        }
    )*};
}
impl_ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        use ser::SerializeMap as _;
        let mut map = s.serialize_map(Some(self.len()))?;
        for (k, v) in self {
            map.serialize_entry(k, v)?;
        }
        map.end()
    }
}
