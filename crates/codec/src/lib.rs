#![forbid(unsafe_code)]
//! A minimal, non-self-describing binary serde format for MVTEE.
//!
//! The approved dependency set includes `serde` but no serialisation
//! format crate, so variant bundles (and the TEE substrate's sealed
//! payloads) use this compact little-endian encoding. It supports exactly
//! the data model the workspace's types need — integers, floats, strings,
//! bytes, options, sequences, maps, tuples, structs and enums — and is
//! intentionally *not* self-describing (`deserialize_any` is unsupported),
//! like `bincode`/`postcard`.

use serde::de::{DeserializeOwned, DeserializeSeed, EnumAccess, MapAccess, SeqAccess, VariantAccess, Visitor};
use serde::ser::{
    SerializeMap, SerializeSeq, SerializeStruct, SerializeStructVariant, SerializeTuple,
    SerializeTupleStruct, SerializeTupleVariant,
};
use serde::Serialize;
use std::fmt;

/// Serialisation/deserialisation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

impl serde::ser::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError(msg.to_string())
    }
}

impl serde::de::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError(msg.to_string())
    }
}

/// A byte buffer that crosses the codec as one length prefix plus one copy.
///
/// A plain `Vec<u8>` goes through serde's sequence path, one
/// `serialize_u8`/`deserialize_u8` call per byte; `Bytes` goes through
/// `serialize_bytes`/`deserialize_byte_buf` instead. The wire is the same
/// either way — a u64-LE length, then the raw bytes — so swapping one for
/// the other changes no encoded byte, and the decoder accepts exactly the
/// same inputs. Every codec-crossing type that carries bulk bytes (sealed
/// chunks, bundles, blobs) holds them as `Bytes`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes(pub Vec<u8>);

impl Serialize for Bytes {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(&self.0)
    }
}

impl<'de> serde::Deserialize<'de> for Bytes {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct BytesVisitor;
        impl Visitor<'_> for BytesVisitor {
            type Value = Bytes;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a byte buffer")
            }
            fn visit_bytes<E: serde::de::Error>(self, v: &[u8]) -> Result<Bytes, E> {
                Ok(Bytes(v.to_vec()))
            }
        }
        deserializer.deserialize_byte_buf(BytesVisitor)
    }
}

/// `f32` data that crosses the codec as one length prefix plus one bulk copy.
///
/// The `f32` analogue of [`Bytes`]: a `Vec<f32>` goes through serde's
/// sequence path, one `serialize_f32`/`deserialize_f32` call and one bounds
/// check per element; `F32s` tells this codec's encoder and decoder (by its
/// newtype name, the way `serde_json`'s `RawValue` works) to move the
/// elements in bulk. The wire is a `Vec<f32>`'s — a u64-LE element count,
/// then each element's LE bits — so swapping one for the other changes no
/// encoded byte, and the decoder accepts exactly the same inputs. The
/// encoder converts through a fixed stack block, never a per-value buffer;
/// the decoder checks the count against the input left before it
/// allocates, then converts with one exact-size collect.
///
/// `F32s(&[f32])` serialises; `F32s<Vec<f32>>` also deserialises. Only this
/// codec gives the newtype its meaning: other formats would see a sequence
/// of byte blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct F32s<T>(pub T);

/// The newtype name [`F32s`] is announced under.
const F32S: &str = "$mvtee_codec::F32s";

/// Elements per block of [`F32s`]'s encoder.
const F32_BLOCK: usize = 1024;

impl<T: AsRef<[f32]>> Serialize for F32s<T> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_newtype_struct(F32S, &LeBlocks(self.0.as_ref()))
    }
}

/// `F32s`' payload: the element count, then the elements' LE bytes in
/// blocks of [`F32_BLOCK`], each handed over as one byte slice.
struct LeBlocks<'a>(&'a [f32]);

impl Serialize for LeBlocks<'_> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.0.len()))?;
        let mut block = [0u8; 4 * F32_BLOCK];
        for values in self.0.chunks(F32_BLOCK) {
            let bytes = &mut block[..4 * values.len()];
            for (out, v) in bytes.chunks_exact_mut(4).zip(values) {
                out.copy_from_slice(&v.to_le_bytes());
            }
            seq.serialize_element(&RawBytes(bytes))?;
        }
        seq.end()
    }
}

/// Bytes the encoder appends as they are, without a length prefix, inside
/// an [`F32s`].
struct RawBytes<'a>(&'a [u8]);

impl Serialize for RawBytes<'_> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self.0)
    }
}

impl<'de> serde::Deserialize<'de> for F32s<Vec<f32>> {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct F32sVisitor;
        impl Visitor<'_> for F32sVisitor {
            type Value = F32s<Vec<f32>>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a run of little-endian f32s")
            }
            fn visit_bytes<E: serde::de::Error>(self, v: &[u8]) -> Result<Self::Value, E> {
                if !v.len().is_multiple_of(4) {
                    return Err(E::custom(format!("{} bytes is not a whole number of f32s", v.len())));
                }
                let values = v.chunks_exact(4).map(|b| f32::from_le_bytes(b.try_into().expect("four bytes")));
                Ok(F32s(values.collect()))
            }
        }
        deserializer.deserialize_newtype_struct(F32S, F32sVisitor)
    }
}

/// Encodes a value.
///
/// # Errors
///
/// Returns an error only for unserialisable values (never for the types in
/// this workspace).
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut ser = Encoder { out: Vec::new(), raw_bytes: false };
    value.serialize(&mut ser)?;
    Ok(ser.out)
}

/// Decodes a value.
///
/// # Errors
///
/// Returns an error for truncated or malformed input.
pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut de = Decoder { input: bytes };
    let value = T::deserialize(&mut de)?;
    if !de.input.is_empty() {
        return Err(CodecError(format!("{} trailing bytes", de.input.len())));
    }
    Ok(value)
}

struct Encoder {
    out: Vec<u8>,
    /// Inside an [`F32s`]: byte slices are element blocks, appended with no
    /// length prefix of their own.
    raw_bytes: bool,
}

impl Encoder {
    fn put_len(&mut self, len: usize) {
        self.out.extend_from_slice(&(len as u64).to_le_bytes());
    }
}

impl serde::Serializer for &mut Encoder {
    type Ok = ();
    type Error = CodecError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, v: bool) -> Result<(), CodecError> {
        self.out.push(v as u8);
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<(), CodecError> {
        self.out.push(v as u8);
        Ok(())
    }
    fn serialize_i16(self, v: i16) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_i32(self, v: i32) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_i64(self, v: i64) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<(), CodecError> {
        self.out.push(v);
        Ok(())
    }
    fn serialize_u16(self, v: u16) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_u32(self, v: u32) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), CodecError> {
        self.serialize_u32(v as u32)
    }
    fn serialize_str(self, v: &str) -> Result<(), CodecError> {
        self.put_len(v.len());
        self.out.extend_from_slice(v.as_bytes());
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), CodecError> {
        if !self.raw_bytes {
            self.put_len(v.len());
        }
        self.out.extend_from_slice(v);
        Ok(())
    }
    fn serialize_none(self) -> Result<(), CodecError> {
        self.out.push(0);
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), CodecError> {
        self.out.push(1);
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), CodecError> {
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), CodecError> {
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), CodecError> {
        self.serialize_u32(variant_index)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        if name != F32S {
            return value.serialize(self);
        }
        self.raw_bytes = true;
        let written = value.serialize(&mut *self);
        self.raw_bytes = false;
        written
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        self.serialize_u32(variant_index)?;
        value.serialize(self)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len = len.ok_or_else(|| CodecError("sequences must have a known length".into()))?;
        self.put_len(len);
        if self.raw_bytes {
            self.out.reserve(4 * len);
        }
        Ok(self)
    }
    fn serialize_tuple(self, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        serde::Serializer::serialize_u32(&mut *self, variant_index)?;
        Ok(self)
    }
    fn serialize_map(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len = len.ok_or_else(|| CodecError("maps must have a known length".into()))?;
        self.put_len(len);
        Ok(self)
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        serde::Serializer::serialize_u32(&mut *self, variant_index)?;
        Ok(self)
    }
}

impl SerializeSeq for &mut Encoder {
    type Ok = ();
    type Error = CodecError;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl SerializeTuple for &mut Encoder {
    type Ok = ();
    type Error = CodecError;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl SerializeTupleStruct for &mut Encoder {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl SerializeTupleVariant for &mut Encoder {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl SerializeMap for &mut Encoder {
    type Ok = ();
    type Error = CodecError;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), CodecError> {
        key.serialize(&mut **self)
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl SerializeStruct for &mut Encoder {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl SerializeStructVariant for &mut Encoder {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

struct Decoder<'de> {
    input: &'de [u8],
}

impl<'de> Decoder<'de> {
    fn take(&mut self, n: usize) -> Result<&'de [u8], CodecError> {
        if self.input.len() < n {
            return Err(CodecError(format!(
                "unexpected end of input: need {n}, have {}",
                self.input.len()
            )));
        }
        let (head, rest) = self.input.split_at(n);
        self.input = rest;
        Ok(head)
    }

    fn take_len(&mut self) -> Result<usize, CodecError> {
        let bytes = self.take(8)?;
        let len = u64::from_le_bytes(bytes.try_into().expect("sliced")) as usize;
        if len > self.input.len() {
            return Err(CodecError(format!("declared length {len} exceeds remaining input")));
        }
        Ok(len)
    }

    fn take_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("sliced")))
    }
}

macro_rules! de_num {
    ($method:ident, $visit:ident, $ty:ty, $n:expr) => {
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
            let bytes = self.take($n)?;
            visitor.$visit(<$ty>::from_le_bytes(bytes.try_into().expect("sliced")))
        }
    };
}

impl<'de> serde::Deserializer<'de> for &mut Decoder<'de> {
    type Error = CodecError;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError("minicodec is not self-describing".into()))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let b = self.take(1)?[0];
        visitor.visit_bool(b != 0)
    }

    fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        visitor.visit_i8(self.take(1)?[0] as i8)
    }
    de_num!(deserialize_i16, visit_i16, i16, 2);
    de_num!(deserialize_i32, visit_i32, i32, 4);
    de_num!(deserialize_i64, visit_i64, i64, 8);
    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        visitor.visit_u8(self.take(1)?[0])
    }
    de_num!(deserialize_u16, visit_u16, u16, 2);
    de_num!(deserialize_u32, visit_u32, u32, 4);
    de_num!(deserialize_u64, visit_u64, u64, 8);
    de_num!(deserialize_f32, visit_f32, f32, 4);
    de_num!(deserialize_f64, visit_f64, f64, 8);

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let code = self.take_u32()?;
        visitor.visit_char(char::from_u32(code).ok_or_else(|| CodecError("bad char".into()))?)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.take_len()?;
        let bytes = self.take(len)?;
        visitor.visit_borrowed_str(
            std::str::from_utf8(bytes).map_err(|e| CodecError(e.to_string()))?,
        )
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.take_len()?;
        visitor.visit_borrowed_bytes(self.take(len)?)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.take(1)?[0] {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            b => Err(CodecError(format!("bad option tag {b}"))),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        if name != F32S {
            return visitor.visit_newtype_struct(self);
        }
        // An element count, then four bytes per element: the claim is held
        // against the input left before anything is reserved.
        let count = u64::from_le_bytes(self.take(8)?.try_into().expect("sliced"));
        let len = count
            .checked_mul(4)
            .and_then(|len| usize::try_from(len).ok())
            .filter(|&len| len <= self.input.len())
            .ok_or_else(|| CodecError(format!("declared length {count} exceeds remaining input")))?;
        visitor.visit_borrowed_bytes(self.take(len)?)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.take_len()?;
        visitor.visit_seq(CountedAccess { de: self, remaining: len })
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_seq(CountedAccess { de: self, remaining: len })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.take_len()?;
        visitor.visit_map(CountedAccess { de: self, remaining: len })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_enum(EnumDecoder { de: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError("identifiers are not encoded".into()))
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError("cannot skip unknown fields in a non-self-describing format".into()))
    }
}

struct CountedAccess<'a, 'de> {
    de: &'a mut Decoder<'de>,
    remaining: usize,
}

impl CountedAccess<'_, '_> {
    /// The elements left, but at most one per four bytes of input left:
    /// a collection reserves room from this hint before reading anything,
    /// so a claimed count alone must not buy more than the input can back.
    /// Every element a bulk sequence carries (`f32`, `u64`, a tensor)
    /// encodes in at least four bytes, so an honest count is never cut.
    fn backed_hint(&self) -> Option<usize> {
        Some(self.remaining.min(self.de.input.len() / 4))
    }
}

impl<'a, 'de> SeqAccess<'de> for CountedAccess<'a, 'de> {
    type Error = CodecError;

    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        self.backed_hint()
    }
}

impl<'a, 'de> MapAccess<'de> for CountedAccess<'a, 'de> {
    type Error = CodecError;

    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value, CodecError> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        self.backed_hint()
    }
}

struct EnumDecoder<'a, 'de> {
    de: &'a mut Decoder<'de>,
}

impl<'a, 'de> EnumAccess<'de> for EnumDecoder<'a, 'de> {
    type Error = CodecError;
    type Variant = Self;

    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self), CodecError> {
        let index = self.de.take_u32()?;
        let value = seed.deserialize(serde::de::value::U32Deserializer::new(index))?;
        Ok((value, self))
    }
}

impl<'a, 'de> VariantAccess<'de> for EnumDecoder<'a, 'de> {
    type Error = CodecError;

    fn unit_variant(self) -> Result<(), CodecError> {
        Ok(())
    }

    fn newtype_variant_seed<T: DeserializeSeed<'de>>(self, seed: T) -> Result<T::Value, CodecError> {
        seed.deserialize(self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value, CodecError> {
        serde::Deserializer::deserialize_tuple(self.de, len, visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        serde::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;
    use std::collections::BTreeMap;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Kind {
        Unit,
        Newtype(u32),
        Tuple(u8, String),
        Struct { a: bool, b: Vec<f32> },
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Nested {
        name: String,
        values: Vec<f64>,
        map: BTreeMap<String, i64>,
        opt: Option<Box<Nested>>,
        kind: Kind,
        pair: (u16, char),
    }

    fn round_trip<T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = to_bytes(v).unwrap();
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&42u8);
        round_trip(&-7i64);
        round_trip(&1.5f32);
        round_trip(&f64::MIN);
        round_trip(&true);
        round_trip(&'λ');
        round_trip(&"hello".to_string());
        round_trip(&Option::<u32>::None);
        round_trip(&Some(9u32));
        round_trip(&vec![1u32, 2, 3]);
    }

    #[test]
    fn enums_round_trip() {
        round_trip(&Kind::Unit);
        round_trip(&Kind::Newtype(7));
        round_trip(&Kind::Tuple(1, "x".into()));
        round_trip(&Kind::Struct { a: true, b: vec![1.0, -2.0] });
    }

    #[test]
    fn nested_struct_round_trips() {
        let mut map = BTreeMap::new();
        map.insert("k1".to_string(), -5i64);
        map.insert("k2".to_string(), 900i64);
        let v = Nested {
            name: "deep".into(),
            values: vec![0.1, 0.2],
            map,
            opt: Some(Box::new(Nested {
                name: "inner".into(),
                values: vec![],
                map: BTreeMap::new(),
                opt: None,
                kind: Kind::Unit,
                pair: (3, 'z'),
            })),
            kind: Kind::Struct { a: false, b: vec![] },
            pair: (65535, '@'),
        };
        round_trip(&v);
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = to_bytes(&vec![1u64, 2, 3]).unwrap();
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Vec<u64>>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u32).unwrap();
        bytes.push(0);
        assert!(from_bytes::<u32>(&bytes).is_err());
    }

    #[test]
    fn absurd_length_rejected() {
        // A sequence claiming u64::MAX elements must not allocate.
        let bytes = u64::MAX.to_le_bytes().to_vec();
        assert!(from_bytes::<Vec<u8>>(&bytes).is_err());
    }

    #[test]
    fn bad_enum_tag_rejected() {
        let bytes = 99u32.to_le_bytes().to_vec();
        assert!(from_bytes::<Kind>(&bytes).is_err());
    }

}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use serde::Deserialize;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum ArbEnum {
        A,
        B(u64),
        C(String, Vec<f32>),
        D { flag: bool, data: Vec<u8> },
    }

    fn arb_enum() -> impl Strategy<Value = ArbEnum> {
        prop_oneof![
            Just(ArbEnum::A),
            any::<u64>().prop_map(ArbEnum::B),
            (".*", proptest::collection::vec(any::<f32>(), 0..8))
                .prop_map(|(s, v)| ArbEnum::C(s, v)),
            (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..32))
                .prop_map(|(flag, data)| ArbEnum::D { flag, data }),
        ]
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct ArbStruct {
        id: u32,
        name: String,
        values: Vec<i64>,
        nested: Option<Box<ArbStruct>>,
        tags: BTreeMap<String, u16>,
        kind: ArbEnum,
    }

    fn arb_struct(depth: u32) -> BoxedStrategy<ArbStruct> {
        let leaf = (
            any::<u32>(),
            "[a-z]{0,12}",
            proptest::collection::vec(any::<i64>(), 0..6),
            proptest::collection::btree_map("[a-z]{1,4}", any::<u16>(), 0..4),
            arb_enum(),
        )
            .prop_map(|(id, name, values, tags, kind)| ArbStruct {
                id,
                name,
                values,
                nested: None,
                tags,
                kind,
            })
            .boxed();
        if depth == 0 {
            leaf
        } else {
            (leaf.clone(), proptest::option::of(arb_struct(depth - 1)))
                .prop_map(|(mut s, nested)| {
                    s.nested = nested.map(Box::new);
                    s
                })
                .boxed()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn arbitrary_structs_round_trip(v in arb_struct(2)) {
            let bytes = to_bytes(&v).expect("encodes");
            let back: ArbStruct = from_bytes(&bytes).expect("decodes");
            // NaN-safe comparison: re-encode and compare bytes.
            let bytes2 = to_bytes(&back).expect("re-encodes");
            prop_assert_eq!(bytes, bytes2);
        }

        #[test]
        fn truncations_never_panic(v in arb_struct(1), cut in any::<proptest::sample::Index>()) {
            let bytes = to_bytes(&v).expect("encodes");
            let cut = cut.index(bytes.len().max(1));
            // Must return an error or a value, never panic/abort.
            let _ = from_bytes::<ArbStruct>(&bytes[..cut]);
        }

        #[test]
        fn bit_flips_never_panic(v in arb_struct(1), at in any::<proptest::sample::Index>(), bit in 0u8..8) {
            let mut bytes = to_bytes(&v).expect("encodes");
            if bytes.is_empty() { return Ok(()); }
            let i = at.index(bytes.len());
            bytes[i] ^= 1 << bit;
            let _ = from_bytes::<ArbStruct>(&bytes);
        }

        #[test]
        fn bytes_encode_like_a_vec_of_u8_and_every_truncation_fails(
            v in proptest::collection::vec(any::<u8>(), 0..2048),
        ) {
            assert_bytes_wire_is_the_vec_wire(&v);
        }

        #[test]
        fn bytes_accept_exactly_what_a_vec_of_u8_accepts(
            input in proptest::collection::vec(any::<u8>(), 0..64),
            len in 0u64..80,
            raw in any::<bool>(),
        ) {
            // Half the cases are raw bytes; the rest start with a plausible
            // length prefix, so that some decode.
            let bytes = if raw { input } else { [&len.to_le_bytes()[..], &input].concat() };
            let as_bytes = from_bytes::<Bytes>(&bytes).ok().map(|b| b.0);
            prop_assert_eq!(as_bytes, from_bytes::<Vec<u8>>(&bytes).ok());
        }
    }

    /// `Bytes(v)` encodes to the bytes `v` does, decodes back to `v`, and
    /// no proper prefix of the encoding decodes.
    fn assert_bytes_wire_is_the_vec_wire(v: &[u8]) {
        let encoded = to_bytes(&Bytes(v.to_vec())).expect("encodes");
        assert!(encoded == to_bytes(&v.to_vec()).expect("encodes"), "{} bytes", v.len());
        assert!(from_bytes::<Bytes>(&encoded).expect("decodes").0 == v);
        for cut in 0..encoded.len() {
            assert!(from_bytes::<Bytes>(&encoded[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bytes_wire_at_the_edges() {
        assert_bytes_wire_is_the_vec_wire(&[]);
        let big: Vec<u8> = (0..65_552u32).map(|i| (i * 7 + 3) as u8).collect();
        assert_bytes_wire_is_the_vec_wire(&big);
        // A u64::MAX length prefix is refused before anything is reserved.
        let mut hostile = u64::MAX.to_le_bytes().to_vec();
        hostile.extend_from_slice(&big);
        let err = from_bytes::<Bytes>(&hostile).unwrap_err();
        assert!(err.0.contains("exceeds remaining input"), "{err}");
    }
}
