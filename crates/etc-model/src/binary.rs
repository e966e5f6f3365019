//! Binary ETC instance codec — the payload format of `.pacst` instance
//! records (FORMAT.md §5.1).
//!
//! The text formats in [`crate::io`] are human-auditable but cost a full
//! parse per load; this codec is the zero-parse path: fixed-offset
//! little-endian fields, `f64::to_le_bytes` for every matrix cell, so a
//! reader can decode an instance with bounds checks only. The byte
//! layout is **normative** — it is specified field-by-field in
//! FORMAT.md and asserted offset-by-offset by the store's round-trip
//! tests; change it only with a format version bump.
//!
//! Layout (`N` = name byte length, `T` = tasks, `M` = machines):
//!
//! | offset      | size  | field                         |
//! |-------------|-------|-------------------------------|
//! | 0           | 2     | `name_len` (u16 LE)           |
//! | 2           | N     | name (UTF-8)                  |
//! | 2+N         | 4     | `n_tasks` (u32 LE)            |
//! | 6+N         | 4     | `n_machines` (u32 LE)         |
//! | 10+N        | 8·M   | ready times (f64 LE each)     |
//! | 10+N+8·M    | 8·T·M | ETC matrix, task-major (f64)  |
//!
//! Reading is one validating walk with two consumers. The walk checks
//! the fields in the order above: the exact payload length (with checked
//! arithmetic, so crafted dimensions are a [`BinError::Shape`], not an
//! overflow), then every ready time and cell. [`decode_instance`]
//! collects the values, read with `chunks_exact(8)`, into an
//! [`EtcInstance`]; [`check_instance`] collects nothing and returns the
//! name. Both give the same error on the same bytes, so a store can
//! validate a record it only copies.
//!
//! Durability is the caller's concern: the `.pacst` store frames this
//! payload with a length + CRC-32 and lands it on disk through
//! `pa_cga_core::fsx` atomic writes.

use crate::instance::EtcInstance;
use crate::matrix::EtcMatrix;

/// Why a binary instance payload failed to decode. Every variant is a
/// typed error — the codec never panics on untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// The buffer ended before the named field.
    Truncated(&'static str),
    /// The name is not valid UTF-8, or too long to encode.
    Name(String),
    /// Dimensions are inconsistent with the payload length.
    Shape(String),
    /// A matrix or ready-time value violates the model invariants
    /// (finite, ETC > 0, ready ≥ 0).
    Value(String),
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Truncated(what) => write!(f, "truncated before {what}"),
            BinError::Name(m) => write!(f, "bad instance name: {m}"),
            BinError::Shape(m) => write!(f, "bad shape: {m}"),
            BinError::Value(m) => write!(f, "bad value: {m}"),
        }
    }
}

impl std::error::Error for BinError {}

/// Encodes an instance into the binary payload layout above.
///
/// Errors only when the name exceeds the u16 length field — model
/// invariants (finite, positive ETC) hold by [`EtcInstance`]
/// construction.
pub fn encode_instance(instance: &EtcInstance) -> Result<Vec<u8>, BinError> {
    let name = instance.name().as_bytes();
    let name_len = u16::try_from(name.len())
        .map_err(|_| BinError::Name(format!("{} bytes exceeds the u16 field", name.len())))?;
    let n_tasks = instance.n_tasks();
    let n_machines = instance.n_machines();
    let mut out = Vec::with_capacity(10 + name.len() + 8 * n_machines + 8 * n_tasks * n_machines);
    out.extend_from_slice(&name_len.to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(&(n_tasks as u32).to_le_bytes());
    out.extend_from_slice(&(n_machines as u32).to_le_bytes());
    for &r in instance.ready_times() {
        out.extend_from_slice(&r.to_le_bytes());
    }
    for &x in instance.etc().task_major_data() {
        out.extend_from_slice(&x.to_le_bytes());
    }
    Ok(out)
}

/// The exact encoded size of an instance payload, without encoding it.
pub fn encoded_len(instance: &EtcInstance) -> usize {
    10 + instance.name().len()
        + 8 * instance.n_machines()
        + 8 * instance.n_tasks() * instance.n_machines()
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], BinError> {
        let end = self.pos.checked_add(len).ok_or(BinError::Truncated(what))?;
        let slice = self.buf.get(self.pos..end).ok_or(BinError::Truncated(what))?;
        self.pos = end;
        Ok(slice)
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, BinError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes(b.try_into().map_err(|_| BinError::Truncated(what))?))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, BinError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().map_err(|_| BinError::Truncated(what))?))
    }
}

/// An instance payload whose name, dimensions and exact length have been
/// checked; its values have not been read yet.
struct Walk<'a> {
    name: &'a str,
    n_tasks: usize,
    n_machines: usize,
    ready: &'a [u8],
    etc: &'a [u8],
}

impl<'a> Walk<'a> {
    /// Checks everything but the values, in field order.
    fn header(bytes: &'a [u8]) -> Result<Self, BinError> {
        let mut c = Cursor { buf: bytes, pos: 0 };
        let name_len = c.u16("name_len")? as usize;
        let name_bytes = c.take(name_len, "name")?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|e| BinError::Name(format!("not UTF-8: {e}")))?;
        let n_tasks = c.u32("n_tasks")? as usize;
        let n_machines = c.u32("n_machines")? as usize;
        if n_tasks == 0 || n_machines == 0 {
            return Err(BinError::Shape(format!("{n_tasks} tasks × {n_machines} machines")));
        }
        let overflow = || BinError::Shape(format!("{n_tasks}×{n_machines} overflows"));
        let ready_len = n_machines.checked_mul(8).ok_or_else(overflow)?;
        let etc_len =
            n_tasks.checked_mul(n_machines).and_then(|c| c.checked_mul(8)).ok_or_else(overflow)?;
        let expected = (10 + name_len)
            .checked_add(ready_len)
            .and_then(|n| n.checked_add(etc_len))
            .ok_or_else(overflow)?;
        if bytes.len() != expected {
            return Err(BinError::Shape(format!(
                "payload is {} bytes, {n_tasks}×{n_machines} needs {expected}",
                bytes.len()
            )));
        }
        let ready = c.take(ready_len, "ready")?;
        let etc = c.take(etc_len, "etc")?;
        Ok(Walk { name, n_tasks, n_machines, ready, etc })
    }

    /// Checks every ready time and ETC cell in file order, handing each
    /// valid one to its sink.
    fn values(
        &self,
        mut ready: impl FnMut(f64),
        mut cell: impl FnMut(f64),
    ) -> Result<(), BinError> {
        for (m, b) in self.ready.chunks_exact(8).enumerate() {
            let r = f64::from_le_bytes(b.try_into().map_err(|_| BinError::Truncated("ready"))?);
            if !r.is_finite() || r < 0.0 {
                return Err(BinError::Value(format!("ready[{m}] = {r}")));
            }
            ready(r);
        }
        for (i, b) in self.etc.chunks_exact(8).enumerate() {
            let x = f64::from_le_bytes(b.try_into().map_err(|_| BinError::Truncated("etc"))?);
            if !x.is_finite() || x <= 0.0 {
                return Err(BinError::Value(format!(
                    "etc[{}][{}] = {x}",
                    i / self.n_machines,
                    i % self.n_machines
                )));
            }
            cell(x);
        }
        Ok(())
    }
}

/// Validates a binary instance payload exactly as [`decode_instance`]
/// does, with the same error on the same bytes, and returns its name. No
/// cell is collected and no matrix is built, so a store can check a
/// record it only copies.
pub fn check_instance(bytes: &[u8]) -> Result<&str, BinError> {
    let walk = Walk::header(bytes)?;
    walk.values(|_| {}, |_| {})?;
    Ok(walk.name)
}

/// Decodes a binary instance payload, validating shape and every model
/// invariant (ETC finite and > 0, ready times finite and ≥ 0) before
/// any panicking constructor runs.
pub fn decode_instance(bytes: &[u8]) -> Result<EtcInstance, BinError> {
    let walk = Walk::header(bytes)?;
    let mut ready = Vec::with_capacity(walk.n_machines);
    let mut values = Vec::with_capacity(walk.etc.len() / 8);
    walk.values(|r| ready.push(r), |x| values.push(x))?;
    let matrix = EtcMatrix::from_task_major(walk.n_tasks, walk.n_machines, values);
    Ok(EtcInstance::with_ready_times(walk.name, matrix, ready))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(instance: &EtcInstance) -> EtcInstance {
        let bytes = encode_instance(instance).unwrap();
        assert_eq!(bytes.len(), encoded_len(instance));
        decode_instance(&bytes).unwrap()
    }

    #[test]
    fn toy_round_trips_bit_exact() {
        let a = EtcInstance::toy(7, 3);
        let b = round_trip(&a);
        assert_eq!(a, b);
    }

    #[test]
    fn ready_times_round_trip() {
        let etc = EtcMatrix::from_task_major(2, 2, vec![1.5, 2.25, 3.125, 4.0625]);
        let a = EtcInstance::with_ready_times("rt", etc, vec![0.5, 0.0]);
        let b = round_trip(&a);
        assert_eq!(b.ready(0), 0.5);
        assert_eq!(b.etc().etc(1, 1), 4.0625);
    }

    #[test]
    fn header_fields_live_at_specified_offsets() {
        // FORMAT.md §5.1: name_len at 0, name at 2, dims after the name.
        let a = EtcInstance::toy(2, 2); // name "toy_2x2", 7 bytes
        let bytes = encode_instance(&a).unwrap();
        assert_eq!(&bytes[0..2], &7u16.to_le_bytes());
        assert_eq!(&bytes[2..9], b"toy_2x2");
        assert_eq!(&bytes[9..13], &2u32.to_le_bytes());
        assert_eq!(&bytes[13..17], &2u32.to_le_bytes());
        // Ready times (zero) then ETC[0][0] = 1.0 task-major.
        assert_eq!(&bytes[17..25], &0f64.to_le_bytes());
        assert_eq!(&bytes[33..41], &1f64.to_le_bytes());
    }

    #[test]
    fn truncation_is_typed_at_every_boundary() {
        let bytes = encode_instance(&EtcInstance::toy(3, 2)).unwrap();
        for cut in 0..bytes.len() {
            let err = decode_instance(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, BinError::Truncated(_) | BinError::Shape(_)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn non_utf8_name_is_typed() {
        let mut bytes = encode_instance(&EtcInstance::toy(2, 2)).unwrap();
        bytes[2] = 0xFF; // clobber the first name byte
        assert!(matches!(decode_instance(&bytes).unwrap_err(), BinError::Name(_)));
    }

    #[test]
    fn bad_values_are_typed_not_panics() {
        let a = EtcInstance::toy(2, 2);
        let mut bytes = encode_instance(&a).unwrap();
        // Overwrite ETC[0][0] with -1.0 (offset 33 for the 7-byte name).
        bytes[33..41].copy_from_slice(&(-1f64).to_le_bytes());
        assert!(matches!(decode_instance(&bytes).unwrap_err(), BinError::Value(_)));
        // NaN ready time.
        let mut bytes = encode_instance(&a).unwrap();
        bytes[17..25].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(matches!(decode_instance(&bytes).unwrap_err(), BinError::Value(_)));
    }

    #[test]
    fn zero_dimensions_are_typed() {
        let mut bytes = encode_instance(&EtcInstance::toy(2, 2)).unwrap();
        bytes[9..13].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(decode_instance(&bytes).unwrap_err(), BinError::Shape(_)));
    }

    #[test]
    fn length_mismatch_is_shape_error() {
        let mut bytes = encode_instance(&EtcInstance::toy(2, 2)).unwrap();
        bytes.push(0);
        assert!(matches!(decode_instance(&bytes).unwrap_err(), BinError::Shape(_)));
    }

    /// What `check_instance` and `decode_instance` answer for `bytes`:
    /// the name, or the error's text.
    fn both(bytes: &[u8]) -> (Result<String, String>, Result<String, String>) {
        let check = check_instance(bytes).map(str::to_string).map_err(|e| e.to_string());
        let decode =
            decode_instance(bytes).map(|i| i.name().to_string()).map_err(|e| e.to_string());
        (check, decode)
    }

    fn agree(bytes: &[u8], label: &str) -> Result<String, String> {
        let (check, decode) = both(bytes);
        assert_eq!(check, decode, "{label}");
        check
    }

    /// `bytes` with `value` written at `at`.
    fn patched(bytes: &[u8], at: usize, value: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[at..at + value.len()].copy_from_slice(value);
        out
    }

    #[test]
    fn check_and_decode_agree_on_valid_bodies() {
        let neg_zero = EtcInstance::with_ready_times(
            "nz",
            EtcMatrix::from_task_major(2, 2, vec![1.5, 2.25, 3.125, 4.0625]),
            vec![-0.0, 0.5],
        );
        let unicode = EtcInstance::new("größe", EtcMatrix::from_task_major(1, 1, vec![7.0]));
        for instance in [EtcInstance::toy(3, 2), EtcInstance::toy(1, 9), neg_zero, unicode] {
            let bytes = encode_instance(&instance).unwrap();
            assert_eq!(agree(&bytes, instance.name()), Ok(instance.name().to_string()));
        }
    }

    #[test]
    fn check_and_decode_agree_on_every_malformed_class() {
        // toy_3x2: name 7 bytes, dims at 9 and 13, ready at 17, cells at 33.
        let good = encode_instance(&EtcInstance::toy(3, 2)).unwrap();
        let mut cases: Vec<(String, Vec<u8>)> =
            (0..good.len()).map(|cut| (format!("cut at {cut}"), good[..cut].to_vec())).collect();
        let zero = 0u32.to_le_bytes();
        cases.push(("zero tasks".into(), patched(&good, 9, &zero)));
        cases.push(("zero machines".into(), patched(&good, 13, &zero)));
        cases.push(("one byte long".into(), [good.as_slice(), &[0]].concat()));
        cases.push(("one byte short".into(), good[..good.len() - 1].to_vec()));
        cases.push(("non-UTF-8 name".into(), patched(&good, 2, &[0xFF])));
        for (label, at, x) in [
            ("negative ready", 17, -1.0),
            ("NaN ready", 25, f64::NAN),
            ("infinite ready", 17, f64::INFINITY),
            ("-infinite ready", 17, f64::NEG_INFINITY),
            ("zero cell", 33, 0.0),
            ("negative zero cell", 41, -0.0),
            ("negative cell", 49, -2.5),
            ("NaN cell", 73, f64::NAN),
            ("infinite cell", 33, f64::INFINITY),
        ] {
            cases.push((label.into(), patched(&good, at, &x.to_le_bytes())));
        }
        for (label, bytes) in cases {
            assert!(agree(&bytes, &label).is_err(), "{label} must be rejected");
        }
    }

    #[test]
    fn check_and_decode_agree_on_every_byte_flip() {
        let good = encode_instance(&EtcInstance::toy(3, 2)).unwrap();
        for at in 0..good.len() {
            for mask in [0x01, 0x02, 0x10, 0x80, 0xFF] {
                let mut bytes = good.clone();
                bytes[at] ^= mask;
                let _ = agree(&bytes, &format!("byte {at} ^ {mask:#04x}"));
            }
        }
    }

    #[test]
    fn overflowing_dimensions_are_a_shape_error() {
        // 2^31 × 2^30 cells of 8 bytes overflow a 64-bit length.
        let good = encode_instance(&EtcInstance::toy(3, 2)).unwrap();
        let bytes = patched(&good, 9, &(1u32 << 31).to_le_bytes());
        let bytes = patched(&bytes, 13, &(1u32 << 30).to_le_bytes());
        assert!(matches!(decode_instance(&bytes), Err(BinError::Shape(_))));
        assert!(matches!(check_instance(&bytes), Err(BinError::Shape(_))));
        let bytes = patched(&good, 9, &u32::MAX.to_le_bytes());
        let bytes = patched(&bytes, 13, &u32::MAX.to_le_bytes());
        assert!(matches!(decode_instance(&bytes), Err(BinError::Shape(_))));
    }
}
