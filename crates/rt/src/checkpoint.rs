//! Checkpoint/resume plumbing.
//!
//! Long-running solves (the qMKP binary search, annealing schedules)
//! serialize their progress as JSON via [`Checkpoint`] whenever the
//! runtime interrupts them, and accept the same value back to resume
//! bit-identically. Serialization rides on `qmkp_obs::json` so the crate
//! stays zero-dependency beyond the workspace facade.
//!
//! # Disk spill
//!
//! When `QMKP_RT_CHECKPOINT_DIR` names a directory, every
//! [`Interrupted::new`] additionally *spills* its checkpoint there as a
//! standalone JSON file (`checkpoint-<pid>-<seq>.json`), so an
//! interrupted process that subsequently dies still leaves a resume
//! point behind. The spill is strictly best-effort — I/O failures are
//! reported as obs messages, never panics — and the environment is
//! re-read on every interrupt (it is a cold path; caching would only
//! make tests and long-lived daemons harder to reconfigure). Reload a
//! spilled file with [`load_checkpoint`].

use crate::RtError;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A resumable position inside a long-running solve. Implementations
/// must round-trip exactly: `from_json(to_json(c))` restores a state from
/// which the solve continues bit-identically to an uninterrupted run.
pub trait Checkpoint: Sized {
    /// Serializes the checkpoint as a single JSON object.
    fn to_json(&self) -> String;

    /// Restores a checkpoint serialized by [`Checkpoint::to_json`].
    ///
    /// # Errors
    /// [`RtError::InvalidConfig`] when the payload is malformed or from
    /// an incompatible solve.
    fn from_json(s: &str) -> Result<Self, RtError>;
}

/// An interrupted solve: the structured reason plus the checkpoint to
/// resume from. Returned by the `*_ctx` entry points of checkpointable
/// algorithms instead of a bare error, so budget exhaustion loses no
/// work. The checkpoint is boxed: it only exists on the cold interrupt
/// path, and boxing keeps the `Err` variant of every `*_ctx` result
/// pointer-sized regardless of how much trajectory a solve records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interrupted<C> {
    /// Why the solve stopped.
    pub error: RtError,
    /// Where to resume it.
    pub checkpoint: Box<C>,
}

/// Process-wide sequence number for spilled checkpoint filenames, so
/// repeated interrupts in one process never clobber each other.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

impl<C: Checkpoint> Interrupted<C> {
    /// Pairs a stop reason with a resume point. When
    /// `QMKP_RT_CHECKPOINT_DIR` is set, the checkpoint is also spilled
    /// to disk (best-effort, see the module docs).
    pub fn new(error: RtError, checkpoint: C) -> Self {
        let interrupted = Interrupted {
            error,
            checkpoint: Box::new(checkpoint),
        };
        interrupted.spill();
        interrupted
    }

    /// Writes the checkpoint JSON into `QMKP_RT_CHECKPOINT_DIR`, if set.
    /// Interrupts are cold, so the env read and file write cost nothing
    /// on healthy runs; failures degrade to an obs message.
    fn spill(&self) {
        let Some(dir) = std::env::var_os("QMKP_RT_CHECKPOINT_DIR") else {
            return;
        };
        if dir.is_empty() {
            return;
        }
        let dir = PathBuf::from(dir);
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("checkpoint-{}-{seq:04}.json", std::process::id()));
        let outcome = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, self.checkpoint.to_json()));
        match outcome {
            Ok(()) => {
                qmkp_obs::counter("rt.checkpoint_spills", &[], 1);
                qmkp_obs::message(&format!(
                    "checkpoint spilled to {} ({})",
                    path.display(),
                    self.error
                ));
            }
            Err(e) => {
                qmkp_obs::counter("rt.checkpoint_spill_failures", &[], 1);
                qmkp_obs::message(&format!(
                    "checkpoint spill to {} failed: {e}",
                    path.display()
                ));
            }
        }
    }
}

/// Reloads a checkpoint spilled by [`Interrupted::new`] (or any file
/// holding [`Checkpoint::to_json`] output).
///
/// # Errors
/// [`RtError::InvalidConfig`] when the file cannot be read or does not
/// parse as a checkpoint of type `C`.
pub fn load_checkpoint<C: Checkpoint>(path: &Path) -> Result<C, RtError> {
    let payload = std::fs::read_to_string(path).map_err(|e| {
        RtError::InvalidConfig(format!("checkpoint: cannot read {}: {e}", path.display()))
    })?;
    C::from_json(&payload)
}

impl<C: std::fmt::Debug> std::fmt::Display for Interrupted<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "interrupted ({}), checkpoint available", self.error)
    }
}

impl<C: std::fmt::Debug> std::error::Error for Interrupted<C> {}

/// Looks up a required field in a parsed checkpoint object.
///
/// # Errors
/// [`RtError::InvalidConfig`] naming the missing field.
pub fn require<'a>(
    obj: &'a qmkp_obs::json::Json,
    field: &str,
) -> Result<&'a qmkp_obs::json::Json, RtError> {
    obj.get(field)
        .ok_or_else(|| RtError::InvalidConfig(format!("checkpoint: missing field `{field}`")))
}

/// Looks up a required numeric field and converts it to `u64`.
///
/// # Errors
/// [`RtError::InvalidConfig`] when the field is absent or not a
/// non-negative integer.
pub fn require_u64(obj: &qmkp_obs::json::Json, field: &str) -> Result<u64, RtError> {
    let v = require(obj, field)?.as_f64().ok_or_else(|| {
        RtError::InvalidConfig(format!("checkpoint: field `{field}` is not a number"))
    })?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(RtError::InvalidConfig(format!(
            "checkpoint: field `{field}` is not a non-negative integer"
        )));
    }
    Ok(v as u64)
}

/// Encodes an `f64` as a JSON string of its bit pattern in hex, so the
/// value round-trips exactly (decimal formatting would not).
pub fn f64_to_json(v: f64) -> String {
    format!("\"{:x}\"", v.to_bits())
}

/// Looks up a required field written by [`f64_to_json`].
///
/// # Errors
/// [`RtError::InvalidConfig`] when the field is absent or not a hex bit
/// pattern.
pub fn require_f64_bits(obj: &qmkp_obs::json::Json, field: &str) -> Result<f64, RtError> {
    let raw = require(obj, field)?.as_str().ok_or_else(|| {
        RtError::InvalidConfig(format!("checkpoint: field `{field}` is not a string"))
    })?;
    u64::from_str_radix(raw, 16)
        .map(f64::from_bits)
        .map_err(|_| {
            RtError::InvalidConfig(format!("checkpoint: field `{field}` is not hex f64 bits"))
        })
}

/// Encodes a slice of `f64`s as a JSON array of [`f64_to_json`] strings.
pub fn f64s_to_json(vs: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, &v) in vs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&f64_to_json(v));
    }
    out.push(']');
    out
}

/// Looks up a required field written by [`f64s_to_json`].
///
/// # Errors
/// [`RtError::InvalidConfig`] when the field is absent or any element is
/// not a hex bit pattern.
pub fn require_f64s(obj: &qmkp_obs::json::Json, field: &str) -> Result<Vec<f64>, RtError> {
    let arr = require(obj, field)?.as_array().ok_or_else(|| {
        RtError::InvalidConfig(format!("checkpoint: field `{field}` is not an array"))
    })?;
    arr.iter()
        .map(|v| {
            v.as_str()
                .and_then(|raw| u64::from_str_radix(raw, 16).ok())
                .map(f64::from_bits)
                .ok_or_else(|| {
                    RtError::InvalidConfig(format!(
                        "checkpoint: field `{field}` holds a non-hex element"
                    ))
                })
        })
        .collect()
}

/// Encodes a boolean vector as a JSON string of `0`/`1` characters.
pub fn bools_to_json(bits: &[bool]) -> String {
    let mut out = String::with_capacity(bits.len() + 2);
    out.push('"');
    for &b in bits {
        out.push(if b { '1' } else { '0' });
    }
    out.push('"');
    out
}

/// Looks up a required field written by [`bools_to_json`].
///
/// # Errors
/// [`RtError::InvalidConfig`] when the field is absent or contains
/// characters other than `0`/`1`.
pub fn require_bools(obj: &qmkp_obs::json::Json, field: &str) -> Result<Vec<bool>, RtError> {
    let raw = require(obj, field)?.as_str().ok_or_else(|| {
        RtError::InvalidConfig(format!("checkpoint: field `{field}` is not a string"))
    })?;
    raw.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            _ => Err(RtError::InvalidConfig(format!(
                "checkpoint: field `{field}` is not a 0/1 string"
            ))),
        })
        .collect()
}

/// Parses a checkpoint payload into a JSON object.
///
/// # Errors
/// [`RtError::InvalidConfig`] when the payload is not a JSON object.
pub fn parse_object(s: &str) -> Result<qmkp_obs::json::Json, RtError> {
    let json = qmkp_obs::json::parse(s)
        .map_err(|e| RtError::InvalidConfig(format!("checkpoint: malformed JSON: {e}")))?;
    if json.as_object().is_none() {
        return Err(RtError::InvalidConfig(
            "checkpoint: payload is not a JSON object".into(),
        ));
    }
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq)]
    struct Demo {
        lo: u64,
        hi: u64,
    }

    impl Checkpoint for Demo {
        fn to_json(&self) -> String {
            format!("{{\"lo\": {}, \"hi\": {}}}", self.lo, self.hi)
        }

        fn from_json(s: &str) -> Result<Self, RtError> {
            let obj = parse_object(s)?;
            Ok(Demo {
                lo: require_u64(&obj, "lo")?,
                hi: require_u64(&obj, "hi")?,
            })
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let c = Demo { lo: 3, hi: 17 };
        assert_eq!(Demo::from_json(&c.to_json()), Ok(c));
    }

    #[test]
    fn malformed_payloads_surface_structured_errors() {
        assert!(matches!(
            Demo::from_json("not json"),
            Err(RtError::InvalidConfig(_))
        ));
        assert!(matches!(
            Demo::from_json("[1, 2]"),
            Err(RtError::InvalidConfig(_))
        ));
        assert!(matches!(
            Demo::from_json("{\"lo\": 1}"),
            Err(RtError::InvalidConfig(msg)) if msg.contains("hi")
        ));
        assert!(matches!(
            Demo::from_json("{\"lo\": 1.5, \"hi\": 2}"),
            Err(RtError::InvalidConfig(_))
        ));
    }

    #[test]
    fn f64_bits_and_bools_round_trip() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, 0.1 + 0.2, f64::INFINITY] {
            let obj = parse_object(&format!("{{\"v\": {}}}", f64_to_json(v))).unwrap();
            assert_eq!(require_f64_bits(&obj, "v").unwrap().to_bits(), v.to_bits());
        }
        let bits = vec![true, false, false, true, true];
        let obj = parse_object(&format!("{{\"b\": {}}}", bools_to_json(&bits))).unwrap();
        assert_eq!(require_bools(&obj, "b").unwrap(), bits);
        let obj = parse_object("{\"b\": \"01x\"}").unwrap();
        assert!(require_bools(&obj, "b").is_err());
    }

    #[test]
    fn interrupted_carries_error_and_checkpoint() {
        let i = Interrupted::new(RtError::Cancelled, Demo { lo: 0, hi: 9 });
        assert_eq!(i.error, RtError::Cancelled);
        assert_eq!(i.checkpoint.hi, 9);
        let shown = format!("{i}");
        assert!(shown.contains("interrupted"));
    }
}
