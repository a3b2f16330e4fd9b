//! The workspace's one persistence idiom for small state files.
//!
//! A framed file is two lines:
//!
//! ```text
//! <magic> v<N> <fnv64-of-payload, 16 hex digits>
//! { ...payload JSON on one line... }
//! ```
//!
//! [`save`] writes it to a temp file beside the target, fsyncs, and
//! renames it into place, so a crash mid-write leaves the previous file
//! intact. [`load`] reads it back and checks the magic, the version and
//! the checksum before parsing; every failure is a typed [`Rejection`],
//! never a panic. `serve::store` (per-project analysis state) and the
//! campaign journal ([`crate::campaign`]) both persist through it; each
//! owns its magic, version and payload schema.

use alias::fingerprint::fnv64;
use proto::json::Value;
use proto::{fp_hex, parse_fp_hex};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Why [`load`] refused a file that exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The file could not be read (the I/O error).
    Unreadable(String),
    /// No newline after the header, so no payload line.
    Truncated,
    /// The header is not `<magic> v<N> <checksum>` (the header seen).
    BadHeader(String),
    /// The file was written by another format version.
    Version {
        /// The version field the file carries.
        found: String,
        /// The version this reader speaks.
        want: u32,
    },
    /// The checksum field is not 16 hex digits (the field seen).
    BadChecksum(String),
    /// The payload does not hash to the recorded checksum: corrupt or
    /// truncated.
    ChecksumMismatch,
    /// The payload is not JSON (the parse error).
    Malformed(String),
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::Unreadable(e) => write!(f, "unreadable: {e}"),
            Rejection::Truncated => f.write_str("truncated: no payload line"),
            Rejection::BadHeader(h) => write!(f, "bad header {h:?}"),
            Rejection::Version { found, want } => {
                write!(f, "version mismatch: file is {found}, want v{want}")
            }
            Rejection::BadChecksum(c) => write!(f, "bad checksum field {c:?}"),
            Rejection::ChecksumMismatch => {
                f.write_str("checksum mismatch (corrupt or truncated payload)")
            }
            Rejection::Malformed(e) => write!(f, "malformed payload: {e}"),
        }
    }
}

/// Writes `bytes` to `path` atomically: a `<path>.tmp` sibling is
/// written, fsynced, and renamed over `path`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = PathBuf::from(path).into_os_string();
    tmp.push(".tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Persists `payload` (one line of JSON) framed under `magic` and
/// `version`, atomically.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn save(path: &Path, magic: &str, version: u32, payload: &str) -> std::io::Result<()> {
    let header = format!("{magic} v{version} {}", fp_hex(fnv64(payload.as_bytes())));
    atomic_write(path, format!("{header}\n{payload}\n").as_bytes())
}

/// Loads and verifies a framed file. `Ok(None)` when there is no file;
/// the parsed payload when the magic, version and checksum all check
/// out.
///
/// # Errors
///
/// The [`Rejection`] of an unusable file.
pub fn load(path: &Path, magic: &str, version: u32) -> Result<Option<Value>, Rejection> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(Rejection::Unreadable(e.to_string())),
    };
    let (header, payload) = text.split_once('\n').ok_or(Rejection::Truncated)?;
    let fields: Vec<&str> = header.split(' ').collect();
    if fields.len() != 3 || fields[0] != magic {
        return Err(Rejection::BadHeader(header.to_string()));
    }
    if fields[1] != format!("v{version}") {
        return Err(Rejection::Version {
            found: fields[1].to_string(),
            want: version,
        });
    }
    let expected =
        parse_fp_hex(fields[2]).ok_or_else(|| Rejection::BadChecksum(fields[2].to_string()))?;
    let payload = payload.trim_end_matches('\n');
    if fnv64(payload.as_bytes()) != expected {
        return Err(Rejection::ChecksumMismatch);
    }
    Value::parse(payload)
        .map(Some)
        .map_err(|e| Rejection::Malformed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framed_files_round_trip_and_reject_damage() {
        let dir = std::env::temp_dir().join(format!("ruf95-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        assert_eq!(load(&path, "m", 3), Ok(None));
        save(&path, "m", 3, "{\"k\": 1}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            format!("m v3 {}\n{{\"k\": 1}}\n", fp_hex(fnv64(b"{\"k\": 1}")))
        );
        assert!(matches!(load(&path, "m", 3), Ok(Some(_))));
        assert_eq!(
            load(&path, "m", 4),
            Err(Rejection::Version {
                found: "v3".into(),
                want: 4
            })
        );
        assert!(matches!(
            load(&path, "other", 3),
            Err(Rejection::BadHeader(_))
        ));
        for (bytes, want) in [
            ("m v3", Rejection::Truncated),
            ("m v3 nothex\n{}\n", Rejection::BadChecksum("nothex".into())),
            ("m v3 0000000000000000\n{}\n", Rejection::ChecksumMismatch),
        ] {
            std::fs::write(&path, bytes).unwrap();
            assert_eq!(load(&path, "m", 3), Err(want), "{bytes:?}");
        }
        let not_json = format!("m v3 {}\nnot json\n", fp_hex(fnv64(b"not json")));
        std::fs::write(&path, not_json).unwrap();
        assert!(matches!(load(&path, "m", 3), Err(Rejection::Malformed(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
