//! A tiny hand-rolled JSON emitter for structured run reports.
//!
//! The workspace builds offline with no serialization dependency, so
//! reports are assembled with this writer instead. It produces one
//! compact JSON object per call — one line of a JSON-lines record
//! file, which [`crate::json::Json::parse`] reads back.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Builds one JSON object, field by field, in insertion order.
#[derive(Debug, Clone)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    /// An empty object (`{}` until fields are added).
    pub fn new() -> JsonObject {
        JsonObject {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        push_json_string(&mut self.buf, name);
        self.buf.push(':');
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, name: &str, value: &str) -> Self {
        self.key(name);
        push_json_string(&mut self.buf, value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, name: &str, value: u64) -> Self {
        self.key(name);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Adds a float field (JSON `null` when non-finite).
    pub fn f64(mut self, name: &str, value: f64) -> Self {
        self.key(name);
        if value.is_finite() {
            self.buf.push_str(&format!("{value:.6}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, name: &str, value: bool) -> Self {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-rendered JSON (object,
    /// array, …). The caller vouches for its validity.
    pub fn raw(mut self, name: &str, json: &str) -> Self {
        self.key(name);
        self.buf.push_str(json);
        self
    }

    /// Adds an array of `(label, count)` pairs rendered as
    /// `[[label, count], ...]` — the histogram wire format.
    pub fn pairs(mut self, name: &str, pairs: &[(u64, u64)]) -> Self {
        self.key(name);
        self.buf.push('[');
        for (i, (a, b)) in pairs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&format!("[{a},{b}]"));
        }
        self.buf.push(']');
        self
    }

    /// Adds an array of unsigned integers.
    pub fn u64_array(mut self, name: &str, values: &[u64]) -> Self {
        self.key(name);
        self.buf.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&v.to_string());
        }
        self.buf.push(']');
        self
    }

    /// Finishes the object and returns the JSON text (single line).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

fn push_json_string(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => buf.push_str(&format!("\\u{:04x}", c as u32)),
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Writes `lines` to `path` as a JSON-lines file: each line followed
/// by `\n`, nothing else. Every run report in the workspace leaves
/// through here.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing `path`.
pub fn write_jsonl<L: AsRef<str>>(
    path: &Path,
    lines: impl IntoIterator<Item = L>,
) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for line in lines {
        w.write_all(line.as_ref().as_bytes())?;
        w.write_all(b"\n")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(miri, ignore = "writes a file")]
    fn jsonl_file_is_the_lines_each_ended_by_a_newline() {
        let dir = std::env::temp_dir().join(format!("era_obs_jsonl_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let lines = [JsonObject::new().u64("n", 1).finish(), "{}".to_string()];
        write_jsonl(&path, &lines).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"n\":1}\n{}\n");
        write_jsonl(&path, [""; 0]).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn object_renders_in_order_with_escapes() {
        let json = JsonObject::new()
            .str("name", "a\"b\\c\nd")
            .u64("n", 42)
            .f64("rate", 1.5)
            .f64("bad", f64::NAN)
            .bool("ok", true)
            .raw("nested", "{\"x\":1}")
            .u64_array("xs", &[1, 2, 3])
            .finish();
        assert_eq!(
            json,
            "{\"name\":\"a\\\"b\\\\c\\nd\",\"n\":42,\"rate\":1.500000,\"bad\":null,\
             \"ok\":true,\"nested\":{\"x\":1},\"xs\":[1,2,3]}"
        );
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
