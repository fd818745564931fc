//! Trace import/export as CSV — lets external tools generate workloads or
//! analyze ours, and lets an interesting generated trace be frozen into a
//! regression fixture.
//!
//! Column format (header required):
//!
//! ```text
//! id,arrival_us,deadline_us,cylinder,bytes,kind,qos,stream
//! 0,12500,512500,1200,65536,read,2|0|5,17
//! ```
//!
//! `deadline_us` may be `inf` for relaxed requests; `qos` is a
//! `|`-separated level list (empty for none); `stream` is the stream/user
//! the request belongs to. Traces written before the `stream` column
//! existed (the 7-column header) still parse: their requests default to
//! `stream = id`, matching [`sched::Request::read`].

use crate::Trace;
use sched::{Micros, OpKind, QosVector, Request};

/// A parse failure with its line number (1-based, counting the header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// Line where parsing failed.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// Serialize a trace to CSV (with header).
pub fn to_csv(trace: &Trace) -> String {
    let mut out = String::from("id,arrival_us,deadline_us,cylinder,bytes,kind,qos,stream\n");
    for r in trace {
        let deadline = if r.deadline_us == Micros::MAX {
            "inf".to_string()
        } else {
            r.deadline_us.to_string()
        };
        let kind = match r.kind {
            OpKind::Read => "read",
            OpKind::Write => "write",
        };
        let qos: Vec<String> = r.qos.levels().iter().map(|l| l.to_string()).collect();
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            r.id,
            r.arrival_us,
            deadline,
            r.cylinder,
            r.bytes,
            kind,
            qos.join("|"),
            r.stream
        ));
    }
    out
}

/// Parse a CSV trace produced by [`to_csv`] (or by external tooling).
pub fn from_csv(text: &str) -> Result<Trace, TraceParseError> {
    let err = |line: usize, message: String| TraceParseError { line, message };
    let mut lines = text.lines().enumerate();
    let has_stream = match lines.next() {
        Some((_, header))
            if header.trim() == "id,arrival_us,deadline_us,cylinder,bytes,kind,qos,stream" =>
        {
            true
        }
        Some((_, header))
            if header.trim() == "id,arrival_us,deadline_us,cylinder,bytes,kind,qos" =>
        {
            false
        }
        Some((_, other)) => {
            return Err(err(1, format!("unexpected header {other:?}")));
        }
        None => return Ok(Vec::new()),
    };
    let expected_fields = if has_stream { 8 } else { 7 };
    let mut trace = Vec::new();
    for (i, raw) in lines {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != expected_fields {
            return Err(err(
                line_no,
                format!("expected {expected_fields} fields, got {}", fields.len()),
            ));
        }
        let parse_u64 = |s: &str, what: &str| {
            s.parse::<u64>()
                .map_err(|_| err(line_no, format!("bad {what} {s:?}")))
        };
        let id = parse_u64(fields[0], "id")?;
        let arrival_us = parse_u64(fields[1], "arrival")?;
        let deadline_us = if fields[2] == "inf" {
            Micros::MAX
        } else {
            parse_u64(fields[2], "deadline")?
        };
        let cylinder = fields[3]
            .parse::<u32>()
            .map_err(|_| err(line_no, format!("bad cylinder {:?}", fields[3])))?;
        let bytes = parse_u64(fields[4], "bytes")?;
        let kind = match fields[5] {
            "read" => OpKind::Read,
            "write" => OpKind::Write,
            other => return Err(err(line_no, format!("bad kind {other:?}"))),
        };
        let qos = if fields[6].is_empty() {
            QosVector::none()
        } else {
            let mut levels = Vec::new();
            for part in fields[6].split('|') {
                levels.push(
                    part.parse::<u8>()
                        .map_err(|_| err(line_no, format!("bad qos level {part:?}")))?,
                );
            }
            if levels.len() > sched::MAX_QOS_DIMS {
                return Err(err(
                    line_no,
                    format!("too many qos dimensions ({})", levels.len()),
                ));
            }
            QosVector::new(&levels)
        };
        let stream = if has_stream {
            parse_u64(fields[7], "stream")?
        } else {
            id
        };
        trace.push(Request {
            id,
            arrival_us,
            deadline_us,
            cylinder,
            bytes,
            qos,
            kind,
            stream,
        });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NewsByteConfig, PoissonConfig};

    #[test]
    fn roundtrip_poisson() {
        let trace: Vec<_> = PoissonConfig::figure8(200).generate(5).collect();
        let csv = to_csv(&trace);
        let back = from_csv(&csv).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn roundtrip_newsbyte_with_writes_and_relaxed() {
        let mut trace: Vec<_> = NewsByteConfig::paper(70).generate(6).collect();
        trace.truncate(300);
        // Mix in a relaxed, QoS-less request.
        trace[0].deadline_us = u64::MAX;
        trace[1].qos = QosVector::none();
        let back = from_csv(&to_csv(&trace)).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let good_header = "id,arrival_us,deadline_us,cylinder,bytes,kind,qos\n";
        for (body, needle) in [
            ("1,2,3,4,5,read\n", "expected 7 fields"),
            ("x,2,3,4,5,read,0\n", "bad id"),
            ("1,2,3,4,5,append,0\n", "bad kind"),
            ("1,2,3,4,5,read,9|x\n", "bad qos"),
        ] {
            let e = from_csv(&format!("{good_header}{body}")).unwrap_err();
            assert_eq!(e.line, 2, "{body:?}");
            assert!(e.message.contains(needle), "{body:?} -> {e}");
        }
        let e = from_csv("nope\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn empty_input_is_an_empty_trace() {
        assert!(from_csv("").unwrap().is_empty());
        assert!(
            from_csv("id,arrival_us,deadline_us,cylinder,bytes,kind,qos\n")
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn stream_column_roundtrips_and_legacy_defaults_to_id() {
        let trace: Vec<_> = NewsByteConfig::paper(70).generate(6).collect();
        // The generator assigns real per-user stream ids distinct from the
        // (reassigned) request ids, so a roundtrip proves the column.
        assert!(trace.iter().any(|r| r.stream != r.id));
        let back = from_csv(&to_csv(&trace)).unwrap();
        assert_eq!(trace, back);

        // A pre-stream trace parses with stream defaulting to id.
        let legacy = "id,arrival_us,deadline_us,cylinder,bytes,kind,qos\n\
                      7,2,3,4,5,read,0\n";
        let t = from_csv(legacy).unwrap();
        assert_eq!(t[0].stream, 7);
    }
}
