//! A textual scheduler specification — the paper's fourth advantage of
//! SFC-based scheduling (§1): *"the ability to automate the scheduler
//! development process in a fashion similar to automatic generation of
//! programming language compilers."* Instead of coding a scheduler, you
//! describe one:
//!
//! ```text
//! sfc1 = diagonal : dims=3, levels=16
//! sfc2 = weighted : f=1, horizon=1s
//! sfc3 = r=3 : cylinders=3832
//! dispatch = conditional : w=10%, sp, er=2
//! ```
//!
//! Grammar (one `key = value` clause per line or `;`-separated):
//!
//! * `sfc1 = <curve> : dims=<n>, levels=<n>` — omit the line to skip SFC1;
//! * `sfc2 = weighted : f=<x>, horizon=<dur>` or
//!   `sfc2 = <curve> : horizon=<dur>[, bits=<n>]` — omit to skip SFC2;
//! * `sfc3 = r=<n> : cylinders=<n>[, bits=<n>][, circular]` — omit to skip;
//! * `dispatch = fully | batch | conditional : w=<pct>%[, sp][, er=<e>]`
//!   (default: the paper's conditional dispatcher).
//!
//! Durations accept `us`, `ms`, `s` suffixes. Curve names are the
//! [`sfc::CurveKind`] names.

use crate::config::{
    CascadeConfig, DispatchConfig, DistanceMode, PreemptionMode, Stage1, Stage2, Stage2Combiner,
    Stage3,
};
use sched::Micros;
use sfc::CurveKind;

/// A parse failure, with the offending clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What went wrong.
    pub message: String,
    /// The clause being parsed when it did.
    pub clause: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (in clause {:?})", self.message, self.clause)
    }
}

impl std::error::Error for SpecError {}

fn err(message: impl Into<String>, clause: &str) -> SpecError {
    SpecError {
        message: message.into(),
        clause: clause.to_string(),
    }
}

/// Parse a scheduler specification into a [`CascadeConfig`].
pub fn parse(spec: &str) -> Result<CascadeConfig, SpecError> {
    let mut config = CascadeConfig {
        stage1: None,
        stage2: None,
        stage3: None,
        dispatch: DispatchConfig::paper_default(),
    };
    for raw in spec.split(['\n', ';']) {
        let clause = raw.split('#').next().unwrap_or("").trim();
        if clause.is_empty() {
            continue;
        }
        let (key, rest) = clause
            .split_once('=')
            .ok_or_else(|| err("expected `key = value`", clause))?;
        let rest = rest.trim();
        match key.trim() {
            "sfc1" => config.stage1 = Some(parse_stage1(rest, clause)?),
            "sfc2" => config.stage2 = Some(parse_stage2(rest, clause)?),
            "sfc3" => config.stage3 = Some(parse_stage3(rest, clause)?),
            "dispatch" => config.dispatch = parse_dispatch(rest, clause)?,
            other => return Err(err(format!("unknown section {other:?}"), clause)),
        }
    }
    Ok(config)
}

/// Split `head : k=v, k, …` into the head and its options.
fn head_and_opts(rest: &str) -> (&str, Vec<&str>) {
    match rest.split_once(':') {
        Some((head, opts)) => (
            head.trim(),
            opts.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect(),
        ),
        None => (rest.trim(), Vec::new()),
    }
}

fn opt_value<'a>(opt: &'a str, key: &str) -> Option<&'a str> {
    let (k, v) = opt.split_once('=')?;
    (k.trim() == key).then_some(v.trim())
}

fn parse_u32(v: &str, clause: &str) -> Result<u32, SpecError> {
    v.parse()
        .map_err(|_| err(format!("bad integer {v:?}"), clause))
}

fn parse_duration_us(v: &str, clause: &str) -> Result<Micros, SpecError> {
    let (num, mult) = if let Some(n) = v.strip_suffix("us") {
        (n, 1)
    } else if let Some(n) = v.strip_suffix("ms") {
        (n, 1_000)
    } else if let Some(n) = v.strip_suffix('s') {
        (n, 1_000_000)
    } else {
        (v, 1) // bare numbers are µs
    };
    let x: f64 = num
        .trim()
        .parse()
        .map_err(|_| err(format!("bad duration {v:?}"), clause))?;
    if !(x.is_finite() && x >= 0.0) {
        return Err(err(format!("bad duration {v:?}"), clause));
    }
    Ok((x * mult as f64).round() as Micros)
}

fn parse_stage1(rest: &str, clause: &str) -> Result<Stage1, SpecError> {
    let (head, opts) = head_and_opts(rest);
    let curve =
        CurveKind::parse(head).ok_or_else(|| err(format!("unknown curve {head:?}"), clause))?;
    let mut dims = 1u32;
    let mut level_bits = 4u32;
    for opt in opts {
        if let Some(v) = opt_value(opt, "dims") {
            dims = parse_u32(v, clause)?;
        } else if let Some(v) = opt_value(opt, "levels") {
            let levels = parse_u32(v, clause)?;
            if !levels.is_power_of_two() || levels < 2 {
                return Err(err(
                    format!("levels must be a power of two >= 2, got {levels}"),
                    clause,
                ));
            }
            level_bits = levels.trailing_zeros();
        } else {
            return Err(err(format!("unknown sfc1 option {opt:?}"), clause));
        }
    }
    Ok(Stage1 {
        curve,
        dims,
        level_bits,
    })
}

fn parse_stage2(rest: &str, clause: &str) -> Result<Stage2, SpecError> {
    let (head, opts) = head_and_opts(rest);
    let mut horizon_us: Micros = 1_000_000;
    let mut resolution_bits = 10u32;
    let mut f = 1.0f64;
    for opt in &opts {
        if let Some(v) = opt_value(opt, "f") {
            f = v.parse().map_err(|_| err(format!("bad f {v:?}"), clause))?;
        } else if let Some(v) = opt_value(opt, "horizon") {
            horizon_us = parse_duration_us(v, clause)?;
        } else if let Some(v) = opt_value(opt, "bits") {
            resolution_bits = parse_u32(v, clause)?;
        } else {
            return Err(err(format!("unknown sfc2 option {opt:?}"), clause));
        }
    }
    let combiner = if head == "weighted" {
        if !(f.is_finite() && f >= 0.0) {
            return Err(err("f must be finite and >= 0", clause));
        }
        Stage2Combiner::Weighted { f }
    } else {
        let curve = CurveKind::parse(head)
            .ok_or_else(|| err(format!("unknown sfc2 combiner {head:?}"), clause))?;
        Stage2Combiner::Curve(curve)
    };
    Ok(Stage2 {
        combiner,
        horizon_us,
        resolution_bits,
    })
}

fn parse_stage3(rest: &str, clause: &str) -> Result<Stage3, SpecError> {
    let (head, opts) = head_and_opts(rest);
    let partitions = opt_value(head, "r")
        .map(|v| parse_u32(v, clause))
        .transpose()?
        .ok_or_else(|| err("sfc3 head must be `r=<n>`", clause))?;
    if partitions == 0 {
        return Err(err("r must be >= 1", clause));
    }
    let mut cylinders = 0u32;
    let mut resolution_bits = 10u32;
    let mut distance = DistanceMode::Absolute;
    for opt in opts {
        if let Some(v) = opt_value(opt, "cylinders") {
            cylinders = parse_u32(v, clause)?;
        } else if let Some(v) = opt_value(opt, "bits") {
            resolution_bits = parse_u32(v, clause)?;
        } else if opt == "circular" {
            distance = DistanceMode::Circular;
        } else if opt == "absolute" {
            distance = DistanceMode::Absolute;
        } else {
            return Err(err(format!("unknown sfc3 option {opt:?}"), clause));
        }
    }
    if cylinders == 0 {
        return Err(err("sfc3 needs `cylinders=<n>`", clause));
    }
    Ok(Stage3 {
        partitions,
        resolution_bits,
        cylinders,
        distance,
    })
}

fn parse_dispatch(rest: &str, clause: &str) -> Result<DispatchConfig, SpecError> {
    let (head, opts) = head_and_opts(rest);
    let mut serve_promote = false;
    let mut expand_factor = None;
    let mut window = 0.10f64;
    for opt in &opts {
        if *opt == "sp" {
            serve_promote = true;
        } else if let Some(v) = opt_value(opt, "er") {
            let e: f64 = v
                .parse()
                .map_err(|_| err(format!("bad er factor {v:?}"), clause))?;
            if !(e.is_finite() && e > 1.0) {
                return Err(err("er factor must be > 1", clause));
            }
            expand_factor = Some(e);
        } else if let Some(v) = opt_value(opt, "w") {
            let v = v.strip_suffix('%').unwrap_or(v);
            let pct: f64 = v
                .parse()
                .map_err(|_| err(format!("bad window {v:?}"), clause))?;
            if !(0.0..=100.0).contains(&pct) {
                return Err(err("window must be 0-100%", clause));
            }
            window = pct / 100.0;
        } else {
            return Err(err(format!("unknown dispatch option {opt:?}"), clause));
        }
    }
    let mode = match head {
        "fully" => PreemptionMode::Fully,
        "batch" | "non-preemptive" => PreemptionMode::NonPreemptive,
        "conditional" => PreemptionMode::Conditional { window },
        other => return Err(err(format!("unknown dispatch mode {other:?}"), clause)),
    };
    Ok(DispatchConfig {
        mode,
        serve_promote,
        expand_factor,
        refresh_on_swap: !matches!(mode, PreemptionMode::Fully),
        max_queue: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CascadedSfc;

    const PAPER_SPEC: &str = "
        sfc1 = diagonal : dims=3, levels=16
        sfc2 = weighted : f=1, horizon=1s
        sfc3 = r=3 : cylinders=3832
        dispatch = conditional : w=10%, sp, er=2
    ";

    #[test]
    fn parses_the_paper_configuration() {
        let cfg = parse(PAPER_SPEC).unwrap();
        let s1 = cfg.stage1.unwrap();
        assert_eq!(s1.curve, CurveKind::Diagonal);
        assert_eq!(s1.dims, 3);
        assert_eq!(s1.level_bits, 4);
        let s2 = cfg.stage2.unwrap();
        assert!(matches!(s2.combiner, Stage2Combiner::Weighted { f } if f == 1.0));
        assert_eq!(s2.horizon_us, 1_000_000);
        let s3 = cfg.stage3.unwrap();
        assert_eq!(s3.partitions, 3);
        assert_eq!(s3.cylinders, 3832);
        assert_eq!(
            cfg.dispatch.mode,
            PreemptionMode::Conditional { window: 0.10 }
        );
        assert!(cfg.dispatch.serve_promote);
        assert_eq!(cfg.dispatch.expand_factor, Some(2.0));
        // And the whole thing builds into a live scheduler.
        assert!(CascadedSfc::new(cfg).is_ok());
    }

    #[test]
    fn semicolon_and_comment_syntax() {
        let cfg = parse("sfc1 = hilbert : dims=2 # locality\n; dispatch = fully").unwrap();
        assert_eq!(cfg.stage1.unwrap().curve, CurveKind::Hilbert);
        assert_eq!(cfg.dispatch.mode, PreemptionMode::Fully);
        assert!(cfg.stage2.is_none());
        assert!(cfg.stage3.is_none());
    }

    #[test]
    fn durations_parse_in_three_units() {
        let a = parse("sfc2 = weighted : horizon=250ms").unwrap();
        assert_eq!(a.stage2.unwrap().horizon_us, 250_000);
        let b = parse("sfc2 = weighted : horizon=700000us").unwrap();
        assert_eq!(b.stage2.unwrap().horizon_us, 700_000);
        let c = parse("sfc2 = weighted : horizon=2s").unwrap();
        assert_eq!(c.stage2.unwrap().horizon_us, 2_000_000);
    }

    #[test]
    fn curve_combiner_for_sfc2() {
        let cfg = parse("sfc2 = gray : horizon=150ms, bits=8").unwrap();
        let s2 = cfg.stage2.unwrap();
        assert!(matches!(
            s2.combiner,
            Stage2Combiner::Curve(CurveKind::Gray)
        ));
        assert_eq!(s2.resolution_bits, 8);
    }

    #[test]
    fn circular_distance_flag() {
        let cfg = parse("sfc3 = r=1 : cylinders=100, circular").unwrap();
        assert_eq!(cfg.stage3.unwrap().distance, DistanceMode::Circular);
    }

    #[test]
    fn error_cases_are_reported_with_their_clause() {
        for bad in [
            "nonsense",
            "sfc1 = klein : dims=2",
            "sfc1 = diagonal : levels=10", // not a power of two
            "sfc2 = weighted : f=-1",
            "sfc3 = r=0 : cylinders=10",
            "sfc3 = r=2", // missing cylinders
            "dispatch = sometimes",
            "dispatch = conditional : w=200%",
            "dispatch = conditional : er=0.5",
            "sfc3 = banana : cylinders=5",
        ] {
            let e = parse(bad).unwrap_err();
            assert!(!e.clause.is_empty(), "{bad:?} produced {e}");
        }
    }

    /// Specs whose stage arithmetic would overflow `u128` parse, and are
    /// refused when built instead of wrapping (or panicking, in a debug
    /// build): a 128-bit stage-2 or stage-3 grid, a stage-3 sweep whose
    /// corner overflows, a balance factor whose composite does.
    #[test]
    fn overflowing_stages_are_refused_when_built() {
        for spec in [
            "sfc2 = weighted : f=1, bits=128",
            "sfc3 = r=3 : cylinders=100, bits=128",
            "sfc3 = r=3 : cylinders=100, bits=127",
            "sfc2 = weighted : f=1e300",
        ] {
            let built = CascadedSfc::new(parse(spec).unwrap());
            assert!(
                matches!(built, Err(sfc::SfcError::TooLarge { .. })),
                "{spec}"
            );
        }
    }

    #[test]
    fn empty_spec_is_the_bare_dispatcher() {
        let cfg = parse("").unwrap();
        assert!(cfg.stage1.is_none() && cfg.stage2.is_none() && cfg.stage3.is_none());
        assert_eq!(cfg.dispatch, DispatchConfig::paper_default());
    }
}
