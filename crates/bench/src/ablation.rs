//! Ablation of the dispatcher policies of §3: fully-preemptive vs.
//! non-preemptive vs. conditionally-preemptive, and the contribution of
//! the SP (Serve-and-Promote) and ER (Expand-and-Reset) refinements.
//!
//! Two scenarios:
//!
//! * **mixed load** — the Figure-5 workload; reports priority inversion
//!   (% of FIFO) and the maximum response time. Shows the paper's §3.1
//!   trade-off: fully-preemptive minimizes inversion but stretches the
//!   response tail; non-preemptive bounds the tail but inverts across
//!   batch boundaries; the conditional window sits in between, SP
//!   recovering most of the inversion the window costs.
//! * **adversarial stream** — a sustained stream of highest-priority
//!   requests with a few low-priority victims mixed in (§3.3's
//!   starvation construction). Without ER the victims' completion under
//!   the fully-preemptive dispatcher is delayed until the stream ends;
//!   ER expands the window until the scheduler turns effectively
//!   non-preemptive, bounding the victims' wait.

use crate::fig5::run_fifo;
use cascade::{CascadeConfig, CascadedSfc, DispatchConfig, PreemptionMode};
use sched::{Micros, QosVector, Request};
use sfc::CurveKind;
use sim::{simulate, Metrics, SimOptions, TransferDominated};
use workload::PoissonConfig;

/// The dispatcher variants under study.
pub fn variants() -> Vec<(&'static str, DispatchConfig)> {
    let conditional = |sp: bool, er: Option<f64>| DispatchConfig {
        mode: PreemptionMode::Conditional { window: 0.10 },
        serve_promote: sp,
        expand_factor: er,
        refresh_on_swap: false,
        max_queue: None,
    };
    vec![
        ("fully-preemptive", DispatchConfig::fully_preemptive()),
        (
            "non-preemptive",
            DispatchConfig::non_preemptive().without_refresh(),
        ),
        ("conditional", conditional(false, None)),
        ("conditional+sp", conditional(true, None)),
        ("conditional+sp+er", conditional(true, Some(2.0))),
    ]
}

/// One measured point of the mixed-load scenario.
#[derive(Debug, Clone)]
pub struct MixedRow {
    /// Dispatcher variant.
    pub variant: &'static str,
    /// Priority inversion as % of FIFO.
    pub inversion_pct_of_fifo: f64,
    /// Largest response time (ms).
    pub max_response_ms: f64,
    /// Dispatcher counters: (preemptions, promotions, swaps).
    pub counters: (u64, u64, u64),
}

fn scheduler_with(dispatch: DispatchConfig) -> CascadedSfc {
    CascadedSfc::new(
        CascadeConfig::priority_only(CurveKind::Diagonal, 3, 4).with_dispatch(dispatch),
    )
    .expect("valid cascade config")
}

/// Run the mixed-load scenario.
pub fn mixed_load(seed: u64, requests: usize) -> Vec<MixedRow> {
    let trace = PoissonConfig::figure5(3, requests).generate(seed);
    let base = run_fifo(&trace, 3, 20_000).inversions_total().max(1) as f64;
    variants()
        .into_iter()
        .map(|(name, dispatch)| {
            let mut s = scheduler_with(dispatch);
            let mut service = TransferDominated::uniform(20_000, 3832);
            let m = simulate(&mut s, &trace, &mut service, SimOptions::with_shape(3, 16));
            MixedRow {
                variant: name,
                inversion_pct_of_fifo: m.inversions_total() as f64 / base * 100.0,
                max_response_ms: m.max_response_us as f64 / 1000.0,
                counters: s.dispatch_counters(),
            }
        })
        .collect()
}

/// The §3.3 adversarial construction: a long stream of top-priority
/// requests arriving faster than service, with low-priority victims
/// planted at the start.
pub fn adversarial_trace(stream_len: u64, service_us: Micros) -> Vec<Request> {
    let mut trace = Vec::new();
    // Victims arrive first.
    for id in 0..5u64 {
        trace.push(Request::read(
            id,
            id, // effectively t = 0
            u64::MAX,
            1000,
            512,
            QosVector::new(&[15, 15, 15]),
        ));
    }
    // High-priority stream, one arrival per service slot: the disk never
    // goes idle and a preemptive dispatcher never reaches the victims.
    for k in 0..stream_len {
        trace.push(Request::read(
            5 + k,
            10 + k * service_us,
            u64::MAX,
            2000,
            512,
            QosVector::new(&[0, 0, 0]),
        ));
    }
    trace
}

/// Largest response time (ms) of the *victim* (low-priority) requests.
pub fn victim_wait_ms(dispatch: DispatchConfig, stream_len: u64) -> f64 {
    let service_us: Micros = 10_000;
    let trace = adversarial_trace(stream_len, service_us);
    let mut s = scheduler_with(dispatch);
    let mut service = TransferDominated::uniform(service_us, 3832);
    let m: Metrics = simulate(&mut s, &trace, &mut service, SimOptions::with_shape(3, 16));
    // All requests complete; the max response is the victims' (the stream
    // itself is served at arrival pace).
    m.max_response_us as f64 / 1000.0
}

/// One point of the (window, expansion) tuning map.
#[derive(Debug, Clone)]
pub struct TuningRow {
    /// Blocking window as a fraction of the space.
    pub window: f64,
    /// ER expansion factor (`None` = ER off).
    pub er: Option<f64>,
    /// Priority inversion as % of FIFO (mixed load).
    pub inversion_pct_of_fifo: f64,
    /// Victim wait (ms) under the adversarial stream of 400 requests.
    pub victim_wait_ms: f64,
}

/// Sweep the conditional dispatcher's two tuning knobs: the window `w`
/// and the ER expansion factor `e` (SP always on, as the paper proposes).
pub fn tuning_sweep(seed: u64, requests: usize) -> Vec<TuningRow> {
    let windows = [0.0, 0.05, 0.10, 0.20, 0.40];
    let ers = [None, Some(1.5), Some(2.0), Some(4.0)];
    let trace = PoissonConfig::figure5(3, requests).generate(seed);
    let base = run_fifo(&trace, 3, 20_000).inversions_total().max(1) as f64;

    let mut rows = Vec::new();
    for &window in &windows {
        for &er in &ers {
            let dispatch = DispatchConfig {
                mode: PreemptionMode::Conditional { window },
                serve_promote: true,
                expand_factor: er,
                refresh_on_swap: false,
                max_queue: None,
            };
            let mut s = scheduler_with(dispatch);
            let mut service = TransferDominated::uniform(20_000, 3832);
            let m = simulate(&mut s, &trace, &mut service, SimOptions::with_shape(3, 16));
            rows.push(TuningRow {
                window,
                er,
                inversion_pct_of_fifo: m.inversions_total() as f64 / base * 100.0,
                victim_wait_ms: victim_wait_ms(dispatch, 400),
            });
        }
    }
    rows
}

/// Print both scenario reports, from a 10 000-request mixed load.
pub fn print_report(seed: u64) {
    let requests = 10_000;
    println!("# mixed load: inversion vs response-tail trade-off");
    println!("variant,inversion_pct_of_fifo,max_response_ms,preemptions,promotions,swaps");
    for r in mixed_load(seed, requests) {
        println!(
            "{},{:.1},{:.1},{},{},{}",
            r.variant,
            r.inversion_pct_of_fifo,
            r.max_response_ms,
            r.counters.0,
            r.counters.1,
            r.counters.2
        );
    }
    println!();
    println!("# tuning map: window x ER (SP on) — inversion%ofFIFO / victim wait ms");
    println!("window_pct,er,inversion_pct_of_fifo,victim_wait_ms");
    for r in tuning_sweep(seed, requests / 2) {
        println!(
            "{:.0},{},{:.1},{:.0}",
            r.window * 100.0,
            r.er.map(|e| e.to_string()).unwrap_or_else(|| "off".into()),
            r.inversion_pct_of_fifo,
            r.victim_wait_ms
        );
    }
    println!();
    println!("# adversarial high-priority stream: victim wait (ms) by stream length");
    println!("variant,stream_200,stream_400,stream_800");
    for (name, dispatch) in variants() {
        let w: Vec<String> = [200u64, 400, 800]
            .iter()
            .map(|&n| format!("{:.0}", victim_wait_ms(dispatch, n)))
            .collect();
        println!("{},{}", name, w.join(","));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_preemptive_minimizes_inversion() {
        let rows = mixed_load(7, 4_000);
        let at = |v: &str| {
            rows.iter()
                .find(|r| r.variant == v)
                .unwrap()
                .inversion_pct_of_fifo
        };
        assert!(at("fully-preemptive") <= at("non-preemptive"));
        assert!(at("conditional") <= at("non-preemptive"));
    }

    #[test]
    fn sp_helps_the_conditional_dispatcher() {
        let rows = mixed_load(8, 4_000);
        let at = |v: &str| {
            rows.iter()
                .find(|r| r.variant == v)
                .unwrap()
                .inversion_pct_of_fifo
        };
        assert!(at("conditional+sp") <= at("conditional"));
    }

    #[test]
    fn promotions_only_happen_with_sp() {
        let rows = mixed_load(9, 3_000);
        for r in &rows {
            let (_, promotions, _) = r.counters;
            match r.variant {
                "conditional+sp" | "conditional+sp+er" => {}
                _ => assert_eq!(promotions, 0, "{} promoted without SP", r.variant),
            }
        }
    }

    #[test]
    fn adversarial_stream_starves_fully_preemptive() {
        // The victims wait for the whole stream under full preemption...
        let fully = victim_wait_ms(DispatchConfig::fully_preemptive(), 400);
        assert!(fully > 3_500.0, "victims waited only {fully} ms");
        // ...but are served promptly under the non-preemptive regime.
        let non = victim_wait_ms(DispatchConfig::non_preemptive().without_refresh(), 400);
        assert!(non < 500.0, "non-preemptive victims waited {non} ms");
    }

    #[test]
    fn er_bounds_starvation() {
        let conditional = DispatchConfig {
            mode: PreemptionMode::Conditional { window: 0.05 },
            serve_promote: false,
            expand_factor: None,
            refresh_on_swap: false,
            max_queue: None,
        };
        let with_er = DispatchConfig {
            expand_factor: Some(2.0),
            ..conditional
        };
        let wait_no_er = victim_wait_ms(conditional, 600);
        let wait_er = victim_wait_ms(with_er, 600);
        assert!(
            wait_er <= wait_no_er,
            "ER made starvation worse: {wait_er} vs {wait_no_er}"
        );
        // ER keeps the victims' wait to a small multiple of a batch, far
        // below the stream length (6 s of top-priority traffic).
        assert!(wait_er < 3_000.0, "ER victims waited {wait_er} ms");
    }

    #[test]
    fn tuning_map_shows_both_gradients() {
        let rows = tuning_sweep(11, 3_000);
        // Larger windows => more inversion (at fixed ER), holding SP on.
        let at = |w: f64, er: Option<f64>| {
            rows.iter()
                .find(|r| (r.window - w).abs() < 1e-9 && r.er == er)
                .unwrap()
        };
        assert!(
            at(0.0, Some(2.0)).inversion_pct_of_fifo
                <= at(0.40, Some(2.0)).inversion_pct_of_fifo + 1.0
        );
        // ER caps the victim wait wherever the window is small.
        assert!(at(0.05, Some(2.0)).victim_wait_ms < 1_000.0);
    }

    #[test]
    fn starvation_grows_with_stream_length_without_er() {
        let fully = DispatchConfig::fully_preemptive();
        let short = victim_wait_ms(fully, 200);
        let long = victim_wait_ms(fully, 800);
        assert!(long > short * 2.0);
    }
}
