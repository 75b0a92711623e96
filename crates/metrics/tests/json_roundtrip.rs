//! The harness persists every figure as JSON; these tests pin the
//! serialization format the downstream plotting scripts rely on.

use metrics::{CurvePoint, LatencyCurve};

fn sample_curve() -> LatencyCurve {
    let mut c = LatencyCurve::new("1x16");
    c.push(CurvePoint {
        offered_load: 2.9e6,
        throughput_rps: 2.85e6,
        mean_latency_ns: 812.5,
        p99_latency_ns: 1_450.0,
        completed: 90_000,
    });
    c.push(CurvePoint {
        offered_load: 5.8e6,
        throughput_rps: 5.7e6,
        mean_latency_ns: 850.0,
        p99_latency_ns: 1_900.0,
        completed: 90_000,
    });
    c
}

#[test]
fn latency_curve_roundtrips_through_json() {
    let curve = sample_curve();
    let json = serde_json::to_string_pretty(&curve).unwrap();
    let back: LatencyCurve = serde_json::from_str(&json).unwrap();
    assert_eq!(back, curve);
}

#[test]
fn json_field_names_are_stable() {
    let json = serde_json::to_value(sample_curve()).unwrap();
    assert_eq!(json["label"], "1x16");
    let p0 = &json["points"][0];
    for field in [
        "offered_load",
        "throughput_rps",
        "mean_latency_ns",
        "p99_latency_ns",
        "completed",
    ] {
        assert!(p0.get(field).is_some(), "missing field {field}");
    }
}

#[test]
fn cdf_serializes() {
    let cdf = metrics::Cdf::standard(&[1.0, 2.0, 3.0, 4.0, 5.0]);
    let json = serde_json::to_string(&cdf).unwrap();
    let back: metrics::Cdf = serde_json::from_str(&json).unwrap();
    assert_eq!(back, cdf);
}

#[test]
fn curves_vector_roundtrips() {
    // fig2/fig7 write Vec<LatencyCurve>; make sure the aggregate shape
    // holds too.
    let curves = vec![sample_curve(), sample_curve()];
    let json = serde_json::to_string(&curves).unwrap();
    let back: Vec<LatencyCurve> = serde_json::from_str(&json).unwrap();
    assert_eq!(back.len(), 2);
    assert_eq!(back[0], curves[0]);
}
