//! Golden-value pins for the estimator data path.
//!
//! The dense edge-ID arena (adjacency IDs, metadata arrays, τ-epoch
//! `1/p` cache, ID-keyed reservoir heap) is a pure data-structure
//! substitution: it must not move a single bit of any estimate. These
//! values were captured from the pre-arena implementation (hash-map
//! metadata, `Edge`-keyed heap) on fixed-seed streams; every future
//! refactor of the hot path has to reproduce them exactly — same RNG
//! draw order, same floating-point evaluation order per instance.
//!
//! If a change is *supposed* to alter estimates (a new estimator, a
//! different RNG protocol), regenerate these constants deliberately and
//! say so in the commit — never loosen the comparison to a tolerance.

use wsd_core::{Algorithm, SessionBuilder, StreamSession};
use wsd_graph::Pattern;
use wsd_stream::gen::GeneratorConfig;
use wsd_stream::{EventStream, Scenario};

/// Runs a single-query session over the whole stream and returns its
/// final estimate.
fn final_estimate(mut session: StreamSession, events: &EventStream) -> f64 {
    session.process_all(events);
    session.report().queries[0].estimate
}

fn run(events: &EventStream, pattern: Pattern, alg: Algorithm, seed: u64, capacity: usize) -> f64 {
    final_estimate(SessionBuilder::new(alg, capacity, seed).query(pattern).build(), events)
}

fn check(events: &EventStream, seed: u64, capacity: usize, golden: &[(Pattern, Algorithm, f64)]) {
    for &(pattern, alg, want) in golden {
        let got = run(events, pattern, alg, seed, capacity);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{} on {}: got {got:?}, golden {want:?}",
            alg.name(),
            pattern.name()
        );
    }
}

/// BA n=400 m=4 (gen seed 11), light-deletion scenario (seed 5):
/// 1880 events, M = 188, counter seed 42.
#[test]
fn golden_light_deletion_ba() {
    let edges = GeneratorConfig::BarabasiAlbert { vertices: 400, edges_per_vertex: 4 }.generate(11);
    let events = Scenario::default_light().apply(&edges, 5);
    assert_eq!(events.len(), 1880, "stream generation drifted; goldens no longer apply");
    let capacity = events.len() / 10;
    #[rustfmt::skip]
    let golden = [
        (Pattern::Wedge, Algorithm::WsdH, 13987.924023075302_f64),
        (Pattern::Wedge, Algorithm::WsdUniform, 16040.991040653607_f64),
        (Pattern::Wedge, Algorithm::GpsA, 14404.240598321117_f64),
        (Pattern::Wedge, Algorithm::Triest, 13739.925823701913_f64),
        (Pattern::Wedge, Algorithm::ThinkD, 14663.313031807846_f64),
        (Pattern::Wedge, Algorithm::Wrs, 15372.915812078303_f64),
        (Pattern::Triangle, Algorithm::WsdH, 524.2109983581618_f64),
        (Pattern::Triangle, Algorithm::WsdUniform, 350.63489063634285_f64),
        (Pattern::Triangle, Algorithm::GpsA, 522.9341710984686_f64),
        (Pattern::Triangle, Algorithm::Triest, 0.0_f64),
        (Pattern::Triangle, Algorithm::ThinkD, 153.77108604719717_f64),
        (Pattern::Triangle, Algorithm::Wrs, 292.7231589230666_f64),
        (Pattern::FourClique, Algorithm::WsdH, -6.989676784107779_f64),
        (Pattern::FourClique, Algorithm::WsdUniform, 34.90143913155257_f64),
        (Pattern::FourClique, Algorithm::GpsA, -17.827723901895972_f64),
        (Pattern::FourClique, Algorithm::Triest, 0.0_f64),
        (Pattern::FourClique, Algorithm::ThinkD, 34.54855110284298_f64),
        (Pattern::FourClique, Algorithm::Wrs, 34.33533440304514_f64),
    ];
    check(&events, 42, capacity, &golden);
}

/// BA n=300 m=4 (gen seed 21), insertion-only: 1190 events, M = 119,
/// counter seed 13. Covers plain GPS (which rejects deletions and is
/// therefore absent from the two dynamic-stream pins) — and documents
/// that GPS, WSD-H and GPS-A coincide exactly on insertion-only
/// streams with the same weight function and seed, as the paper's
/// framework lineage implies.
#[test]
fn golden_insert_only_ba_covers_plain_gps() {
    let edges = GeneratorConfig::BarabasiAlbert { vertices: 300, edges_per_vertex: 4 }.generate(21);
    let events = Scenario::InsertOnly.apply(&edges, 0);
    assert_eq!(events.len(), 1190, "stream generation drifted; goldens no longer apply");
    let capacity = events.len() / 10;
    #[rustfmt::skip]
    let golden = [
        (Pattern::Wedge, Algorithm::Gps, 15184.147867997028_f64),
        (Pattern::Wedge, Algorithm::WsdH, 15184.147867997028_f64),
        (Pattern::Wedge, Algorithm::GpsA, 15184.147867997028_f64),
        (Pattern::Triangle, Algorithm::Gps, 157.48104168745493_f64),
        (Pattern::Triangle, Algorithm::WsdH, 157.48104168745493_f64),
        (Pattern::Triangle, Algorithm::GpsA, 157.48104168745493_f64),
        (Pattern::FourClique, Algorithm::Gps, 33.134275558087815_f64),
        (Pattern::FourClique, Algorithm::WsdH, 33.134275558087815_f64),
        (Pattern::FourClique, Algorithm::GpsA, 33.134275558087815_f64),
    ];
    check(&events, 13, capacity, &golden);
}

/// Holme–Kim n=350 m=4 p=0.5 (gen seed 2), massive-deletion scenario
/// (α=0.002, β=0.8, seed 9): 2323 events, M = 232, counter seed 7.
#[test]
fn golden_massive_deletion_holme_kim() {
    let edges = GeneratorConfig::HolmeKim { vertices: 350, edges_per_vertex: 4, triad_prob: 0.5 }
        .generate(2);
    let events = Scenario::Massive { alpha: 0.002, beta_m: 0.8 }.apply(&edges, 9);
    assert_eq!(events.len(), 2323, "stream generation drifted; goldens no longer apply");
    let capacity = events.len() / 10;
    #[rustfmt::skip]
    let golden = [
        (Pattern::Wedge, Algorithm::WsdH, 1623.0871399925297_f64),
        (Pattern::Wedge, Algorithm::WsdUniform, 1877.999021924308_f64),
        (Pattern::Wedge, Algorithm::GpsA, 4136.609735268055_f64),
        (Pattern::Wedge, Algorithm::Triest, 1397.9569743233865_f64),
        (Pattern::Wedge, Algorithm::ThinkD, 1503.3886537928176_f64),
        (Pattern::Wedge, Algorithm::Wrs, 1667.8060920796504_f64),
        (Pattern::Triangle, Algorithm::WsdH, 63.92533068189426_f64),
        (Pattern::Triangle, Algorithm::WsdUniform, 18.560058401471615_f64),
        (Pattern::Triangle, Algorithm::GpsA, 189.82977391266147_f64),
        (Pattern::Triangle, Algorithm::Triest, 0.0_f64),
        (Pattern::Triangle, Algorithm::ThinkD, -55.54773380326375_f64),
        (Pattern::Triangle, Algorithm::Wrs, 144.28801690784653_f64),
        (Pattern::FourClique, Algorithm::WsdH, 0.7491857579761987_f64),
        (Pattern::FourClique, Algorithm::WsdUniform, -3.3486811457794214_f64),
        (Pattern::FourClique, Algorithm::GpsA, 0.7491857579761987_f64),
        (Pattern::FourClique, Algorithm::Triest, 0.0_f64),
        (Pattern::FourClique, Algorithm::ThinkD, 60.86420741450079_f64),
        (Pattern::FourClique, Algorithm::Wrs, 18.45638223585687_f64),
    ];
    check(&events, 7, capacity, &golden);
}

/// WRS-focused churn pin, captured from the PR-3 binary: Forest Fire
/// n=500 p=0.4 (gen seed 23) under a heavy light-deletion scenario
/// (β=0.35, seed 6 → 1505 events), M = 75 (≈5% budget → constant
/// waiting-room spills), counter seed 31, at two waiting-room fractions.
/// The scenario drives every WRS-specific path hard — FIFO ghosts,
/// spill-horizon advances, deletions inside the room and the reservoir,
/// random-pairing compensation, ID-recycling re-stamps — so the
/// room-epoch stamp scheme (and any future room bookkeeping change)
/// must reproduce the dense-flag implementation bit-for-bit.
#[test]
fn golden_wrs_forest_fire_churn() {
    let edges = GeneratorConfig::ForestFire { vertices: 500, forward_prob: 0.4 }.generate(23);
    let events = Scenario::Light { beta_l: 0.35 }.apply(&edges, 6);
    assert_eq!(events.len(), 1505, "stream generation drifted; goldens no longer apply");
    let capacity = events.len() / 20;
    #[rustfmt::skip]
    let golden = [
        (0.1, Pattern::Wedge, 3813.246306926904_f64),
        (0.1, Pattern::Triangle, 220.62212712660445_f64),
        (0.1, Pattern::FourClique, 587.2420959016108_f64),
        (0.3, Pattern::Wedge, 3836.629155354448_f64),
        (0.3, Pattern::Triangle, 316.12063348416285_f64),
        (0.3, Pattern::FourClique, 63.11443438914028_f64),
    ];
    for &(fraction, pattern, want) in &golden {
        let session = SessionBuilder::new(Algorithm::Wrs, capacity, 31)
            .query(pattern)
            .with_wrs_fraction(fraction)
            .build();
        let got = final_estimate(session, &events);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "WRS (fraction {fraction}) on {}: got {got:?}, golden {want:?}",
            pattern.name()
        );
    }
}

/// Hub-clique k=24 + 1800 fanout-2 spokes (gen seed 17), light-deletion
/// scenario (seed 8): 4640 events, M = 464, counter seed 19. Core–core
/// events are hub–hub intersections whose endpoints sit past the
/// galloping-shadow degree threshold with long disjoint spoke runs to
/// skip — this scenario pins the galloping tier on the regime it was
/// built for. Values captured from the pre-galloping (PR-2) kernel;
/// the merge must reproduce them bit-for-bit, emission order included.
#[test]
fn golden_hub_clique_light_deletion() {
    let edges = GeneratorConfig::HubClique { clique: 24, spokes: 1800 }.generate(17);
    let events = Scenario::default_light().apply(&edges, 8);
    assert_eq!(events.len(), 4640, "stream generation drifted; goldens no longer apply");
    let capacity = events.len() / 10;
    #[rustfmt::skip]
    let golden = [
        (Pattern::Wedge, Algorithm::WsdH, 219065.8714366441_f64),
        (Pattern::Wedge, Algorithm::WsdUniform, 226474.5068477585_f64),
        (Pattern::Wedge, Algorithm::GpsA, 220549.71020791127_f64),
        (Pattern::Wedge, Algorithm::Triest, 226718.81218523058_f64),
        (Pattern::Wedge, Algorithm::ThinkD, 229637.97640953495_f64),
        (Pattern::Wedge, Algorithm::Wrs, 234711.00299797708_f64),
        (Pattern::Triangle, Algorithm::WsdH, 1282.6642316609027_f64),
        (Pattern::Triangle, Algorithm::WsdUniform, 2284.317901472298_f64),
        (Pattern::Triangle, Algorithm::GpsA, 1170.8367003112032_f64),
        (Pattern::Triangle, Algorithm::Triest, 1237.3385310237143_f64),
        (Pattern::Triangle, Algorithm::ThinkD, 1922.101659502096_f64),
        (Pattern::Triangle, Algorithm::Wrs, 2326.398976286995_f64),
        (Pattern::FourClique, Algorithm::WsdH, -7048.9441796242245_f64),
        (Pattern::FourClique, Algorithm::WsdUniform, -6906.4398715313555_f64),
        (Pattern::FourClique, Algorithm::GpsA, 99.02821105393005_f64),
        (Pattern::FourClique, Algorithm::Triest, 0.0_f64),
        (Pattern::FourClique, Algorithm::ThinkD, 0.0_f64),
        (Pattern::FourClique, Algorithm::Wrs, 15709.297833327575_f64),
    ];
    check(&events, 19, capacity, &golden);
}
