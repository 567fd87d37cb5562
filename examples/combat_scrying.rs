//! The scrying spell — why visibility filtering cannot maintain
//! consistency (Sections I and III-B).
//!
//! ```text
//! cargo run --release -p seve --example combat_scrying
//! ```
//!
//! A fantasy battle: archers shoot, a healer periodically casts a scrying
//! spell that heals the *most wounded* ally in a large radius. The spell's
//! result depends on every candidate's current health — state no
//! visibility rule can scope. Run under SEVE and under the RING-like
//! visibility filter, then compare what the replicas believed.

use seve::prelude::*;
use std::sync::Arc;

fn battle() -> Arc<CombatWorld> {
    Arc::new(CombatWorld::new(CombatConfig {
        clients: 24,
        width: 300.0,
        height: 300.0,
        arrow_range: 60.0,
        scry_range: 250.0, // far beyond any visibility radius
        ..CombatConfig::default()
    }))
}

fn main() {
    let sim = SimConfig {
        moves_per_client: 50,
        ..SimConfig::default()
    };

    println!("Combat world: 24 avatars, arrows + scrying heals (range 250).\n");

    let world = battle();
    let suite = SeveSuite::new(ProtocolConfig::with_mode(ServerMode::InfoBound));
    let mut wl = CombatWorkload::new(Arc::clone(&world));
    let seve = Simulation::new(Arc::clone(&world), &suite, sim.clone()).run(&mut wl);
    println!(
        "SEVE : mean response {:>6.1} ms, {} evaluations cross-checked, {} violations",
        seve.response_ms.mean(),
        seve.evals_checked,
        seve.violations
    );

    let world = battle();
    // Visibility 60 — generous, yet far smaller than the scry range.
    let ring = RingSuite::new(60.0);
    let mut wl = CombatWorkload::new(Arc::clone(&world));
    let ring_run = Simulation::new(Arc::clone(&world), &ring, sim).run(&mut wl);
    println!(
        "RING : mean response {:>6.1} ms, {} evaluations cross-checked, {} violations",
        ring_run.response_ms.mean(),
        ring_run.evals_checked,
        ring_run.violations
    );
    if let Some(pos) = ring_run.first_input_mismatch {
        println!("       replicas first read different inputs at queue position {pos}");
    }

    assert_eq!(seve.violations, 0, "SEVE: Theorem 1");
    assert!(
        ring_run.violations > 0,
        "RING must diverge: scrying reads farther than anyone can see"
    );
    println!(
        "\nRING replicas disagreed {} times about who got healed or hit — \
         \"the actual area that can influence an avatar is much larger than \
         its visibility\" (Figure 2).",
        ring_run.violations
    );
}
