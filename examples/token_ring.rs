//! The introduction's "no process has the token" predicate on a token
//! ring, offline and then online: events are observed one at a time into
//! an `OnlineSlicer`, and each snapshot of the prefix is sliced with the
//! offline conjunctive slicer.
//!
//! ```text
//! cargo run --example token_ring
//! ```

use computation_slicing::computation::lattice::count_cuts;
use computation_slicing::sim::token_ring::{no_token_spec, TokenRing};
use computation_slicing::sim::{run, SimConfig};
use computation_slicing::{
    detect_with_slicing, slice_conjunctive, Computation, Conjunctive, Limits, LocalPredicate,
    OnlineSlicer, Slice, SliceStats, Value,
};

/// The slice of "no process has the token" on a snapshot of the prefix.
fn no_token_slice(comp: &Computation) -> Slice<'_> {
    let clauses = comp
        .processes()
        .map(|p| {
            let has_token = comp.var(p, "has_token").expect("declared on every process");
            LocalPredicate::equals(has_token, Value::Bool(false))
        })
        .collect();
    slice_conjunctive(comp, &Conjunctive::new(clauses))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Offline: simulate, slice, detect.
    let cfg = SimConfig {
        seed: 5,
        max_events_per_process: 15,
        ..SimConfig::default()
    };
    let comp = run(&mut TokenRing::new(4), &cfg)?;
    println!(
        "token ring run: {} events, {} messages, {} cuts",
        comp.num_events(),
        comp.messages().len(),
        count_cuts(&comp, Some(2_000_000)).value()
    );

    let spec = no_token_spec(&comp);
    let slice = spec.slice(&comp);
    println!(
        "slice for \"no process has the token\": {}",
        SliceStats::gather(&comp, &slice, Some(2_000_000))
    );
    let outcome = detect_with_slicing(&comp, &spec, &Limits::none());
    match &outcome.search.found {
        Some(cut) => println!("token in transit at cut {cut}"),
        None => println!("the token never left a process"),
    }

    // Online: observe events one at a time and slice each snapshot.
    println!("\nonline monitoring of a 2-process hand-off:");
    let mut online = OnlineSlicer::new(2);
    let t0 = online.declare_var(0, "has_token", Value::Bool(true))?;
    let t1 = online.declare_var(1, "has_token", Value::Bool(false))?;

    let send = online.observe(0, &[(t0, Value::Bool(false))])?;
    let snapshot = online.snapshot_computation()?;
    println!(
        "  after the send: slice has {} cut(s)",
        no_token_slice(&snapshot).count_cuts(None).value()
    );

    let recv = online.observe(1, &[(t1, Value::Bool(true))])?;
    online.message(send, recv)?;
    let snapshot = online.snapshot_computation()?;
    let slice = no_token_slice(&snapshot);
    println!(
        "  after the receive: slice has {} cut(s)",
        slice.count_cuts(None).value()
    );
    if let Some(bottom) = slice.bottom_cut() {
        println!("  earliest token-in-transit cut: {bottom}");
    }
    Ok(())
}
