//! Ablation A5: privacy accounting over a long trading session — basic
//! (linear) vs advanced (√k) composition.
//!
//! The broker's accountant applies basic sequential composition; this
//! ablation quantifies how much budget the advanced composition theorem
//! and Rényi accounting recover as a stream of independent mechanisms
//! grows, for several per-query budgets. The broker's fresh answers are
//! not such a stream: they share one sample, so their sound bound
//! composes the base budgets on that sample and amplifies once.
//!
//! Run with `cargo run -p prc-bench --release --bin ablation_composition`.

use prc_bench::print_table;
use prc_dp::budget::Epsilon;
use prc_dp::composition::{advanced_composition, basic_composition, ApproxDp};
use prc_dp::renyi::RdpAccountant;

fn main() {
    let delta_slack = 1e-6;
    let per_query_budgets = [0.005, 0.02, 0.1];
    let session_lengths = [10u64, 100, 1_000, 10_000];

    let mut rows = Vec::new();
    for &eps in &per_query_budgets {
        let per = ApproxDp::new(eps, 0.0).expect("valid per-query budget");
        for &k in &session_lengths {
            let basic = basic_composition(per, k);
            let advanced = advanced_composition(per, k, delta_slack).expect("valid slack");
            let mut rdp = RdpAccountant::default();
            for _ in 0..k {
                rdp.record_laplace(Epsilon::new(eps).expect("valid ε"));
            }
            let renyi = rdp.to_approx_dp(delta_slack).expect("valid slack");
            let winner = if renyi.epsilon < basic.epsilon.min(advanced.epsilon) {
                "RDP"
            } else if advanced.epsilon < basic.epsilon {
                "advanced"
            } else {
                "basic"
            };
            rows.push(vec![
                format!("{eps}"),
                format!("{k}"),
                format!("{:.3}", basic.epsilon),
                format!("{:.3}", advanced.epsilon),
                format!("{:.3}", renyi.epsilon),
                winner.into(),
            ]);
        }
    }
    print_table(
        &format!(
            "Ablation A5 — session privacy cost: basic vs advanced vs Rényi composition (δ = {delta_slack})"
        ),
        &["per-query ε", "queries", "basic Σε", "advanced ε", "RDP ε", "tightest"],
        &rows,
    );
    println!("\nexpected: the linear bound wins only for short sessions; advanced composition scales\nwith √k at a δ cost; the Rényi accountant (Laplace-specific curve) is tighter still on\nlong, small-ε sessions. Every row composes independent mechanisms. A broker's fresh\nanswers all come from one shared sample, so these rows do not bound them: compose the\nanswers' base ε on that sample, then amplify by sampling once.");
}
