// prc-lint-fixture: path = crates/dp/src/laplace.rs
//! A sampling primitive, sanctioned inside the substrate.

pub fn draw_centered<R>(dist: &Laplace, rng: &mut R) -> f64 {
    dist.sample(rng)
}

// prc-lint-fixture: path = crates/core/src/pipeline/stages.rs
//! A pipeline function whose only reservation marks are the retired
//! names `Reserved` and `Settle`: neither binds nor acquires a hold, so
//! the draw below it is unprotected (F001).

pub fn perturb<R>(stage: Reserved, dist: &Laplace, rng: &mut R) -> f64 {
    let noise = prc_dp::laplace::draw_centered(dist, rng);
    Settle::after(stage);
    noise
}
