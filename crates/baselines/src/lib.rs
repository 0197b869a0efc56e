//! Baseline schedulers and comparators for bag-constrained makespan
//! minimization.
//!
//! The paper (Grage, Jansen, Klein; SPAA 2019) proves an approximation
//! guarantee but evaluates nothing; the experiment harness compares its
//! EPTAS against these baselines:
//!
//! * [`lpt`](mod@lpt) — Graham's LPT, bag-*oblivious* (may violate constraints;
//!   used only to quantify how often ignoring bags breaks feasibility),
//! * [`bag_aware_lpt`](mod@bag_aware_lpt) — LPT restricted to conflict-free machines; the
//!   practical heuristic a systems engineer would reach for first,
//! * [`bag_lpt`] — the paper's *bag-LPT* primitive (§4, Lemma 8): per bag,
//!   sort jobs descending and machines ascending and zip them,
//! * [`fits`] — first-fit / best-fit-decreasing with a capacity threshold
//!   (the dual-approximation building block),
//! * [`random_fit`](mod@random_fit) — seeded random conflict-free placement (sanity floor),
//! * [`local_search`](mod@local_search) — move/swap hill climbing on top of any feasible
//!   schedule (the strongest practical comparator short of exact),
//! * [`exact`] — an exact branch-and-bound scheduler (ground-truth OPT for
//!   small instances),
//! * [`dw_ptas`](mod@dw_ptas) — a Das–Wiese-style configuration-DP PTAS baseline whose
//!   running time scales like `n^{g(1/eps)}`, the shape the EPTAS improves
//!   on.

pub mod bag_aware_lpt;
pub mod bag_lpt;
pub mod dw_ptas;
pub mod exact;
pub mod fits;
pub mod local_search;
pub mod lpt;
pub mod random_fit;

pub use bag_aware_lpt::bag_aware_lpt;
pub use bag_lpt::{bag_lpt_assign, bag_lpt_schedule};
pub use dw_ptas::{dw_ptas, DwPtasConfig};
pub use exact::{exact_makespan, ExactResult};
pub use fits::{best_fit_decreasing, first_fit};
pub use local_search::{local_search, lpt_with_local_search, LocalSearchResult};
pub use lpt::lpt;
pub use random_fit::random_fit;
