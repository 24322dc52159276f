//! # vexus-core
//!
//! The VEXUS exploration engine — the paper's primary contribution. It sits
//! on top of the substrates (`vexus-data`, `vexus-mining`, `vexus-index`,
//! `vexus-stats`, `vexus-viz`) and implements the interactive loop of Fig. 1
//! with its three principles:
//!
//! * **P1 — limited options**: every step shows `k ≤ 7` groups
//!   ([`config::EngineConfig::k`]),
//! * **P2 — optimality**: the shown set greedily maximizes diversity and
//!   coverage under a lower bound on similarity to the clicked group
//!   ([`greedy`]),
//! * **P3 — efficiency**: the greedy optimizer is an *anytime* algorithm
//!   cut off at a continuity-preserving 100 ms budget; all other
//!   interactions are O(1) against the pre-built index ([`session`]).
//!
//! Feedback learning ([`feedback`]) maintains the normalized probability
//! vector over users and demographic values that the CONTEXT view displays,
//! supports *unlearning*, and biases the greedy selector through weighted
//! similarity.
//!
//! [`session::Session`] is the five-view state machine (GROUPVIZ,
//! CONTEXT, STATS, HISTORY, MEMO + the LDA Focus view), generic over how
//! the engine is held (any `Deref<Target = Vexus>`):
//! [`session::ExplorationSession`] is `Session<&Vexus>` (the single-owner
//! shape), [`engine::OwnedSession`] is `Session<Arc<Vexus>>`;
//! [`engine::Vexus`] is the one-call facade that runs the offline
//! pre-processing pipeline and opens sessions; [`serve`] runs many
//! concurrent sessions over one shared engine behind a session table;
//! [`simulate`] provides the target-driven simulated explorers and
//! baselines used by the experiments.
//!
//! [`live`] makes the engine refreshable: [`live::LiveEngine`] ingests
//! action streams, mines them incrementally, rebuilds the index per
//! epoch, and publishes immutable engine epochs with one `Arc` swap — in-flight sessions pin
//! the epoch they opened against while new opens see the latest.
//!
//! [`durable`] makes the live engine crash-safe: every refresh appends
//! its delta to a write-ahead log *before* applying it, a checkpoint
//! policy snapshots the published engine every
//! [`durable::DurabilityConfig::checkpoint_every`] refreshes, and
//! [`live::LiveEngine::recover`] replays the surviving log over the
//! newest valid checkpoint into an engine byte-identical to an
//! uninterrupted run.

pub mod config;
pub mod durable;
pub mod engine;
pub mod error;
pub mod failpoint;
pub mod feedback;
pub mod greedy;
pub mod live;
pub mod quality;
pub mod serve;
pub mod session;
pub mod simulate;
pub mod snapshot;

pub use config::EngineConfig;
pub use durable::{CheckpointOutcome, DurabilityConfig, RecoveryReport};
pub use engine::{OwnedSession, Vexus};
pub use error::{CoreError, ServeError};
pub use feedback::FeedbackVector;
pub use live::{LiveEngine, RefreshOutcome};
pub use serve::{ExplorationService, Request, Response, ServiceConfig, ServiceStats, SessionId};
pub use session::{ExplorationSession, Session};
pub use vexus_data::{SnapshotError, WalError, WalSync};
