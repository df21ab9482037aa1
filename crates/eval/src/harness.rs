//! The evaluation testbed: one coherent world, search log, corpus and
//! trained e# instance shared by every experiment.

use esharp_core::{
    run_offline, run_offline_resumable, CheckpointDir, Esharp, EsharpConfig, EsharpResult,
    OfflineArtifacts,
};
use esharp_microblog::{generate_corpus, Corpus, CorpusConfig};
use esharp_querylog::{AggregatedLog, LogConfig, LogGenerator, World, WorldConfig};
use serde::{Deserialize, Serialize};

/// Size presets for the testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalScale {
    /// Unit-test sized (seconds end to end).
    Tiny,
    /// Development sized.
    Small,
    /// The scale the EXPERIMENTS.md numbers are produced at: hundreds of
    /// domains, millions of raw log events, tens of thousands of posts —
    /// the laptop-scale analog of the paper's 998 GB / 60 M-edge setup.
    Paper,
}

/// Fully materialized evaluation fixture.
pub struct Testbed {
    /// Ground truth.
    pub world: World,
    /// The aggregated search log the offline stage consumed.
    pub log: AggregatedLog,
    /// Offline artifacts (graph, clustering trace, domains, stage stats).
    pub artifacts: OfflineArtifacts,
    /// The microblog corpus.
    pub corpus: Corpus,
    /// The trained online system.
    pub esharp: Esharp,
    /// The e# configuration used.
    pub config: EsharpConfig,
    /// The scale this testbed was built at.
    pub scale: EvalScale,
}

impl Testbed {
    /// Build a testbed at the given scale and seed. Deterministic.
    pub fn build(scale: EvalScale, seed: u64) -> Testbed {
        let (world_cfg, log_cfg, corpus_cfg, esharp_cfg) = presets(scale, seed);
        let world = World::generate(&world_cfg);
        let events = LogGenerator::new(&world, &log_cfg);
        let log = AggregatedLog::from_events(events, world.terms.len());
        let artifacts =
            run_offline(&log, &world, &esharp_cfg).expect("offline pipeline must succeed");
        let corpus = generate_corpus(&world, &corpus_cfg);
        let esharp = Esharp::new(artifacts.domains.clone(), esharp_cfg.clone());
        Testbed {
            world,
            log,
            artifacts,
            corpus,
            esharp,
            config: esharp_cfg,
            scale,
        }
    }

    /// [`Testbed::build`] through the crash-safe offline pipeline: every
    /// stage is checkpointed into `ckpt`, and a rerun (same scale + seed)
    /// resumes from whatever validated checkpoints survive. Unlike
    /// [`Testbed::build`] this propagates persistence failures instead of
    /// panicking — the CLI turns them into a nonzero exit.
    pub fn build_resumable(
        scale: EvalScale,
        seed: u64,
        ckpt: &CheckpointDir,
    ) -> EsharpResult<Testbed> {
        let (world_cfg, log_cfg, corpus_cfg, esharp_cfg) = presets(scale, seed);
        let world = World::generate(&world_cfg);
        let events = LogGenerator::new(&world, &log_cfg);
        let log = AggregatedLog::from_events(events, world.terms.len());
        let artifacts = run_offline_resumable(&log, &world, &esharp_cfg, ckpt)?;
        let corpus = generate_corpus(&world, &corpus_cfg);
        let esharp = Esharp::new(artifacts.domains.clone(), esharp_cfg.clone());
        Ok(Testbed {
            world,
            log,
            artifacts,
            corpus,
            esharp,
            config: esharp_cfg,
            scale,
        })
    }

    /// Rebuild the online system with a different detector threshold
    /// (Figures 9–10 sweep this without re-running the offline stage).
    pub fn with_min_zscore(&self, min_zscore: f64) -> Esharp {
        let mut config = self.config.clone();
        config.detector.min_zscore = min_zscore;
        Esharp::new(self.esharp.domains().clone(), config)
    }
}

fn presets(scale: EvalScale, seed: u64) -> (WorldConfig, LogConfig, CorpusConfig, EsharpConfig) {
    match scale {
        EvalScale::Tiny => (
            WorldConfig::tiny(seed),
            LogConfig::tiny(seed ^ 1),
            CorpusConfig::tiny(seed ^ 2),
            EsharpConfig::tiny(),
        ),
        EvalScale::Small => (
            WorldConfig {
                domains_per_category: 15,
                seed,
                ..WorldConfig::default()
            },
            LogConfig {
                events: 150_000,
                seed: seed ^ 1,
                ..LogConfig::default()
            },
            CorpusConfig {
                regular_users: 200,
                spam_users: 20,
                seed: seed ^ 2,
                ..CorpusConfig::default()
            },
            EsharpConfig {
                min_support: 20,
                workers: 2,
                ..EsharpConfig::default()
            },
        ),
        EvalScale::Paper => (
            WorldConfig {
                domains_per_category: 40,
                seed,
                ..WorldConfig::default()
            },
            LogConfig {
                events: 2_000_000,
                seed: seed ^ 1,
                ..LogConfig::default()
            },
            CorpusConfig {
                regular_users: 1_500,
                spam_users: 120,
                seed: seed ^ 2,
                ..CorpusConfig::default()
            },
            EsharpConfig {
                min_support: 50,
                workers: 8,
                ..EsharpConfig::default()
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_testbed_is_coherent() {
        let tb = Testbed::build(EvalScale::Tiny, 61);
        assert!(tb.artifacts.domains.len() > 1);
        assert!(tb.corpus.tweet_count() > 0);
        let out = tb.esharp.search(&tb.corpus, "49ers");
        assert!(!out.expansion.is_empty());
    }

    #[test]
    fn resumable_build_matches_plain_build() {
        let dir = std::env::temp_dir().join("esharp_harness_resume");
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = CheckpointDir::new(&dir).unwrap();
        let plain = Testbed::build(EvalScale::Tiny, 61);
        // Cold: every stage computed and checkpointed. Warm: every stage
        // loaded back. Both must match the checkpoint-free build exactly.
        let cold = Testbed::build_resumable(EvalScale::Tiny, 61, &ckpt).unwrap();
        let warm = Testbed::build_resumable(EvalScale::Tiny, 61, &ckpt).unwrap();
        for (name, tb) in [("cold", &cold), ("warm", &warm)] {
            assert_eq!(
                tb.artifacts.domains.domains(),
                plain.artifacts.domains.domains(),
                "{name} domains diverged"
            );
            assert_eq!(tb.artifacts.outcome.trace, plain.artifacts.outcome.trace);
            assert_eq!(tb.artifacts.graph.num_edges(), plain.artifacts.graph.num_edges());
            assert_eq!(tb.artifacts.dropped_terms, plain.artifacts.dropped_terms);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn threshold_override_changes_only_the_detector() {
        let tb = Testbed::build(EvalScale::Tiny, 61);
        let strict = tb.with_min_zscore(5.0);
        let loose = tb.with_min_zscore(-5.0);
        let q = "football";
        assert!(
            strict.search(&tb.corpus, q).experts.len()
                <= loose.search(&tb.corpus, q).experts.len()
        );
    }
}
