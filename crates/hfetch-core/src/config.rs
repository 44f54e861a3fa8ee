//! HFetch configuration.

use std::time::Duration;

use crate::scoring::ScoreParams;

/// Score multiplier applied per step of anticipation distance: a lookahead
/// successor `d` segments past a read, or a heatmap-readahead segment `d`
/// past its run's end, is scored `score × LOOKAHEAD_DECAY^d`, so it ranks
/// as demand below the segment it follows.
pub const LOOKAHEAD_DECAY: f64 = 0.5;

/// How eagerly the placement engine reacts to score changes (§IV-A.1,
/// Fig. 3b). The engine runs when *either* condition is met: a time
/// interval elapses, or enough score updates accumulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reactiveness {
    /// Run the engine at least this often.
    pub interval: Duration,
    /// Run the engine after this many score updates.
    pub score_updates: usize,
}

impl Reactiveness {
    /// High sensitivity: trigger at every segment score update.
    pub const fn high() -> Self {
        Self { interval: Duration::from_secs(1), score_updates: 1 }
    }

    /// Medium sensitivity (HFetch's default): every 100 score updates.
    pub const fn medium() -> Self {
        Self { interval: Duration::from_secs(1), score_updates: 100 }
    }

    /// Low sensitivity: every 1024 score updates.
    pub const fn low() -> Self {
        Self { interval: Duration::from_secs(1), score_updates: 1024 }
    }
}

impl Default for Reactiveness {
    fn default() -> Self {
        Self::medium()
    }
}

/// Top-level HFetch configuration shared by the real server and the
/// simulator adapter.
#[derive(Clone, Debug)]
pub struct HFetchConfig {
    /// Base file-segment size in bytes (the prefetching unit, §III-C). The
    /// last segment of a file may be shorter.
    pub segment_size: u64,
    /// Scoring parameters for Eq. 1.
    pub score: ScoreParams,
    /// Engine trigger sensitivity.
    pub reactiveness: Reactiveness,
    /// How many successor segments to anticipate per access (segment
    /// sequencing drives lookahead; 0 disables anticipation). Each step
    /// decays the score by [`LOOKAHEAD_DECAY`].
    pub lookahead: u64,
    /// Base score given to every segment of a file when its prefetching
    /// epoch starts (lets the engine stage cold files into spare capacity,
    /// hotter-ranked first). A fetch or move placing a segment at no more
    /// than this score is staging: it takes no transfer slot, and issues
    /// only while no demand action waits and the backing store has a
    /// channel free, so it uses only backing-store time that demand leaves
    /// idle. 0 turns the base-score fill off.
    pub epoch_base_score: f64,
    /// Displacement hysteresis passed to the placement engine: a segment
    /// only displaces a placed one when its score exceeds the victim's by
    /// this factor. 1.0 is the paper's strict Algorithm 1; ~2.0 damps
    /// movement churn under near-tied scores.
    pub displacement_margin: f64,
    /// Maximum concurrent *demand* data movements (the paper runs one I/O
    /// client thread per tier per node; the figure harnesses set this to
    /// 4 × node count). Demand actions beyond the cap queue and issue as
    /// demand transfers complete. Staging transfers take no slot: the
    /// backing store's free channels bound them instead (see
    /// [`epoch_base_score`](Self::epoch_base_score)), so a staged fill in
    /// flight never holds back a demand fetch.
    pub max_inflight_fetches: usize,
    /// Observability sink shared by the auditor, placement engine and
    /// policy/server built from this config. Disabled by default (every
    /// recording site then costs one not-taken branch); pass a clone of the
    /// same recorder to `SimConfig::with_obs` to merge the simulator's fetch
    /// lifecycle into the same per-run artifact.
    pub obs: obs::Recorder,
}

impl Default for HFetchConfig {
    fn default() -> Self {
        Self {
            segment_size: 1 << 20, // 1 MiB, the paper's running example
            score: ScoreParams::default(),
            reactiveness: Reactiveness::default(),
            lookahead: 4,
            epoch_base_score: 1e-6,
            displacement_margin: 2.0,
            max_inflight_fetches: 64,
            obs: obs::Recorder::default(),
        }
    }
}

impl HFetchConfig {
    /// Validates invariants, panicking with a descriptive message on
    /// misconfiguration. Called by the server and policy constructors.
    pub fn validate(&self) {
        assert!(self.segment_size > 0, "segment_size must be positive");
        assert!(self.score.p >= 2.0, "score p must be >= 2 (paper: p >= 2)");
        assert!(self.epoch_base_score >= 0.0, "epoch_base_score must be non-negative");
        assert!(self.reactiveness.score_updates > 0, "score_updates trigger must be positive");
        assert!(self.max_inflight_fetches > 0, "need at least one demand transfer slot");
        assert!(self.displacement_margin >= 1.0, "displacement_margin must be >= 1.0");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        assert_eq!(Reactiveness::high().score_updates, 1);
        assert_eq!(Reactiveness::medium().score_updates, 100);
        assert_eq!(Reactiveness::low().score_updates, 1024);
        assert_eq!(Reactiveness::default(), Reactiveness::medium());
    }

    #[test]
    fn default_config_is_valid() {
        let c = HFetchConfig::default();
        c.validate();
        assert_eq!(c.segment_size, 1 << 20);
    }

    #[test]
    #[should_panic(expected = "segment_size")]
    fn zero_segment_size_rejected() {
        HFetchConfig { segment_size: 0, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "p must be")]
    fn invalid_p_rejected() {
        let mut c = HFetchConfig::default();
        c.score.p = 1.5;
        c.validate();
    }
}
