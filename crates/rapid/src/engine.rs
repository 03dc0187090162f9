use std::collections::HashSet;
use std::time::{Duration, Instant};

use freshtrack_core::{
    CheckpointState, Counters, Detector, DjitDetector, FastTrackDetector, FreshnessDetector,
    NaiveSamplingDetector, OrderedListDetector, RaceReport, SplitDetector,
};
use freshtrack_sampling::BernoulliSampler;
use freshtrack_trace::{EventSource, SourceError, Trace};

/// The detector engines of the evaluation — the one table that maps an
/// engine to its name, its sampler and its detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// FastTrack with full detection (the paper's **FT**; the rate is
    /// ignored and treated as 100%).
    FastTrack,
    /// Naive sampling on unmodified synchronization handlers (the
    /// paper's **ST**): Djit+ sync handling, accesses sampled.
    St,
    /// Algorithm 2: sampling timestamps without freshness (reference
    /// engine; not in the paper's figures but useful for ablation).
    Sam,
    /// Algorithm 3 (**SU**): freshness timestamps.
    Su,
    /// Algorithm 4 (**SO**): ordered lists + lazy copy.
    So,
    /// Algorithm 4 without the local-epoch optimization (ablation).
    SoPlain,
}

/// The engines the CLI's `--engine` takes, by the name it parses and
/// the `.ftc` sidecar fingerprint stores.
const CLI_NAMES: [(&str, EngineKind); 5] = [
    ("ft", EngineKind::FastTrack),
    ("st", EngineKind::St),
    ("sam", EngineKind::Sam),
    ("su", EngineKind::Su),
    ("so", EngineKind::So),
];

/// What to do with an engine's detector, per detector type — the
/// argument of [`EngineKind::visit`].
pub trait EngineVisitor {
    /// What the visit returns.
    type Output;

    /// A split engine (FT, ST, SU, SO and the SO ablation), with the
    /// sampler it was built over: it runs offline, on the segment
    /// pipeline, under the sharded façade and from a `.ftc` checkpoint.
    fn split<D>(self, detector: D, sampler: BernoulliSampler) -> Self::Output
    where
        D: SplitDetector + 'static,
        D::Sync: CheckpointState,
        D::Access: CheckpointState;

    /// The `sam` reference ([`NaiveSamplingDetector`]), which has no
    /// sync/access split and so only streams.
    fn sam(self, detector: NaiveSamplingDetector<BernoulliSampler>) -> Self::Output;
}

impl EngineKind {
    /// The engine's short name as used in the paper.
    pub fn short_name(self) -> &'static str {
        match self {
            EngineKind::FastTrack => "FT",
            EngineKind::St => "ST",
            EngineKind::Sam => "SAM",
            EngineKind::Su => "SU",
            EngineKind::So => "SO",
            EngineKind::SoPlain => "SO-noepoch",
        }
    }

    /// The engine named `name` on the command line (`ft`, `st`, `sam`,
    /// `su`, `so`).
    ///
    /// # Errors
    ///
    /// Any other name: ``unknown engine `name` ``.
    pub fn from_cli_name(name: &str) -> Result<Self, String> {
        CLI_NAMES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, kind)| kind)
            .ok_or_else(|| format!("unknown engine `{name}`"))
    }

    /// The command-line name [`from_cli_name`](Self::from_cli_name)
    /// parses, which the `.ftc` sidecar stores; `None` for the
    /// library-only SO ablation.
    pub fn cli_name(self) -> Option<&'static str> {
        CLI_NAMES
            .iter()
            .find(|&&(_, kind)| kind == self)
            .map(|&(name, _)| name)
    }

    /// Whether the engine splits along the sync/access seam — every
    /// engine but the `sam` reference.
    pub fn has_split(self) -> bool {
        self != EngineKind::Sam
    }

    /// The sampler this engine runs at `rate`: FT ignores the rate and
    /// samples every access.
    pub fn sampler(self, rate: f64, seed: u64) -> BernoulliSampler {
        let rate = if self == EngineKind::FastTrack {
            1.0
        } else {
            rate
        };
        BernoulliSampler::new(rate, seed)
    }

    /// Builds this engine's detector over [`sampler`](Self::sampler)
    /// and hands it to `visitor`.
    pub fn visit<V: EngineVisitor>(self, rate: f64, seed: u64, visitor: V) -> V::Output {
        let sampler = self.sampler(rate, seed);
        match self {
            EngineKind::FastTrack => visitor.split(FastTrackDetector::new(sampler), sampler),
            EngineKind::St => visitor.split(DjitDetector::new(sampler), sampler),
            EngineKind::Sam => visitor.sam(NaiveSamplingDetector::new(sampler)),
            EngineKind::Su => visitor.split(FreshnessDetector::new(sampler), sampler),
            EngineKind::So => visitor.split(OrderedListDetector::new(sampler), sampler),
            EngineKind::SoPlain => {
                visitor.split(OrderedListDetector::with_options(sampler, false), sampler)
            }
        }
    }
}

/// An engine × sampling-rate × seed configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// Which engine to run.
    pub kind: EngineKind,
    /// Sampling rate in `[0, 1]`.
    pub rate: f64,
    /// Sampler seed (keep equal across engines for apples-to-apples
    /// comparisons).
    pub seed: u64,
}

impl EngineConfig {
    /// Creates a configuration.
    pub fn new(kind: EngineKind, rate: f64, seed: u64) -> Self {
        EngineConfig { kind, rate, seed }
    }

    /// The paper's label style: `SU-(3%)`, `SO-(0.3%)`, `FT`.
    pub fn label(&self) -> String {
        if matches!(self.kind, EngineKind::FastTrack) {
            return "FT".to_owned();
        }
        let pct = self.rate * 100.0;
        let pct = if (pct - pct.round()).abs() < 1e-9 && pct >= 1.0 {
            format!("{}", pct.round() as u64)
        } else {
            format!("{pct}")
        };
        format!("{}-({pct}%)", self.kind.short_name())
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The outcome of one engine run over one trace.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// Display label (`SO-(3%)` etc.).
    pub label: String,
    /// The detector's [`Detector::name`] (`"SO"`, `"Djit+"`, …).
    pub name: &'static str,
    /// All race reports, in trace order.
    pub reports: Vec<RaceReport>,
    /// The detector's work counters.
    pub counters: Counters,
    /// Wall-clock analysis time.
    pub elapsed: Duration,
}

impl EngineRun {
    /// Number of distinct racy memory locations (the metric of
    /// Fig. 6(a)).
    pub fn racy_locations(&self) -> usize {
        self.reports
            .iter()
            .map(|r| r.var)
            .collect::<HashSet<_>>()
            .len()
    }
}

/// Runs one engine configuration over a streaming [`EventSource`] —
/// the primary entry point; the engine never materializes the trace,
/// so corpus files stream through in constant memory.
///
/// Event numbering is by stream position, so running over a trace file
/// and over the same trace materialized produce identical reports
/// (with identical sample sets: the sampler is seeded per config, not
/// per input representation).
///
/// # Errors
///
/// Propagates the first error the source reports.
pub fn run_engine_source(
    source: &mut dyn EventSource,
    config: &EngineConfig,
) -> Result<EngineRun, SourceError> {
    /// Streams the source through whichever detector the engine builds.
    struct Drive<'a> {
        source: &'a mut dyn EventSource,
        label: String,
    }

    impl Drive<'_> {
        fn run<D: Detector>(self, mut d: D) -> Result<EngineRun, SourceError> {
            let start = Instant::now();
            let reports = d.run_source(self.source)?;
            Ok(EngineRun {
                label: self.label,
                name: d.name(),
                reports,
                counters: *d.counters(),
                elapsed: start.elapsed(),
            })
        }
    }

    impl EngineVisitor for Drive<'_> {
        type Output = Result<EngineRun, SourceError>;

        fn split<D>(self, detector: D, _: BernoulliSampler) -> Self::Output
        where
            D: SplitDetector + 'static,
            D::Sync: CheckpointState,
            D::Access: CheckpointState,
        {
            self.run(detector)
        }

        fn sam(self, detector: NaiveSamplingDetector<BernoulliSampler>) -> Self::Output {
            self.run(detector)
        }
    }

    let label = config.label();
    config
        .kind
        .visit(config.rate, config.seed, Drive { source, label })
}

/// Runs one engine configuration over a materialized trace — a thin
/// wrapper over [`run_engine_source`] driving the trace's source view.
pub fn run_engine(trace: &Trace, config: &EngineConfig) -> EngineRun {
    run_engine_source(&mut trace.source(), config)
        .expect("materialized traces never fail to stream")
}

#[cfg(test)]
mod tests {
    use super::*;
    use freshtrack_workloads::{generate, WorkloadConfig};

    #[test]
    fn labels_match_paper_style() {
        assert_eq!(
            EngineConfig::new(EngineKind::Su, 0.03, 0).label(),
            "SU-(3%)"
        );
        assert_eq!(
            EngineConfig::new(EngineKind::So, 0.003, 0).label(),
            "SO-(0.3%)"
        );
        assert_eq!(
            EngineConfig::new(EngineKind::So, 1.0, 0).label(),
            "SO-(100%)"
        );
        assert_eq!(
            EngineConfig::new(EngineKind::FastTrack, 1.0, 0).label(),
            "FT"
        );
        assert_eq!(
            EngineConfig::new(EngineKind::St, 0.1, 0).label(),
            "ST-(10%)"
        );
    }

    #[test]
    fn cli_names_round_trip_through_parse_and_print() {
        for name in ["ft", "st", "sam", "su", "so"] {
            let kind = EngineKind::from_cli_name(name).unwrap();
            assert_eq!(kind.cli_name(), Some(name));
        }
        assert_eq!(
            EngineKind::from_cli_name("xx").unwrap_err(),
            "unknown engine `xx`"
        );
        assert_eq!(EngineKind::SoPlain.cli_name(), None);
    }

    #[test]
    fn ft_samples_everything_at_any_rate() {
        for rate in [0.0, 0.03, 0.5, 1.0] {
            assert_eq!(
                EngineKind::FastTrack.sampler(rate, 7),
                BernoulliSampler::new(1.0, 7)
            );
            assert_eq!(
                EngineKind::Su.sampler(rate, 7),
                BernoulliSampler::new(rate, 7)
            );
        }
    }

    #[test]
    fn sam_is_the_only_kind_without_a_split() {
        /// Whether the table built a split engine.
        struct IsSplit;
        impl EngineVisitor for IsSplit {
            type Output = bool;
            fn split<D>(self, _: D, _: BernoulliSampler) -> bool
            where
                D: SplitDetector + 'static,
                D::Sync: CheckpointState,
                D::Access: CheckpointState,
            {
                true
            }
            fn sam(self, _: NaiveSamplingDetector<BernoulliSampler>) -> bool {
                false
            }
        }
        for kind in [
            EngineKind::FastTrack,
            EngineKind::St,
            EngineKind::Sam,
            EngineKind::Su,
            EngineKind::So,
            EngineKind::SoPlain,
        ] {
            let split = kind != EngineKind::Sam;
            assert_eq!(kind.visit(0.5, 1, IsSplit), split, "{kind:?}");
            assert_eq!(kind.has_split(), split, "{kind:?}");
        }
    }

    #[test]
    fn sampling_engines_agree_on_reports() {
        let trace = generate(&WorkloadConfig::named("t").events(4_000).unprotected(0.05));
        let runs: Vec<EngineRun> = [
            EngineKind::St,
            EngineKind::Sam,
            EngineKind::Su,
            EngineKind::So,
        ]
        .iter()
        .map(|&kind| run_engine(&trace, &EngineConfig::new(kind, 0.5, 9)))
        .collect();
        for pair in runs.windows(2) {
            assert_eq!(pair[0].reports, pair[1].reports);
        }
    }

    #[test]
    fn streamed_and_materialized_runs_agree() {
        use freshtrack_trace::{write_trace, EventReader};
        let trace = generate(&WorkloadConfig::named("t").events(3_000).unprotected(0.1));
        let text = write_trace(&trace);
        for kind in [EngineKind::FastTrack, EngineKind::So] {
            let config = EngineConfig::new(kind, 0.5, 3);
            let materialized = run_engine(&trace, &config);
            let mut reader = EventReader::new(text.as_bytes());
            let streamed = run_engine_source(&mut reader, &config).unwrap();
            assert_eq!(materialized.reports, streamed.reports);
            assert_eq!(materialized.counters, streamed.counters);
        }
    }

    #[test]
    fn racy_locations_deduplicate() {
        let trace = generate(
            &WorkloadConfig::named("t")
                .events(3_000)
                .unprotected(0.3)
                .vars(4)
                .hot_fraction(1.0),
        );
        let run = run_engine(&trace, &EngineConfig::new(EngineKind::FastTrack, 1.0, 0));
        assert!(run.racy_locations() <= 4);
        assert!(run.racy_locations() >= 1);
        assert!(run.reports.len() >= run.racy_locations());
    }
}
