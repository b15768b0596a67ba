//! The four workloads and their request sequences.  Every sequence is a
//! pure function of the workload seed: op `i` of a run with seed `s` sends
//! the same bytes on every host and every commit.

/// Ops whose evaluation seeds are at or above this index are warm-up ops:
/// they never collide with a measured op.
pub const WARMUP_BASE: u64 = 1 << 19;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold `/v1/evaluate` with Bit-Flip at sample cap 15 000.
    EvaluateBitflip,
    /// Cold lossless `/v1/evaluate` at the default sample cap.
    EvaluateLossless,
    /// Streaming `/v1/design` over the `small` sweep space.
    Design,
    /// Replays of cached evaluate responses from the memory and disk tiers.
    Replay,
}

/// Keys populated before a replay run (the cold evaluate responses).
pub const REPLAY_KEYS: u64 = 64;
/// Report-cache capacity of the replay server: below [`REPLAY_KEYS`], so
/// the cold tail of the key stream is answered from the disk tier.
pub const REPLAY_CACHE_CAPACITY: usize = 24;
/// Zipf exponent of the replay key stream.
pub const REPLAY_ZIPF_S: f64 = 1.1;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EvaluateBitflip,
        Workload::EvaluateLossless,
        Workload::Design,
        Workload::Replay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EvaluateBitflip => "evaluate_bitflip",
            Workload::EvaluateLossless => "evaluate_lossless",
            Workload::Design => "design",
            Workload::Replay => "replay",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn path(self) -> &'static str {
        match self {
            Workload::Design => "/v1/design",
            _ => "/v1/evaluate",
        }
    }

    /// Warm-up ops run by each set-up (replay warms by populating its keys).
    pub fn warmup_ops(self) -> u64 {
        match self {
            Workload::EvaluateBitflip | Workload::EvaluateLossless => 2,
            Workload::Design => 1,
            Workload::Replay => 0,
        }
    }

    /// Ops replayed in-process by the traced run.
    pub fn traced_ops(self) -> usize {
        match self {
            Workload::EvaluateBitflip | Workload::EvaluateLossless => 48,
            Workload::Design => 16,
            Workload::Replay => 20_000,
        }
    }

    /// The request body of cold op `index` (for replay: of key `index`).
    pub fn body(self, workload_seed: u64, index: u64) -> String {
        let seed = op_seed(workload_seed, index);
        match self {
            Workload::EvaluateBitflip => {
                format!(r#"{{"model":"resnet18","bitflip":true,"sample_cap":15000,"seed":{seed}}}"#)
            }
            Workload::EvaluateLossless => {
                format!(r#"{{"model":"resnet18","bitflip":false,"seed":{seed}}}"#)
            }
            Workload::Design => format!(r#"{{"space":"small","seed":{seed}}}"#),
            Workload::Replay => {
                format!(r#"{{"model":"resnet18","bitflip":false,"sample_cap":1500,"seed":{seed}}}"#)
            }
        }
    }
}

/// The evaluation seed of op `index`: injective in `(workload_seed mod
/// 2^30, index < 2^20)` and below 2^50, so it survives JSON as an integer.
pub fn op_seed(workload_seed: u64, index: u64) -> u64 {
    ((workload_seed % (1 << 30)) << 20) | (index % (1 << 20))
}

/// SplitMix64: a small deterministic generator for the replay key stream.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_B17A_7E00_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The replay key stream: Zipf(`REPLAY_ZIPF_S`) over [`REPLAY_KEYS`] keys,
/// with ranks assigned to keys by a seeded shuffle.
pub struct ReplayStream {
    rng: SplitMix,
    keys: Vec<u64>,
    cdf: Vec<f64>,
}

impl ReplayStream {
    pub fn new(workload_seed: u64) -> Self {
        let mut rng = SplitMix::new(workload_seed);
        let mut keys: Vec<u64> = (0..REPLAY_KEYS).collect();
        for i in (1..keys.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            keys.swap(i, j);
        }
        let weights: Vec<f64> = (1..=REPLAY_KEYS)
            .map(|rank| 1.0 / (rank as f64).powf(REPLAY_ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { rng, keys, cdf }
    }

    /// The next key, in `0..REPLAY_KEYS`.
    pub fn next_key(&mut self) -> u64 {
        let u = self.rng.next_f64();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.keys.len() - 1);
        self.keys[rank]
    }
}
