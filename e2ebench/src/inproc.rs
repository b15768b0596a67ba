//! The in-process replay of a workload's request sequence, run in a child
//! process of its own so that every replay starts with cold process-wide
//! caches, as a fresh server does.
//!
//! It calls each layer's public functions in the server's order, one op at
//! a time and one layer job at a time (the sequential stage-by-stage path),
//! and prints one line per op:
//!
//! `op <index> <wall_ns> <check> <layer=ns;...> <count=n;...>`
//!
//! `check` is what the parent compares the server's answer against: the
//! evaluate `report_digest`, the digest of the design `FrontReport` line,
//! or the replay tier (`hit` / `disk`).

use crate::trace::Tracer;
use crate::workload::{ReplayStream, Workload, REPLAY_CACHE_CAPACITY, REPLAY_KEYS};
use bitwave::digest::Digest;
use bitwave::dnn::weights::NetworkWeights;
use bitwave::pipeline::{
    BitFlipStage, CompressStage, MapStage, ModelReport, Pipeline, PipelineStage, SimulateStage,
};
use bitwave_serve::EvaluateRequest;
use bitwave_store::{StoreConfig, StoreOutcome, StringCodec, TieredStore};
use bitwave_sweep::{
    assemble_report, build_portfolio, enumerate, evaluate_point_factored, global_eval_engine,
    run_with_progress, SweepLedger,
};
use bitwave_tensor::bits::Encoding;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

/// Which path an in-process replay runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The correctness reference: the stage-by-stage evaluate path, and
    /// `run_with_progress(config, None, ..)` (one thread) for design.
    Reference,
    /// The traced layer path with span recording off.
    Untraced,
    /// The traced layer path with span recording on.
    Traced,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Reference => "reference",
            Mode::Untraced => "untraced",
            Mode::Traced => "traced",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        [Mode::Reference, Mode::Untraced, Mode::Traced]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

/// Per-op work counts, printed beside the layer times.
#[derive(Default)]
struct Counts(Vec<(&'static str, u64)>);

impl Counts {
    fn add(&mut self, name: &'static str, n: u64) {
        match self.0.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += n,
            None => self.0.push((name, n)),
        }
    }
}

fn pairs<T: std::fmt::Display>(items: &[(&'static str, T)]) -> String {
    if items.is_empty() {
        return "-".to_string();
    }
    items
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(";")
}

/// The `report_digest` field of an evaluate response envelope.
pub fn report_digest(body: &[u8]) -> Option<&str> {
    const FIELD: &[u8] = br#""report_digest":""#;
    let at = body.windows(FIELD.len()).position(|w| w == FIELD)? + FIELD.len();
    std::str::from_utf8(body.get(at..at + 32)?).ok()
}

/// The check value of a design op: the digest of its final report line.
pub fn front_digest(line: &[u8]) -> String {
    Digest::of_bytes(line).to_hex()
}

/// One cold evaluation through the server's layers, sequentially: weight
/// generation, planning, compress → bit-flip → map → simulate per layer
/// job, then report aggregation and the response envelope.  Returns the
/// envelope bytes the server would send.
fn evaluate_envelope(
    tracer: &mut Tracer,
    op: u64,
    parent: Option<usize>,
    body: &str,
    counts: &mut Counts,
) -> Result<String, String> {
    let normalized = EvaluateRequest::from_json(body.as_bytes())
        .and_then(|r| r.normalize())
        .map_err(|e| e.to_string())?;
    let digest = normalized.key.digest().map_err(|e| e.to_string())?;
    let knobs = &normalized.key.knobs;
    let weights = tracer.time("dnn.generate", op, parent, || {
        NetworkWeights::generate_sampled(&normalized.spec, knobs.seed, knobs.sample_cap)
    });
    counts.add("dnn.weights_generated", 1);
    let (pipeline, jobs) = tracer.time("bitwave.plan", op, parent, || {
        let mut pipeline =
            Pipeline::new(knobs.to_context()).with_accelerator(normalized.accelerator.clone());
        if normalized.key.bitflip {
            pipeline = pipeline.with_default_bitflip(&normalized.spec);
        }
        let jobs = pipeline.jobs_with_weights(&normalized.spec, &weights);
        (pipeline, jobs)
    });
    let jobs = jobs.map_err(|e| e.to_string())?;
    let ctx = pipeline.context();
    let accelerator = pipeline.accelerator();
    // `Pipeline::new` runs the sign-magnitude encoding the hardware uses.
    let compress = CompressStage::new(Encoding::SignMagnitude);
    let flip = BitFlipStage::new(Encoding::SignMagnitude);
    let map = MapStage::new(accelerator.clone())
        .with_policy(ctx.mapping_policy)
        .with_cost_tables(ctx.memory, ctx.energy);
    let simulate = SimulateStage::new(accelerator.clone(), ctx.memory, ctx.energy);
    let mut layers = Vec::with_capacity(jobs.len());
    for job in jobs {
        let compressed = tracer
            .time("core.compress", op, parent, || compress.run(job))
            .map_err(|e| e.to_string())?;
        counts.add("core.groups", compressed.planes.num_groups() as u64);
        let flipped = tracer
            .time("core.bitflip", op, parent, || flip.run(compressed))
            .map_err(|e| e.to_string())?;
        if flipped.bitflip.is_some() {
            counts.add("core.bitflip_layers_flipped", 1);
        }
        let mapped = tracer
            .time("dataflow.map", op, parent, || map.run(flipped))
            .map_err(|e| e.to_string())?;
        layers.push(
            tracer
                .time("accel.simulate", op, parent, || simulate.run(mapped))
                .map_err(|e| e.to_string())?,
        );
    }
    let envelope = tracer
        .time("bitwave.report", op, parent, || {
            let report = ModelReport::from_layers(
                normalized.spec.name.clone(),
                accelerator.label.clone(),
                layers,
            );
            normalized.envelope(&digest, &report)
        })
        .map_err(|e| e.to_string())?;
    counts.add("bitwave.response_bytes", envelope.len() as u64);
    Ok(envelope)
}

/// One design sweep through the sweep layers in `run_with_progress`'s
/// order: portfolio build, per-point factored evaluation (the first point
/// of each compute group factors it, the rest re-price), report assembly.
/// Returns the final report line.
fn design_front(
    tracer: &mut Tracer,
    op: u64,
    parent: Option<usize>,
    body: &str,
    counts: &mut Counts,
) -> Result<String, String> {
    let config = bitwave_serve::design::parse_design(body.as_bytes()).map_err(|e| e.to_string())?;
    // Groups are keyed by seed, so a new op never reuses an old one;
    // clearing lets `groups_held` tell a factoring call from a re-pricing.
    global_eval_engine().clear();
    let portfolio = tracer.time("sweep.portfolio", op, parent, || build_portfolio(&config))?;
    let ledger = SweepLedger::open(&config, None).map_err(|e| e.to_string())?;
    for point in enumerate(&config) {
        let held = global_eval_engine().groups_held();
        let span = tracer.open("dse.reprice", op, parent);
        let result = evaluate_point_factored(&point, &config, &portfolio);
        ledger.publish(point.index, result);
        tracer.close(span);
        counts.add("sweep.points_evaluated", 1);
        if global_eval_engine().groups_held() > held {
            tracer.rename(span, "dse.factor");
            counts.add("dse.groups_factored", 1);
        }
    }
    let report = tracer
        .time("sweep.assemble", op, parent, || {
            assemble_report(&config, &ledger)
        })
        .ok_or("sweep completed but results are missing")?;
    serde_json::to_string(&report).map_err(|e| e.to_string())
}

fn design_reference(body: &str) -> Result<String, String> {
    let config = bitwave_serve::design::parse_design(body.as_bytes()).map_err(|e| e.to_string())?;
    let (report, _) = run_with_progress(&config, None, |_| {}).map_err(|e| e.to_string())?;
    serde_json::to_string(&report).map_err(|e| e.to_string())
}

/// The check value and layer times of op `index` of a compute workload.
fn compute_op(
    workload: Workload,
    seed: u64,
    index: u64,
    mode: Mode,
    tracer: &mut Tracer,
    out: &mut impl Write,
) -> Result<(), String> {
    let body = workload.body(seed, index);
    let mut counts = Counts::default();
    let start = Instant::now();
    let root = tracer.open("op", index, None);
    let check = match (workload, mode) {
        (Workload::Design, Mode::Reference) => front_digest(design_reference(&body)?.as_bytes()),
        (Workload::Design, _) => {
            front_digest(design_front(tracer, index, root, &body, &mut counts)?.as_bytes())
        }
        _ => {
            let envelope = evaluate_envelope(tracer, index, root, &body, &mut counts)?;
            report_digest(envelope.as_bytes())
                .ok_or("envelope without report_digest")?
                .to_string()
        }
    };
    tracer.close(root);
    let wall_ns = start.elapsed().as_nanos();
    let layers = tracer.child_totals(root);
    writeln!(
        out,
        "op\t{index}\t{wall_ns}\t{check}\t{}\t{}",
        pairs(&layers),
        pairs(&counts.0)
    )
    .map_err(|e| e.to_string())
}

/// The replay workload in-process: compute the cold bodies, populate a
/// fresh tiered store configured like the replay server's report cache
/// (timing each disk write), then replay the key stream through
/// `TieredStore::probe`, the lookup the server's event loop makes.
fn replay(seed: u64, ops: u64, tracer: &mut Tracer, out: &mut impl Write) -> Result<(), String> {
    let root = PathBuf::from(format!(".bench_out/inproc-store-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let config = StoreConfig::default()
        .with_mem_entries(REPLAY_CACHE_CAPACITY)
        .with_root(&root);
    let store = TieredStore::<StringCodec>::new("evaluate", &config).map_err(|e| e.to_string())?;
    let mut digests = Vec::with_capacity(REPLAY_KEYS as usize);
    for key in 0..REPLAY_KEYS {
        let body = Workload::Replay.body(seed, key);
        let envelope = evaluate_envelope(
            &mut Tracer::new(false),
            key,
            None,
            &body,
            &mut Counts::default(),
        )?;
        let digest = EvaluateRequest::from_json(body.as_bytes())
            .and_then(|r| r.normalize())
            .and_then(|n| n.key.digest())
            .map_err(|e| e.to_string())?;
        let line = format!("key\t{key}\t{}", front_digest(envelope.as_bytes()));
        let start = Instant::now();
        let span = tracer.open("store.disk_write", key, None);
        store
            .get_or_compute(digest, || Ok::<_, String>(envelope), |e| e)
            .map_err(|e| e.to_string())?;
        tracer.close(span);
        let write_ns = start.elapsed().as_nanos();
        writeln!(out, "{line}\nwrite\t{key}\t{write_ns}").map_err(|e| e.to_string())?;
        digests.push(digest);
    }
    let mut stream = ReplayStream::new(seed);
    for index in 0..ops {
        let key = stream.next_key();
        let start = Instant::now();
        let root_span = tracer.open("op", index, None);
        let found = tracer.time("store.lookup", index, root_span, || {
            store
                .probe(digests[key as usize])
                .map(|(_, outcome)| outcome)
        });
        tracer.close(root_span);
        let wall_ns = start.elapsed().as_nanos();
        let check = match found {
            Some(StoreOutcome::Hit) => "hit",
            Some(StoreOutcome::Disk) => "disk",
            _ => "absent",
        };
        let layers = tracer.child_totals(root_span);
        writeln!(
            out,
            "op\t{index}\t{wall_ns}\t{check}\t{}\t-",
            pairs(&layers)
        )
        .map_err(|e| e.to_string())?;
    }
    let _ = fs::remove_dir_all(&root);
    Ok(())
}

/// `inproc --workload W --seed S --mode M --from A --to B --step K [--spans FILE]`
pub fn main(args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut mode = Mode::Reference;
    let (mut from, mut to, mut step) = (0u64, 0u64, 1u64);
    let mut spans = None;
    for pair in args.chunks(2) {
        let value = pair
            .get(1)
            .ok_or_else(|| format!("missing value for {}", pair[0]))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{}: {e}", pair[0]))
        };
        match pair[0].as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = number()?,
            "--mode" => mode = Mode::parse(value).ok_or("unknown mode")?,
            "--from" => from = number()?,
            "--to" => to = number()?,
            "--step" => step = number()?.max(1),
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing or unknown --workload")?;
    let mut tracer = Tracer::new(mode == Mode::Traced);
    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    if workload == Workload::Replay {
        if from != 0 || step != 1 {
            return Err("the replay stream is stateful: replay it from op 0".to_string());
        }
        replay(seed, to, &mut tracer, &mut out)?;
    } else {
        for index in (from..to).step_by(step as usize) {
            compute_op(workload, seed, index, mode, &mut tracer, &mut out)?;
        }
    }
    out.flush().map_err(|e| e.to_string())?;
    if let Some(path) = spans {
        let file = fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        tracer
            .write(&mut BufWriter::new(file))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}
