//! The BSP executor rates a step once per (phase, cluster state) and reuses
//! that rating until it advances the cluster. These tests pin the executor's
//! outputs bit for bit to values captured before the reuse existed, and
//! check that a traced run takes the same path as an untraced one.

use nlrm::mpi::{execute_traced, Collective, Message, Phase, TraceCtx, Workload};
use nlrm::obs::span::TraceId;
use nlrm::prelude::*;
use nlrm::topology::NodeId;

/// Alternates between two phase shapes every step, so no step can reuse
/// the previous step's rating.
struct Alternating {
    steps: usize,
}

impl Workload for Alternating {
    fn name(&self) -> String {
        "alternating".into()
    }
    fn steps(&self) -> usize {
        self.steps
    }
    fn phase(&self, step: usize, comm: &Communicator) -> Phase {
        let p = comm.size();
        if step.is_multiple_of(2) {
            Phase {
                compute_gcycles: vec![0.05; p],
                messages: (0..p)
                    .map(|i| Message {
                        src: i,
                        dst: (i + 1) % p,
                        bytes: 2e6,
                    })
                    .collect(),
                collectives: vec![Collective::Allreduce { bytes: 64.0 }],
            }
        } else {
            Phase {
                compute_gcycles: (0..p).map(|i| 0.02 * (1 + i % 3) as f64).collect(),
                messages: Vec::new(),
                collectives: vec![
                    Collective::AllToAll { bytes: 1e4 },
                    Collective::Bcast {
                        root: 0,
                        bytes: 1e5,
                    },
                ],
            }
        }
    }
}

/// `procs` ranks at 4 per node on every third node of the 60-node cluster,
/// so larger jobs cross switches.
fn spread(procs: usize) -> Communicator {
    let map = (0..procs)
        .map(|rank| NodeId((rank / 4 * 3) as u32))
        .collect();
    Communicator::new(map)
}

fn cluster(seed: u64) -> ClusterSim {
    let mut c = iitk_cluster(seed);
    c.advance(Duration::from_secs(120));
    c
}

/// (name, seed, procs, workload)
fn cases() -> Vec<(&'static str, u64, usize, Box<dyn Workload>)> {
    vec![
        ("minimd-8", 1, 8, Box::new(MiniMd::new(24).with_steps(100))),
        (
            "minimd-64",
            2,
            64,
            Box::new(MiniMd::new(24).with_steps(100)),
        ),
        ("minife-8", 3, 8, Box::new(MiniFe::new(96))),
        ("minife-64", 4, 64, Box::new(MiniFe::new(96))),
        (
            "alternating-16",
            5,
            16,
            Box::new(Alternating { steps: 150 }),
        ),
        (
            "minimd-long-16",
            6,
            16,
            Box::new(MiniMd::new(32).with_steps(400)),
        ),
    ]
}

/// `JobTiming` as exact bits: total, compute, comm, mean load per core,
/// and the step count.
fn bits(t: &JobTiming) -> [u64; 5] {
    [
        t.total_s.to_bits(),
        t.compute_s.to_bits(),
        t.comm_s.to_bits(),
        t.mean_load_per_core.to_bits(),
        t.steps as u64,
    ]
}

/// Captured from the executor before it reused step ratings.
const GOLDEN: [(&str, [u64; 5]); 6] = [
    (
        "minimd-8",
        [
            0x401ffdb4f7becd28,
            0x401e0d5b450239e3,
            0x3fdf059b2bc934f0,
            0x3fd67393dbeba0ad,
            100,
        ],
    ),
    (
        "minimd-64",
        [
            0x400369dc86974900,
            0x3fee0d5b450239e3,
            0x3ff7cd0b6aad7502,
            0x3fd9e81f120d848a,
            100,
        ],
    ),
    (
        "minife-8",
        [
            0x4013448a26d27ab9,
            0x400d2a7571dd8056,
            0x3ff2bd3db78eea7e,
            0x3fd67c7ac7cda6a7,
            201,
        ],
    ),
    (
        "minife-64",
        [
            0x403256f70e7ad9a4,
            0x3fdd2a7571dd8056,
            0x4031e24d38b36388,
            0x3fdc05eb2a97dd95,
            201,
        ],
    ),
    (
        "alternating-16",
        [
            0x4025a035434f0cd1,
            0x3ffcb21642c8590e,
            0x402209f27af6019f,
            0x3fd93e0f11dda410,
            150,
        ],
    ),
    (
        "minimd-long-16",
        [
            0x4046c6fe9b4f5abf,
            0x4041cf06ada28113,
            0x4023dfdfb6b366a7,
            0x3fddb298f73eb9ae,
            400,
        ],
    ),
];

#[test]
fn executor_reproduces_golden_timings_bit_for_bit() {
    for ((name, seed, procs, workload), (golden_name, golden)) in cases().into_iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        let timing = execute(&mut cluster(seed), &spread(procs), workload.as_ref());
        assert_eq!(bits(&timing), golden, "{name}: {timing:?}");
    }
}

#[test]
fn long_cases_cross_cluster_advances_mid_job() {
    // the executor advances the cluster in 5 s quanta whenever its pending
    // time crosses 5 s; with sub-quantum steps, a job of T seconds crosses
    // floor(T / 5) advances, each of which clears the reused rating
    for (name, seed, procs, workload) in cases() {
        let timing = execute(&mut cluster(seed), &spread(procs), workload.as_ref());
        assert!(timing.total_s / (timing.steps as f64) < 5.0, "{name}");
        let advances = (timing.total_s / 5.0).floor();
        if name.starts_with("alternating") {
            assert!(advances >= 2.0, "{name}: {advances} advances");
        }
        if name.starts_with("minimd-long") {
            assert!(advances >= 3.0, "{name}: {advances} advances");
        }
    }
}

#[test]
fn traced_run_matches_untraced_and_spans_every_step() {
    for (name, seed, procs, workload) in cases() {
        let comm = spread(procs);
        let plain = execute(&mut cluster(seed), &comm, workload.as_ref());

        let obs = Obs::new();
        let trace = TraceId::for_job(seed);
        let traced = {
            let _g = nlrm::obs::install(&obs);
            let tc = TraceCtx {
                trace,
                parent: None,
            };
            execute_traced(&mut cluster(seed), &comm, workload.as_ref(), Some(&tc))
        };
        assert_eq!(bits(&traced), bits(&plain), "{name}: traced differs");

        let spans = obs.spans.trace_spans(trace);
        assert_eq!(obs.spans.open_count(), 0, "{name}: dangling spans");
        let steps: Vec<_> = spans.iter().filter(|s| s.kind == "step").collect();
        assert_eq!(steps.len(), plain.steps, "{name}: one step span per step");
        for (step, span) in steps.iter().enumerate() {
            let phase = workload.phase(step, &comm);
            let children: Vec<_> = spans.iter().filter(|s| s.parent == Some(span.id)).collect();
            let count = |kind: &str| children.iter().filter(|s| s.kind == kind).count();
            let with_work = phase.compute_gcycles.iter().filter(|&&w| w > 0.0).count();
            assert_eq!(count("compute"), with_work, "{name} step {step}");
            assert_eq!(
                count("p2p"),
                usize::from(!phase.messages.is_empty()),
                "{name} step {step}"
            );
            assert_eq!(
                count("collective"),
                phase.collectives.len(),
                "{name} step {step}"
            );
            assert_eq!(
                children.len(),
                with_work + count("p2p") + count("collective")
            );
        }
    }
}
