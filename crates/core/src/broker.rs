//! A multi-job resource broker on top of the allocator.
//!
//! The paper deploys its allocator as a *resource broker* users submit MPI
//! jobs to (abstract, §1). One job at a time is what the evaluation runs;
//! this module supplies the broker around it for continuous operation:
//! a priority queue with aging, **reservation accounting** so that
//! concurrently running jobs never double-book the effective processor
//! count, EASY-style backfill behind a capacity-reserved queue head,
//! admission control under overload, and wait-deferral via the §6 advisor
//! thresholds.
//!
//! # The scheduling cycle
//!
//! Deriving [`Loads`] is an O(V²) matrix build, so one tick derives once
//! per distinct *request shape* (ppn + weight vectors), not once per
//! queued job. It scores the first [`BrokerConfig::max_per_tick`] jobs of
//! the priority order against that shared derivation and commits starts
//! greedily against the reservation ledger. Each placement scores a
//! [`Loads::restrict`] view cut to the derivation's free column (kept
//! current per start), which is O(V) and shares its network load.
//!
//! # Starvation and the head reservation
//!
//! Conservative backfill ("a later job may start only if the head still
//! cannot") lets a stream of small jobs starve a large queue head forever:
//! each small job grabs the free capacity the head is waiting for. The
//! cycle instead reserves capacity for the first capacity-blocked
//! job: from the expected completion times of running jobs it computes the
//! *shadow time* at which the head provably fits, and a later job may
//! start only if it finishes by the shadow time or fits in the capacity
//! left over once the head starts. Priority aging is the second backstop:
//! every second of queue wait adds [`BrokerConfig::aging_rate`] points.

use crate::advisor::load_per_core;
use crate::loads::Loads;
use crate::policies::place;
use crate::request::{AllocError, Allocation, AllocationRequest};
use nlrm_monitor::ClusterSnapshot;
use nlrm_obs::span::{SpanId, TraceId};
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::NodeId;
use std::borrow::Cow;
use std::collections::{btree_map, BTreeMap, HashMap, VecDeque};

/// Histogram bucket bounds (seconds) for job queue-wait time.
const JOB_WAIT_BOUNDS: &[f64] = &[0.0, 10.0, 30.0, 60.0, 120.0, 300.0, 900.0, 3600.0];

/// Broker-assigned job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl JobId {
    /// The job's trace id: deterministic, so executors and reports can name
    /// a job's trace without the broker in hand.
    pub fn trace(self) -> TraceId {
        TraceId::for_job(self.0)
    }
}

/// Fairness class of a job. Ordered `Batch < Normal < Urgent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PriorityClass {
    /// Throughput work: runs when nothing more pressing waits.
    Batch,
    /// The default interactive class.
    #[default]
    Normal,
    /// Latency-sensitive work: scheduled ahead of everything else.
    Urgent,
}

impl PriorityClass {
    /// Base priority points of the class. Aging adds
    /// [`BrokerConfig::aging_rate`] points per second of queue wait, so a
    /// `Normal` job overtakes a fresh `Urgent` one after
    /// `100 / aging_rate` seconds — classes bias, they never starve.
    pub fn base_priority(self) -> f64 {
        match self {
            PriorityClass::Batch => 0.0,
            PriorityClass::Normal => 100.0,
            PriorityClass::Urgent => 200.0,
        }
    }
}

/// What happens to a submission when the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionPolicy {
    /// Accept everything (the queue grows without bound).
    Unbounded,
    /// Reject new submissions once `max_queue` jobs wait
    /// ([`AllocError::QueueFull`], plus a `job_rejected` journal event).
    Reject {
        /// Queue length at which submissions start bouncing.
        max_queue: usize,
    },
    /// Evict the lowest-class (youngest within the class) queued job to
    /// make room — unless the new job itself is the lowest, in which case
    /// it is rejected instead. Sheds emit a `job_shed` journal event.
    Shed {
        /// Queue length at which shedding starts.
        max_queue: usize,
    },
}

/// Broker configuration.
#[derive(Debug, Clone, Copy)]
pub struct BrokerConfig {
    /// Defer jobs whose best group's mean CPU load per core exceeds this
    /// (§6's "recommend waiting"); `None` disables deferral.
    pub max_load_per_core: Option<f64>,
    /// Queue prefix, in priority order, scored per tick; jobs beyond it
    /// stay queued untouched (and unannounced) until the backlog drains.
    pub max_per_tick: usize,
    /// What happens to submissions when the queue is full.
    pub admission: AdmissionPolicy,
    /// Priority points added per second of queue wait (virtual time).
    pub aging_rate: f64,
    /// Assumed walltime for jobs submitted without one, used for the
    /// backfill shadow-time forecast. `None` means such jobs make no
    /// completion promise and can never be counted on (nor backfilled
    /// past a reserved head on the finishes-in-time rule).
    pub default_walltime: Option<Duration>,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            max_load_per_core: Some(1.5),
            max_per_tick: 64,
            admission: AdmissionPolicy::Unbounded,
            aging_rate: 1.0,
            default_walltime: Some(Duration::from_hours(1)),
        }
    }
}

/// Per-submission options beyond the allocation request itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Fairness class.
    pub class: PriorityClass,
    /// Declared walltime: feeds the backfill shadow-time forecast.
    pub walltime: Option<Duration>,
    /// Virtual submit time; jobs without one are stamped at their first
    /// tick so aging and the wait histogram still work.
    pub submitted_at: Option<SimTime>,
}

/// A queued job.
#[derive(Debug, Clone)]
struct QueuedJob {
    id: JobId,
    name: String,
    request: AllocationRequest,
    class: PriorityClass,
    /// Declared walltime, if any.
    walltime: Option<Duration>,
    /// Virtual submit time, when known; feeds aging and the queue-wait
    /// histogram.
    submitted_at: Option<SimTime>,
    /// Whether an `alloc_requested` event was already journaled.
    announced: bool,
    /// Root span of the job's trace, opened when the job is announced to
    /// an installed observer.
    root_span: Option<SpanId>,
}

/// A running job's lease.
#[derive(Debug, Clone)]
pub struct Lease {
    /// The job.
    pub id: JobId,
    /// Job display name.
    pub name: String,
    /// The job's trace id (always valid; equals `id.trace()`).
    pub trace: TraceId,
    /// Root span of the job's trace, when an observer recorded one — the
    /// parent under which execution spans should hang.
    pub root_span: Option<SpanId>,
    /// The allocation it holds.
    pub allocation: Allocation,
}

/// Broker-side metadata for a running job (kept off the [`Lease`] so
/// externally constructed leases stay plain data).
#[derive(Debug, Clone)]
struct RunMeta {
    /// When the job is expected to release its nodes (start + walltime);
    /// `None` for jobs that declared nothing and have no default.
    expected_end: Option<SimTime>,
}

/// What happened during one scheduling pass.
#[derive(Debug, Clone)]
pub enum BrokerEvent {
    /// A job was granted nodes (boxed: a `Lease` carries a whole
    /// `Allocation` and dwarfs the deferral variant).
    Started(Box<Lease>),
    /// A job stayed queued.
    Deferred {
        /// The job.
        id: JobId,
        /// Why it did not start.
        reason: String,
    },
}

/// Why a placement attempt failed, split by whether freed capacity could
/// cure it: `Capacity` failures arm the head reservation, `Advisory` ones
/// (the §6 "recommend waiting" signal, monitoring gaps) do not.
#[derive(Debug)]
enum PlaceFailure {
    Capacity(String),
    Advisory(String),
}

impl PlaceFailure {
    fn into_message(self) -> String {
        match self {
            PlaceFailure::Capacity(m) | PlaceFailure::Advisory(m) => m,
        }
    }
}

/// Capacity reserved for the first capacity-blocked job of a batch.
#[derive(Debug, Clone)]
struct HeadReservation {
    job: JobId,
    need: u64,
    /// Earliest virtual time the running set's expected completions free
    /// enough capacity for the head; `None` if no forecast exists.
    shadow: Option<SimTime>,
    /// Capacity beyond the head's need at the shadow time — backfill jobs
    /// that outlive the shadow are charged against this.
    extra: u64,
}

/// A derivation the cycle places jobs on, and its free column: each usable
/// node's `pc − reserved` (saturating), kept current as jobs start, so a
/// placement looks no node up in the reservation map.
struct Base<'a> {
    loads: Cow<'a, Loads>,
    free: Vec<u32>,
}

impl<'a> Base<'a> {
    fn new(loads: Cow<'a, Loads>, reserved: &BTreeMap<NodeId, u32>) -> Base<'a> {
        let free = loads.pc.clone();
        let mut base = Base { loads, free };
        base.take(reserved.iter().map(|(&node, &procs)| (node, procs)));
        base
    }

    /// Take `procs` off each listed node the derivation can use.
    fn take(&mut self, held: impl IntoIterator<Item = (NodeId, u32)>) {
        for (node, procs) in held {
            if let Some(i) = self.loads.index(node) {
                self.free[i] = self.free[i].saturating_sub(procs);
            }
        }
    }

    fn free_capacity(&self) -> u64 {
        self.free.iter().map(|&f| f as u64).sum()
    }
}

/// Request shape: the inputs of [`Loads::derive`] that vary per job. Two
/// jobs with the same shape share one derivation per tick.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ShapeKey {
    ppn: Option<u32>,
    /// Bit patterns of the 8 compute weights + 2 network weights.
    weights: [u64; 10],
}

impl ShapeKey {
    fn of(req: &AllocationRequest) -> ShapeKey {
        let c = &req.compute_weights;
        let n = &req.network_weights;
        ShapeKey {
            ppn: req.ppn,
            weights: [
                c.cpu_load.to_bits(),
                c.cpu_util.to_bits(),
                c.flow_rate.to_bits(),
                c.memory.to_bits(),
                c.core_count.to_bits(),
                c.cpu_freq.to_bits(),
                c.total_mem.to_bits(),
                c.users.to_bits(),
                n.latency.to_bits(),
                n.bandwidth.to_bits(),
            ],
        }
    }
}

/// Effective priority: class base plus aging.
fn effective_priority(job: &QueuedJob, now: SimTime, aging_rate: f64) -> f64 {
    let waited = match job.submitted_at {
        Some(t) if t <= now => now.since(t).as_secs_f64(),
        _ => 0.0,
    };
    job.class.base_priority() + aging_rate * waited
}

/// Journal the job's arrival and open its root trace span (first
/// examination only; call only with an observer installed). `cycle` is the
/// scheduling cycle that first examined the job, so incident analysis can
/// tie the arrival to a concrete broker pass.
fn announce(job: &mut QueuedJob, now: SimTime, cycle: u64) {
    use nlrm_obs::{EventKind, Severity};
    job.announced = true;
    let at = job.submitted_at.unwrap_or(now);
    job.root_span = nlrm_obs::ctx::span_start_kv(
        job.id.trace(),
        None,
        "job",
        "broker/jobs",
        at,
        vec![
            ("job".into(), job.name.clone()),
            ("procs".into(), job.request.procs.to_string()),
        ],
    );
    nlrm_obs::ctx::emit_kv(
        Severity::Info,
        at,
        EventKind::AllocRequested {
            job: job.name.clone(),
            procs: job.request.procs,
        },
        vec![
            ("trace".into(), job.id.trace().to_string()),
            ("cycle".into(), cycle.to_string()),
        ],
    );
}

/// Journal a grant, close the queue-wait span, and feed the wait histogram
/// (call only with an observer installed).
fn observe_start(job: &QueuedJob, lease: &Lease, now: SimTime, cycle: u64) {
    use nlrm_obs::{EventKind, Severity};
    // the exact placement travels with the grant, so a root-cause walk can
    // correlate a later load spike with the lease that landed on the node
    let placed: Vec<String> = lease
        .allocation
        .node_list()
        .iter()
        .map(|n| n.index().to_string())
        .collect();
    nlrm_obs::ctx::emit_kv(
        Severity::Info,
        now,
        EventKind::AllocGranted {
            job: job.name.clone(),
            nodes: lease.allocation.node_list().len(),
            cost: lease.allocation.diagnostics.total_cost,
        },
        vec![
            ("trace".into(), job.id.trace().to_string()),
            ("cycle".into(), cycle.to_string()),
            ("placed".into(), placed.join(",")),
        ],
    );
    // the queue-wait span covers exactly the interval the wait histogram
    // observes
    nlrm_obs::ctx::span_closed(
        job.id.trace(),
        job.root_span,
        "queue_wait",
        "broker/queue",
        job.submitted_at.unwrap_or(now),
        now,
        vec![("job".into(), job.name.clone())],
    );
    if let Some(at) = job.submitted_at {
        nlrm_obs::ctx::observe(
            "broker_job_wait_secs",
            JOB_WAIT_BOUNDS,
            now.since(at.min(now)).as_secs_f64(),
        );
    }
}

/// Journal a deferral and drop an instant mark on the trace (call only
/// with an observer installed).
fn observe_defer(job: &QueuedJob, reason: &str, now: SimTime, cycle: u64) {
    use nlrm_obs::{EventKind, Severity};
    nlrm_obs::ctx::emit_kv(
        Severity::Warn,
        now,
        EventKind::AllocDeferred {
            job: job.name.clone(),
            reason: reason.to_string(),
        },
        vec![
            ("trace".into(), job.id.trace().to_string()),
            ("cycle".into(), cycle.to_string()),
        ],
    );
    // instant mark on the trace; zero-width, so it never perturbs the
    // critical path
    nlrm_obs::ctx::span_closed(
        job.id.trace(),
        job.root_span,
        "defer",
        "broker/queue",
        now,
        now,
        vec![("reason".into(), reason.to_string())],
    );
}

/// The resource broker.
#[derive(Debug, Clone, Default)]
pub struct Broker {
    config: BrokerConfig,
    queue: VecDeque<QueuedJob>,
    running: BTreeMap<JobId, Lease>,
    run_meta: BTreeMap<JobId, RunMeta>,
    /// Processes reserved per node by running jobs.
    reserved: BTreeMap<NodeId, u32>,
    next_id: u64,
    /// Completed scheduling passes; stamped onto every allocation event so
    /// incident analysis can line decisions up with concrete broker cycles.
    cycles: u64,
}

impl Broker {
    /// A broker with the given configuration.
    pub fn new(config: BrokerConfig) -> Self {
        Broker {
            config,
            ..Broker::default()
        }
    }

    /// Scheduling passes completed so far (the `cycle` stamped onto
    /// allocation journal events).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Enqueue a job; returns its id. The request is validated on submit.
    pub fn submit(
        &mut self,
        name: impl Into<String>,
        request: AllocationRequest,
    ) -> Result<JobId, AllocError> {
        self.submit_opts(name, request, SubmitOptions::default())
    }

    /// Enqueue a job stamped with its virtual submit time, so scheduling
    /// passes can report how long it waited in queue.
    pub fn submit_at(
        &mut self,
        name: impl Into<String>,
        request: AllocationRequest,
        now: SimTime,
    ) -> Result<JobId, AllocError> {
        self.submit_opts(
            name,
            request,
            SubmitOptions {
                submitted_at: Some(now),
                ..SubmitOptions::default()
            },
        )
    }

    /// Enqueue a job with explicit class/walltime/submit-time options.
    pub fn submit_opts(
        &mut self,
        name: impl Into<String>,
        request: AllocationRequest,
        opts: SubmitOptions,
    ) -> Result<JobId, AllocError> {
        use nlrm_obs::{EventKind, Severity};
        request.validate()?;
        let name = name.into();
        let at = opts.submitted_at.unwrap_or(SimTime::ZERO);
        match self.config.admission {
            AdmissionPolicy::Unbounded => {}
            AdmissionPolicy::Reject { max_queue } => {
                if self.queue.len() >= max_queue.max(1) {
                    nlrm_obs::ctx::emit(
                        Severity::Warn,
                        at,
                        EventKind::JobRejected {
                            job: name,
                            depth: self.queue.len(),
                        },
                    );
                    nlrm_obs::ctx::inc("broker_jobs_rejected_total");
                    return Err(AllocError::QueueFull {
                        depth: self.queue.len(),
                    });
                }
            }
            AdmissionPolicy::Shed { max_queue } => {
                if self.queue.len() >= max_queue.max(1) {
                    // victim: lowest class, youngest within it (sheds are
                    // judged on class alone — aging protects old waiters
                    // from scheduling starvation, not from overload)
                    let victim = self
                        .queue
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, j)| (j.class, std::cmp::Reverse(j.id)))
                        .map(|(i, j)| (i, j.class))
                        .expect("queue at capacity is non-empty");
                    if opts.class <= victim.1 {
                        // the newcomer is itself the youngest of the lowest
                        // class present — it would be the victim: bounce it
                        nlrm_obs::ctx::emit(
                            Severity::Warn,
                            at,
                            EventKind::JobRejected {
                                job: name,
                                depth: self.queue.len(),
                            },
                        );
                        nlrm_obs::ctx::inc("broker_jobs_rejected_total");
                        return Err(AllocError::QueueFull {
                            depth: self.queue.len(),
                        });
                    }
                    let shed = self.queue.remove(victim.0).expect("victim index valid");
                    if let Some(root) = shed.root_span {
                        nlrm_obs::ctx::span_annotate(root, "shed", "true");
                        nlrm_obs::ctx::span_end(root, at);
                    }
                    nlrm_obs::ctx::emit(
                        Severity::Warn,
                        at,
                        EventKind::JobShed {
                            job: shed.name,
                            depth: self.queue.len(),
                        },
                    );
                    nlrm_obs::ctx::inc("broker_jobs_shed_total");
                }
            }
        }
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.queue.push_back(QueuedJob {
            id,
            name,
            request,
            class: opts.class,
            walltime: opts.walltime,
            submitted_at: opts.submitted_at,
            announced: false,
            root_span: None,
        });
        Ok(id)
    }

    /// Jobs waiting, in scheduling order (priority order after a tick,
    /// submission order before).
    pub fn queued(&self) -> Vec<JobId> {
        self.queue.iter().map(|j| j.id).collect()
    }

    /// Currently running leases.
    pub fn running(&self) -> Vec<&Lease> {
        self.running.values().collect()
    }

    /// Processes reserved on a node by running jobs.
    pub fn reserved_on(&self, node: NodeId) -> u32 {
        self.reserved.get(&node).copied().unwrap_or(0)
    }

    /// Total processes reserved across all nodes.
    pub fn total_reserved(&self) -> u64 {
        self.reserved.values().map(|&p| p as u64).sum()
    }

    /// Install an externally-constructed lease into the broker's books
    /// (reserving its nodes). Lets callers plug alternative placement
    /// strategies into the same reservation accounting — the baseline
    /// brokers in the `multi_job_broker` experiment use this.
    ///
    /// The lease's id must not collide with a queued or running job, and
    /// `next_id` is bumped past it so no future submission can collide
    /// either (a colliding submit used to overwrite the adopted lease in
    /// `running`, permanently leaking its reservations). A lease listing a
    /// node twice, or pushing a reservation past `u32::MAX`, is refused
    /// too, and a refused lease leaves the books as they were.
    pub fn adopt_lease(&mut self, lease: Lease) -> Result<(), AllocError> {
        let id = lease.id.0;
        let known = self.running.contains_key(&lease.id) || self.queue.iter().any(|j| j.id.0 == id);
        let mut nodes: Vec<NodeId> = lease.allocation.nodes.iter().map(|&(n, _)| n).collect();
        nodes.sort_unstable();
        let overflows = |&&(n, p): &&(NodeId, u32)| self.reserved_on(n).checked_add(p).is_none();
        let why = if known {
            format!("cannot adopt lease: job id {id} is already known to the broker")
        } else if id == u64::MAX {
            format!("cannot adopt lease: job id {id} is the last id")
        } else if let Some(w) = nodes.windows(2).find(|w| w[0] == w[1]) {
            format!("cannot adopt lease: node {} is listed twice", w[0])
        } else if let Some((n, _)) = lease.allocation.nodes.iter().find(overflows) {
            format!("cannot adopt lease: node {n}'s reservation would overflow")
        } else {
            String::new()
        };
        if !why.is_empty() {
            return Err(AllocError::InvalidRequest(why));
        }
        self.next_id = self.next_id.max(id + 1);
        for &(node, procs) in &lease.allocation.nodes {
            *self.reserved.entry(node).or_insert(0) += procs;
        }
        self.run_meta
            .insert(lease.id, RunMeta { expected_end: None });
        self.running.insert(lease.id, lease);
        Ok(())
    }

    /// Release a finished job's nodes. Returns the lease, or `None` if the
    /// id is unknown (already completed or never started).
    pub fn complete(&mut self, id: JobId) -> Option<Lease> {
        let lease = self.running.remove(&id)?;
        self.run_meta.remove(&id);
        for &(node, procs) in &lease.allocation.nodes {
            if let btree_map::Entry::Occupied(mut r) = self.reserved.entry(node) {
                *r.get_mut() -= procs.min(*r.get());
                if *r.get() == 0 {
                    r.remove();
                }
            }
        }
        Some(lease)
    }

    /// [`Broker::complete`], additionally closing the job's root trace span
    /// at virtual time `now` so the trace's end-to-end duration matches the
    /// job's actual lifetime.
    pub fn complete_at(&mut self, id: JobId, now: SimTime) -> Option<Lease> {
        let lease = self.complete(id)?;
        if let Some(root) = lease.root_span {
            nlrm_obs::ctx::span_end(root, now);
        }
        Some(lease)
    }

    /// Cancel a job, queued *or running*. A running job's reservations are
    /// released exactly as on completion. Returns whether the id was known.
    pub fn cancel(&mut self, id: JobId) -> bool {
        self.cancel_impl(id, None)
    }

    /// [`Broker::cancel`], additionally closing the job's root trace span
    /// at virtual time `now` (annotated `cancelled`) so a withdrawn job
    /// leaves a complete trace rather than a dangling open span.
    pub fn cancel_at(&mut self, id: JobId, now: SimTime) -> bool {
        self.cancel_impl(id, Some(now))
    }

    fn cancel_impl(&mut self, id: JobId, now: Option<SimTime>) -> bool {
        use nlrm_obs::{EventKind, Severity};
        let (found, name, root, was_running) =
            if let Some(pos) = self.queue.iter().position(|j| j.id == id) {
                let job = self.queue.remove(pos).expect("position valid");
                (true, job.name, job.root_span, false)
            } else if self.running.contains_key(&id) {
                let lease = self.complete(id).expect("running contains id");
                (true, lease.name, lease.root_span, true)
            } else {
                (false, String::new(), None, false)
            };
        if !found {
            return false;
        }
        if let Some(now) = now {
            if let Some(root) = root {
                nlrm_obs::ctx::span_annotate(root, "cancelled", "true");
                nlrm_obs::ctx::span_end(root, now);
            }
            nlrm_obs::ctx::emit(
                Severity::Info,
                now,
                EventKind::JobCancelled {
                    job: name,
                    was_running,
                },
            );
        }
        nlrm_obs::ctx::inc("broker_jobs_cancelled_total");
        true
    }

    /// One scheduling pass against a fresh snapshot: starts whatever fits
    /// and reports what happened to every queued job it examined.
    pub fn tick(&mut self, snap: &ClusterSnapshot) -> Vec<BrokerEvent> {
        self.cycle(snap, None)
    }

    /// A scheduling pass against a caller-supplied derivation instead of
    /// deriving from the snapshot. For callers that manage the derivation
    /// cadence themselves (e.g. reuse one derivation across many ticks
    /// over a static cluster). The base is used for *every* request shape
    /// in the batch, so streams should be shape-uniform; the snapshot
    /// still supplies virtual time and the §6 per-core load check, and may
    /// legitimately disagree with an older `base` — nodes missing from it
    /// defer the job instead of panicking.
    pub fn tick_with_loads(&mut self, base: &Loads, snap: &ClusterSnapshot) -> Vec<BrokerEvent> {
        self.cycle(snap, Some(base))
    }

    /// The scheduling cycle. See the module docs for the shape of the
    /// pass; `base_override` substitutes a caller-supplied derivation for
    /// every shape.
    fn cycle(&mut self, snap: &ClusterSnapshot, base_override: Option<&Loads>) -> Vec<BrokerEvent> {
        let observed = nlrm_obs::ctx::is_active();
        let stage = nlrm_obs::ctx::stage_start();
        let now = snap.taken_at;
        self.cycles += 1;
        let cycle = self.cycles;
        let mut events = Vec::new();

        // stamp walk-in submissions so aging and the wait histogram see a
        // consistent clock, then order by effective priority (stable:
        // equal priorities keep id order, i.e. FIFO)
        for job in self.queue.iter_mut() {
            if job.submitted_at.is_none() {
                job.submitted_at = Some(now);
            }
        }
        let mut jobs: Vec<QueuedJob> = self.queue.drain(..).collect();
        let rate = self.config.aging_rate;
        jobs.sort_by(|a, b| {
            effective_priority(b, now, rate)
                .total_cmp(&effective_priority(a, now, rate))
                .then(a.id.cmp(&b.id))
        });

        let batch = jobs.len().min(self.config.max_per_tick.max(1));
        // one derivation per request shape per tick, or the caller's
        let mut bases: HashMap<Option<ShapeKey>, Result<Base, AllocError>> = HashMap::new();
        if let Some(b) = base_override {
            bases.insert(None, Ok(Base::new(Cow::Borrowed(b), &self.reserved)));
        }
        let mut head_res: Option<HeadReservation> = None;
        let mut started = vec![false; jobs.len()];

        for idx in 0..batch {
            if observed && !jobs[idx].announced {
                announce(&mut jobs[idx], now, cycle);
            }

            // EASY gate: while a head reservation is armed, a later job may
            // only start if it provably cannot delay the reserved head
            let mut charge_extra = false;
            if let Some(res) = &head_res {
                let job = &jobs[idx];
                let walltime = job.walltime.or(self.config.default_walltime);
                let ends_by_shadow = matches!(
                    (walltime, res.shadow),
                    (Some(w), Some(s)) if now + w <= s
                );
                let fits_extra = res.shadow.is_some() && (job.request.procs as u64) <= res.extra;
                if !(ends_by_shadow || fits_extra) {
                    let reason = format!(
                        "head reservation: job {} holds {} procs{}; backfill could delay it",
                        res.job.0,
                        res.need,
                        match res.shadow {
                            Some(s) => format!(" until t={s}"),
                            None => " with no completion forecast".to_string(),
                        }
                    );
                    if observed {
                        observe_defer(job, &reason, now, cycle);
                    }
                    events.push(BrokerEvent::Deferred { id: job.id, reason });
                    continue;
                }
                charge_extra = !ends_by_shadow;
            }

            // resolve the shared derivation for this job's shape
            let req = &jobs[idx].request;
            let key = base_override.is_none().then(|| ShapeKey::of(req));
            let base = bases.entry(key).or_insert_with(|| {
                let (cw, nw) = (&req.compute_weights, &req.network_weights);
                let loads = Loads::derive(snap, cw, nw, req.ppn)?;
                Ok(Base::new(Cow::Owned(loads), &self.reserved))
            });
            let base = match base {
                Ok(b) => &*b,
                Err(e) => {
                    let reason = e.to_string();
                    let job = &jobs[idx];
                    if observed {
                        observe_defer(job, &reason, now, cycle);
                    }
                    events.push(BrokerEvent::Deferred { id: job.id, reason });
                    continue;
                }
            };

            match self.place_on(base, &jobs[idx], snap) {
                Ok(lease) => {
                    if observed {
                        observe_start(&jobs[idx], &lease, now, cycle);
                        if head_res.is_some() {
                            nlrm_obs::ctx::inc("broker_backfill_started_total");
                        }
                    }
                    if charge_extra {
                        if let Some(res) = head_res.as_mut() {
                            res.extra = res.extra.saturating_sub(jobs[idx].request.procs as u64);
                        }
                    }
                    events.push(BrokerEvent::Started(Box::new(lease.clone())));
                    for b in bases.values_mut().flatten() {
                        b.take(lease.allocation.nodes.iter().copied());
                    }
                    self.commit_start(&jobs[idx], lease, now);
                    debug_assert!(bases.values().flatten().all(|b| self.free_in_step(b)));
                    started[idx] = true;
                }
                Err(fail) => {
                    let capacity_blocked = matches!(fail, PlaceFailure::Capacity(_));
                    let reason = fail.into_message();
                    let job = &jobs[idx];
                    if observed {
                        observe_defer(job, &reason, now, cycle);
                    }
                    events.push(BrokerEvent::Deferred { id: job.id, reason });
                    // the first capacity-blocked job arms the head
                    // reservation — unless it could never fit even an idle
                    // cluster, which completions cannot cure
                    if head_res.is_none() && capacity_blocked {
                        let need = job.request.procs as u64;
                        if need <= base.loads.total_capacity() {
                            let free = base.free_capacity();
                            let (shadow, extra) = self.head_forecast(need, free, now);
                            head_res = Some(HeadReservation {
                                job: job.id,
                                need,
                                shadow,
                                extra,
                            });
                        }
                    }
                }
            }
        }

        self.queue = jobs
            .into_iter()
            .zip(started)
            .filter(|&(_, s)| !s)
            .map(|(j, _)| j)
            .collect();
        if observed {
            nlrm_obs::ctx::set_gauge(
                "broker_head_reserved_procs",
                head_res.map(|r| r.need as f64).unwrap_or(0.0),
            );
            self.publish_queue_gauges(now, bases.values().find_map(|r| r.as_ref().ok()));
            nlrm_obs::ctx::telemetry_tick(now);
            nlrm_obs::ctx::stage_end("broker_cycle", stage);
        }
        events
    }

    /// Book a granted lease: reserve its nodes, record run metadata (for
    /// the backfill forecast), move the job to `running`.
    fn commit_start(&mut self, job: &QueuedJob, lease: Lease, now: SimTime) {
        for &(node, procs) in &lease.allocation.nodes {
            *self.reserved.entry(node).or_insert(0) += procs;
        }
        let walltime = job.walltime.or(self.config.default_walltime);
        self.run_meta.insert(
            job.id,
            RunMeta {
                expected_end: walltime.map(|w| now + w),
            },
        );
        self.running.insert(job.id, lease);
    }

    /// Publish the queue/capacity gauge family the telemetry layer
    /// derives cluster health from. `base` carries the derived universe
    /// when the scheduling pass produced one; the capacity gauges keep
    /// their previous values otherwise (a tick with nothing queued
    /// derives nothing, and a stale reading beats a fabricated zero).
    fn publish_queue_gauges(&self, now: SimTime, base: Option<&Base>) {
        nlrm_obs::ctx::set_gauge("broker_queue_depth", self.queue.len() as f64);
        nlrm_obs::ctx::set_gauge("broker_running_jobs", self.running.len() as f64);
        let mut by_class = [0u64; 3];
        let mut oldest = 0.0f64;
        for job in &self.queue {
            let slot = match job.class {
                PriorityClass::Batch => 0,
                PriorityClass::Normal => 1,
                PriorityClass::Urgent => 2,
            };
            by_class[slot] += 1;
            if let Some(at) = job.submitted_at {
                oldest = oldest.max(now.since(at).as_secs_f64());
            }
        }
        nlrm_obs::ctx::set_gauge("broker_queue_depth_batch", by_class[0] as f64);
        nlrm_obs::ctx::set_gauge("broker_queue_depth_normal", by_class[1] as f64);
        nlrm_obs::ctx::set_gauge("broker_queue_depth_urgent", by_class[2] as f64);
        nlrm_obs::ctx::set_gauge("broker_oldest_wait_secs", oldest);
        if let Some(base) = base {
            let largest = base.free.iter().copied().max().unwrap_or(0);
            let total = base.loads.total_capacity() as f64;
            nlrm_obs::ctx::set_gauge("broker_total_capacity", total);
            nlrm_obs::ctx::set_gauge("broker_free_procs", base.free_capacity() as f64);
            nlrm_obs::ctx::set_gauge("broker_largest_free_block", largest as f64);
        }
    }

    /// Whether `base`'s free column matches the books on every node.
    fn free_in_step(&self, base: &Base) -> bool {
        let usable = base.loads.usable.iter().zip(&base.loads.pc);
        (usable.zip(&base.free)).all(|((&n, &pc), &f)| f == pc.saturating_sub(self.reserved_on(n)))
    }

    /// EASY shadow-time forecast for a head needing `need` procs with
    /// `free` currently available: walk running jobs by expected
    /// completion until enough capacity frees. Returns `(shadow time,
    /// capacity beyond the head's need at that time)`; `(None, 0)` when
    /// the running set makes no sufficient promise.
    fn head_forecast(&self, need: u64, free: u64, now: SimTime) -> (Option<SimTime>, u64) {
        let shortfall = need.saturating_sub(free);
        let mut ends: Vec<(SimTime, u64)> = self
            .running
            .values()
            .filter_map(|l| {
                let end = self.run_meta.get(&l.id)?.expected_end?;
                Some((end.max(now), l.allocation.total_procs() as u64))
            })
            .collect();
        ends.sort_unstable_by_key(|&(t, _)| t);
        let mut freed = 0u64;
        for (end, procs) in ends {
            freed += procs;
            if freed >= shortfall {
                return (Some(end), free + freed - need);
            }
        }
        (None, 0)
    }

    /// Score and place one job on `base` shrunk by current reservations
    /// (fully-booked nodes dropped).
    fn place_on(
        &self,
        base: &Base,
        job: &QueuedJob,
        snap: &ClusterSnapshot,
    ) -> Result<Lease, PlaceFailure> {
        let req = &job.request;
        let free_capacity = base.free_capacity();
        if free_capacity == 0 {
            return Err(PlaceFailure::Capacity("all nodes fully reserved".into()));
        }
        if free_capacity < req.procs as u64 {
            return Err(PlaceFailure::Capacity(format!(
                "insufficient free capacity: {free_capacity} < {}",
                req.procs
            )));
        }
        let mut free = base.free.iter();
        let view = base
            .loads
            .restrict(|_, _| *free.next().expect("one free count per usable node"));
        let allocation = place(&view, req, None, "network-load-aware/broker").map_err(|_| {
            PlaceFailure::Capacity("no candidate group can host the request".into())
        })?;

        // §6 deferral: is even the best group too loaded? A winner node
        // missing from the snapshot (its node-state record vanished after
        // the universe was derived) defers rather than panics.
        if let Some(limit) = self.config.max_load_per_core {
            let nodes = allocation.nodes.iter().map(|&(node, _)| node);
            let per_core = load_per_core(snap, nodes).map_err(|node| {
                PlaceFailure::Advisory(format!(
                    "node {node} has no sample in the snapshot (stale or partial view)"
                ))
            })?;
            if per_core > limit {
                return Err(PlaceFailure::Advisory(format!(
                    "cluster too loaded: best group at {per_core:.2} load/core (> {limit})"
                )));
            }
        }

        if nlrm_obs::ctx::is_active() {
            let now = snap.taken_at;
            let d = &allocation.diagnostics;
            // instant marks: scoring and placement consume no virtual time
            // in this simulation, but their attributes record what the
            // decision saw (candidate count, winning cost, data freshness)
            nlrm_obs::ctx::span_closed(
                job.id.trace(),
                job.root_span,
                "scoring",
                "broker/alloc",
                now,
                now,
                vec![
                    ("candidates".into(), d.candidate_costs.len().to_string()),
                    ("best_cost".into(), format!("{:.6}", d.total_cost)),
                    (
                        "snapshot_age_s".into(),
                        format!(
                            "{:.3}",
                            snap.max_sample_age().unwrap_or_default().as_secs_f64()
                        ),
                    ),
                ],
            );
            let node_list: Vec<String> = allocation
                .node_list()
                .iter()
                .map(|n| n.to_string())
                .collect();
            nlrm_obs::ctx::span_closed(
                job.id.trace(),
                job.root_span,
                "placement",
                "broker/alloc",
                now,
                now,
                vec![
                    ("nodes".into(), node_list.join(",")),
                    (
                        "mean_compute_load".into(),
                        format!("{:.4}", d.mean_compute_load),
                    ),
                ],
            );
        }
        Ok(Lease {
            id: job.id,
            name: job.name.clone(),
            trace: job.id.trace(),
            root_span: job.root_span,
            allocation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Diagnostics;
    use nlrm_cluster::iitk::small_cluster;
    use nlrm_monitor::MonitorRuntime;
    use nlrm_obs::{install, Obs};

    fn snapshot(n: usize, seed: u64) -> ClusterSnapshot {
        let mut cluster = small_cluster(n, seed);
        let mut rt = MonitorRuntime::new(&cluster);
        rt.warm_snapshot(&mut cluster, Duration::from_secs(360))
            .unwrap()
    }

    fn req(procs: u32) -> AllocationRequest {
        AllocationRequest::new(procs, Some(4), 0.3, 0.7)
    }

    /// Move a snapshot's clock forward without staling its samples (tests
    /// that span virtual minutes would otherwise trip staleness exclusion).
    fn advance(snap: &mut ClusterSnapshot, now: SimTime) {
        snap.taken_at = now;
        for n in snap.nodes.iter_mut() {
            n.sample.taken_at = now;
        }
    }

    fn no_defer() -> BrokerConfig {
        BrokerConfig {
            max_load_per_core: None,
            ..BrokerConfig::default()
        }
    }

    fn external_lease(id: u64, nodes: Vec<(NodeId, u32)>) -> Lease {
        Lease {
            id: JobId(id),
            name: format!("external-{id}"),
            trace: JobId(id).trace(),
            root_span: None,
            allocation: Allocation {
                policy: "external".into(),
                rank_map: Allocation::block_rank_map(&nodes),
                nodes,
                diagnostics: Diagnostics::default(),
            },
        }
    }

    #[test]
    fn jobs_start_and_complete() {
        let snap = snapshot(8, 3);
        let mut broker = Broker::new(no_defer());
        let a = broker.submit("job-a", req(16)).unwrap();
        let events = broker.tick(&snap);
        assert_eq!(events.len(), 1);
        assert!(matches!(&events[0], BrokerEvent::Started(l) if l.id == a));
        assert_eq!(broker.running().len(), 1);
        assert!(broker.queued().is_empty());
        let lease = broker.complete(a).unwrap();
        assert_eq!(lease.allocation.total_procs(), 16);
        assert!(broker.running().is_empty());
        // reservations cleared
        for node in lease.allocation.node_list() {
            assert_eq!(broker.reserved_on(node), 0);
        }
    }

    #[test]
    fn fully_reserved_cluster_defers_on_capacity() {
        let snap = snapshot(4, 5); // 16 capacity
        let mut broker = Broker::new(BrokerConfig {
            max_per_tick: 8,
            ..no_defer()
        });
        broker.submit("fill", req(16)).unwrap();
        broker.tick(&snap);
        let late = broker.submit("late", req(4)).unwrap();
        let events = broker.tick(&snap);
        assert!(
            matches!(&events[..], [BrokerEvent::Deferred { id, reason }]
                if *id == late && reason == "all nodes fully reserved"),
            "{events:?}"
        );
    }

    #[test]
    fn concurrent_jobs_never_double_book() {
        // 8 nodes × 4 ppn = 32 capacity; two 16-proc jobs fill it exactly
        let snap = snapshot(8, 3);
        let mut broker = Broker::new(no_defer());
        broker.submit("a", req(16)).unwrap();
        broker.submit("b", req(16)).unwrap();
        broker.submit("c", req(16)).unwrap();
        let events = broker.tick(&snap);
        let started: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, BrokerEvent::Started(_)))
            .collect();
        assert_eq!(started.len(), 2, "only two jobs fit");
        assert_eq!(broker.queued().len(), 1);
        // per-node reservations never exceed ppn
        for i in 0..8u32 {
            assert!(broker.reserved_on(NodeId(i)) <= 4);
        }
        // total reserved == 32
        let total: u32 = (0..8u32).map(|i| broker.reserved_on(NodeId(i))).sum();
        assert_eq!(total, 32);
    }

    #[test]
    fn queued_job_starts_after_completion() {
        let snap = snapshot(4, 5); // 16 capacity
        let mut broker = Broker::new(no_defer());
        let a = broker.submit("a", req(16)).unwrap();
        let b = broker.submit("b", req(16)).unwrap();
        broker.tick(&snap);
        assert_eq!(broker.queued(), vec![b]);
        broker.complete(a);
        let events = broker.tick(&snap);
        assert!(matches!(&events[0], BrokerEvent::Started(l) if l.id == b));
    }

    #[test]
    fn backfill_lets_small_jobs_jump_a_blocked_head() {
        let snap = snapshot(4, 5); // 16 capacity
        let mut broker = Broker::new(no_defer());
        broker.submit("big-running", req(12)).unwrap();
        broker.tick(&snap); // 12 reserved, 4 free
        let big = broker.submit("big-blocked", req(16)).unwrap();
        let small = broker.submit("small", req(4)).unwrap();
        let events = broker.tick(&snap);
        // head deferred with a capacity reservation; the small job ends by
        // the shadow time (same default walltime, same start), so EASY
        // lets it jump
        assert!(matches!(&events[0], BrokerEvent::Deferred { id, .. } if *id == big));
        assert!(matches!(&events[1], BrokerEvent::Started(l) if l.id == small));
        assert_eq!(broker.queued(), vec![big]);
    }

    #[test]
    fn overloaded_cluster_defers_jobs() {
        let mut cluster = nlrm_cluster::iitk::small_cluster_with_profile(
            6,
            nlrm_cluster::ClusterProfile::overloaded(),
            7,
        );
        let mut rt = MonitorRuntime::new(&cluster);
        let snap = rt
            .warm_snapshot(&mut cluster, Duration::from_secs(600))
            .unwrap();
        let mut broker = Broker::new(BrokerConfig {
            max_load_per_core: Some(0.9),
            ..BrokerConfig::default()
        });
        broker.submit("urgent", req(8)).unwrap();
        let events = broker.tick(&snap);
        assert!(
            matches!(&events[0], BrokerEvent::Deferred { reason, .. } if reason.contains("too loaded")),
            "expected load deferral, got {events:?}"
        );
    }

    #[test]
    fn cancel_removes_from_queue() {
        let snap = snapshot(4, 5);
        let mut broker = Broker::new(no_defer());
        broker.submit("running", req(16)).unwrap();
        broker.tick(&snap);
        let z = broker.submit("doomed", req(8)).unwrap();
        assert!(broker.cancel(z));
        assert!(!broker.cancel(z));
        assert!(broker.queued().is_empty());
    }

    #[test]
    fn cancel_running_job_releases_reservations() {
        let snap = snapshot(4, 5); // 16 capacity
        let mut broker = Broker::new(no_defer());
        let a = broker.submit("doomed-runner", req(12)).unwrap();
        broker.tick(&snap);
        assert_eq!(broker.running().len(), 1);
        assert_eq!(broker.total_reserved(), 12);
        // cancelling a *running* job must release its nodes (it used to be
        // silently ignored, leaking the reservation forever)
        assert!(broker.cancel(a));
        assert!(broker.running().is_empty());
        assert_eq!(
            broker.total_reserved(),
            0,
            "reservations must drain to zero"
        );
        assert!(!broker.cancel(a), "second cancel finds nothing");
        // the freed capacity is immediately schedulable again
        let b = broker.submit("next", req(16)).unwrap();
        let events = broker.tick(&snap);
        assert!(matches!(&events[0], BrokerEvent::Started(l) if l.id == b));
    }

    #[test]
    fn cancel_at_closes_running_jobs_root_span() {
        let snap = snapshot(4, 5);
        let now = snap.taken_at;
        let obs = Obs::new();
        let _g = install(&obs);
        let mut broker = Broker::new(no_defer());
        let a = broker.submit_at("traced-runner", req(8), now).unwrap();
        broker.tick(&snap);
        let later = now + Duration::from_secs(50);
        assert!(broker.cancel_at(a, later));
        let spans = obs.spans.trace_spans(a.trace());
        let root = spans.iter().find(|s| s.kind == "job").unwrap();
        assert_eq!(root.end, Some(later), "root span must be closed");
        assert!(root
            .attrs
            .iter()
            .any(|(k, v)| k == "cancelled" && v == "true"));
        assert_eq!(obs.journal.count_of("job_cancelled"), 1);
        assert_eq!(broker.total_reserved(), 0);
    }

    #[test]
    fn adopted_lease_ids_never_collide_with_submissions() {
        let snap = snapshot(8, 3);
        let mut broker = Broker::new(no_defer());
        // a lease adopted under the id the broker would assign next
        let _ = broker.adopt_lease(external_lease(0, vec![(NodeId(0), 4)]));
        assert_eq!(broker.total_reserved(), 4);
        let id = broker.submit("mine", req(4)).unwrap();
        assert_ne!(
            id,
            JobId(0),
            "submit must never reuse an adopted lease's id"
        );
        broker.tick(&snap);
        broker.complete(id).expect("submitted job ran");
        broker.complete(JobId(0)).expect("adopted lease still held");
        assert_eq!(
            broker.total_reserved(),
            0,
            "an id collision leaks reservations"
        );
    }

    #[test]
    fn duplicate_adoption_rejected() {
        let mut broker = Broker::new(no_defer());
        broker
            .adopt_lease(external_lease(7, vec![(NodeId(1), 2)]))
            .unwrap();
        let err = broker
            .adopt_lease(external_lease(7, vec![(NodeId(2), 2)]))
            .unwrap_err();
        assert!(matches!(err, AllocError::InvalidRequest(_)));
        // the rejected duplicate reserved nothing
        assert_eq!(broker.total_reserved(), 2);
        // and ids resume past the adopted one
        let id = broker.submit("next", req(4)).unwrap();
        assert_eq!(id, JobId(8));
    }

    /// A lease with no rank map, so a huge proc count costs nothing.
    fn bare_lease(id: u64, nodes: Vec<(NodeId, u32)>) -> Lease {
        let mut lease = external_lease(id, Vec::new());
        lease.allocation.nodes = nodes;
        lease
    }

    #[test]
    fn adoption_refuses_repeated_nodes_and_overflow_leaving_the_books() {
        let mut broker = Broker::new(no_defer());
        let far = NodeId(u32::MAX - 1);
        for twice in [
            vec![(far, 0), (far, 0)],
            vec![(NodeId(2), 1), (NodeId(2), 3)],
        ] {
            let err = broker.adopt_lease(bare_lease(1, twice)).unwrap_err();
            assert!(matches!(err, AllocError::InvalidRequest(_)), "{err:?}");
        }
        assert!(broker.running().is_empty());
        assert!(broker.complete(JobId(1)).is_none());
        assert_eq!(broker.total_reserved(), 0);

        broker
            .adopt_lease(bare_lease(2, vec![(far, u32::MAX)]))
            .unwrap();
        let err = broker
            .adopt_lease(bare_lease(3, vec![(NodeId(0), 1), (far, 2)]))
            .unwrap_err();
        assert!(matches!(err, AllocError::InvalidRequest(_)), "{err:?}");
        let mut last = bare_lease(0, vec![]);
        last.id = JobId(u64::MAX);
        let err = broker.adopt_lease(last).unwrap_err();
        assert!(matches!(err, AllocError::InvalidRequest(_)), "{err:?}");
        // the refused leases reserved nothing and took no id
        assert_eq!(broker.reserved_on(far), u32::MAX);
        assert_eq!(broker.reserved_on(NodeId(0)), 0);
        assert_eq!(broker.running().len(), 1);
        assert_eq!(broker.submit("next", req(4)).unwrap(), JobId(3));
        assert!(broker.complete(JobId(2)).is_some());
        assert_eq!(broker.total_reserved(), 0);
    }

    #[test]
    fn free_columns_track_the_books_after_every_start() {
        // several starts per tick over three request shapes, before and
        // after adopted leases, one of them on an id past the universe
        let mut snap = snapshot(8, 3);
        let mut broker = Broker::new(no_defer());
        broker
            .adopt_lease(external_lease(100, vec![(NodeId(1), 3), (NodeId(6), 4)]))
            .unwrap();
        let shapes = [Some(4), Some(2), None];
        let mut starts = Vec::new();
        for round in 0..2u64 {
            if round == 1 {
                for id in starts.drain(..) {
                    broker.complete(id);
                }
                // a lease adopted between ticks, one node past the universe
                let nodes = vec![(NodeId(3), 2), (NodeId(u32::MAX - 1), 9)];
                broker.adopt_lease(bare_lease(200, nodes)).unwrap();
                let later = snap.taken_at + Duration::from_secs(60);
                advance(&mut snap, later);
            }
            for i in 0..6 {
                let shape = AllocationRequest::new(3, shapes[i % 3], 0.3, 0.7);
                broker.submit(format!("r{round}-{i}"), shape).unwrap();
            }
            let events = broker.tick(&snap);
            let started = events.iter().filter_map(|e| match e {
                BrokerEvent::Started(l) => Some(l.id),
                _ => None,
            });
            starts.extend(started);
            assert!(starts.len() >= 3, "round {round}: {events:?}");
        }
        // debug builds check every in-place update inside the cycle; the
        // fill from the books is checked here in any build
        for ppn in shapes {
            let w = AllocationRequest::new(3, ppn, 0.3, 0.7);
            let loads = Loads::derive(&snap, &w.compute_weights, &w.network_weights, ppn).unwrap();
            assert!(broker.free_in_step(&Base::new(Cow::Owned(loads), &broker.reserved)));
        }
    }

    #[test]
    fn an_observed_tick_records_stage_times() {
        let snap = snapshot(8, 3);
        let mut broker = Broker::new(no_defer());
        broker.submit("j", req(8)).unwrap();
        let obs = Obs::new();
        let guard = install(&obs);
        broker.tick(&snap);
        drop(guard);
        for name in ["stage_seconds_derive", "stage_seconds_broker_cycle"] {
            let h = obs.metrics.histogram_snapshot(name);
            assert!(h.is_some_and(|h| h.count() == 1), "{name}");
        }
        // wall time stays out of the replay digest
        let digested = nlrm_obs::recorder::Recorder::NONDETERMINISTIC_METRICS;
        assert!(!obs
            .metrics
            .to_json_excluding(digested)
            .contains("stage_seconds"));
        // an unobserved tick records nothing anywhere
        broker.submit("k", req(8)).unwrap();
        broker.tick(&snap);
        let h = obs.metrics.histogram_snapshot("stage_seconds_broker_cycle");
        assert!(h.is_some_and(|h| h.count() == 1));
    }

    #[test]
    fn missing_snapshot_sample_defers_instead_of_panicking() {
        // derive a universe, then drop one node's record from the snapshot
        // — the §6 check used to hit `.expect("usable node has sample")`
        let mut snap = snapshot(2, 7);
        let shape = req(8);
        let base = Loads::derive(
            &snap,
            &shape.compute_weights,
            &shape.network_weights,
            shape.ppn,
        )
        .unwrap();
        let gone = *base.usable.last().unwrap();
        snap.nodes.retain(|n| n.node != gone);
        let mut broker = Broker::new(BrokerConfig {
            max_load_per_core: Some(100.0),
            ..BrokerConfig::default()
        });
        broker.submit("wants-both-nodes", req(8)).unwrap();
        let events = broker.tick_with_loads(&base, &snap);
        assert!(
            matches!(&events[0], BrokerEvent::Deferred { reason, .. } if reason.contains("no sample")),
            "expected a deferral naming the missing sample, got {events:?}"
        );
        assert!(broker.running().is_empty());
    }

    #[test]
    fn a_tick_derives_once_per_request_shape() {
        let snap = snapshot(8, 3);
        let derives_per_tick = |shapes: &[Option<u32>]| {
            let mut broker = Broker::new(no_defer());
            for i in 0..40 {
                let ppn = shapes[i % shapes.len()];
                let req = AllocationRequest::new(4, ppn, 0.3, 0.7);
                broker.submit(format!("j{i}"), req).unwrap();
            }
            let obs = Obs::new();
            let g = install(&obs);
            broker.tick(&snap);
            drop(g);
            obs.metrics.counter_value("loads_derive_total")
        };
        assert_eq!(derives_per_tick(&[Some(4)]), 1, "40 same-shape jobs");
        assert_eq!(derives_per_tick(&[Some(4), Some(2)]), 2, "two ppn shapes");
    }

    #[test]
    fn reserved_head_starts_under_continuous_small_arrivals() {
        // 4 nodes × 4 ppn = 16 capacity. A 12-proc job runs with a 600 s
        // walltime; a 16-proc head blocks behind it while a small job
        // arrives every minute. Conservative backfill starved the head
        // forever (each small job grabbed the 4 free procs); the head
        // reservation defers them instead.
        let mut snap = snapshot(4, 5);
        let t0 = snap.taken_at;
        let mut broker = Broker::new(no_defer());
        let runner = broker
            .submit_opts(
                "runner",
                req(12),
                SubmitOptions {
                    walltime: Some(Duration::from_secs(600)),
                    submitted_at: Some(t0),
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        broker.tick(&snap);
        let head = broker.submit_at("head-16", req(16), t0).unwrap();
        let mut head_started = false;
        for minute in 1..=12u64 {
            let now = t0 + Duration::from_secs(60 * minute);
            advance(&mut snap, now);
            broker
                .submit_opts(
                    format!("small-{minute}"),
                    req(4),
                    SubmitOptions {
                        walltime: Some(Duration::from_secs(600)),
                        submitted_at: Some(now),
                        ..SubmitOptions::default()
                    },
                )
                .unwrap();
            if minute == 10 {
                // the runner completes on schedule
                broker.complete(runner).unwrap();
            }
            let events = broker.tick(&snap);
            for ev in &events {
                if let BrokerEvent::Started(l) = ev {
                    if l.id == head {
                        head_started = true;
                    }
                    assert!(
                        l.id == head || head_started,
                        "no small job may start while it could delay the reserved head"
                    );
                }
            }
        }
        assert!(head_started, "the reserved head must eventually start");
    }

    #[test]
    fn easy_backfill_rejects_jobs_that_would_outlive_the_shadow() {
        // 12-proc runner with 600 s walltime; 16-proc head blocked. A
        // small job promising 2000 s cannot finish by the shadow time and
        // does not fit the extra capacity (16 - 16 = 0), so it must wait.
        let snap = snapshot(4, 5);
        let t0 = snap.taken_at;
        let mut broker = Broker::new(no_defer());
        broker
            .submit_opts(
                "runner",
                req(12),
                SubmitOptions {
                    walltime: Some(Duration::from_secs(600)),
                    submitted_at: Some(t0),
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        broker.tick(&snap);
        broker.submit_at("head-16", req(16), t0).unwrap();
        let slow = broker
            .submit_opts(
                "slow-small",
                req(4),
                SubmitOptions {
                    walltime: Some(Duration::from_secs(2000)),
                    submitted_at: Some(t0),
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        let events = broker.tick(&snap);
        assert!(
            matches!(&events[1], BrokerEvent::Deferred { id, reason }
                if *id == slow && reason.contains("head reservation")),
            "a job outliving the shadow must defer, got {events:?}"
        );
    }

    #[test]
    fn priority_classes_order_the_batch() {
        // 16 capacity, jobs of 8: only two fit. The urgent job submitted
        // last must start; the batch job submitted first must wait.
        let snap = snapshot(4, 5);
        let mut broker = Broker::new(no_defer());
        let batch = broker
            .submit_opts(
                "batch",
                req(8),
                SubmitOptions {
                    class: PriorityClass::Batch,
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        let normal = broker.submit("normal", req(8)).unwrap();
        let urgent = broker
            .submit_opts(
                "urgent",
                req(8),
                SubmitOptions {
                    class: PriorityClass::Urgent,
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        let events = broker.tick(&snap);
        let started: Vec<JobId> = events
            .iter()
            .filter_map(|e| match e {
                BrokerEvent::Started(l) => Some(l.id),
                _ => None,
            })
            .collect();
        assert_eq!(started, vec![urgent, normal]);
        assert_eq!(broker.queued(), vec![batch]);
    }

    #[test]
    fn aging_promotes_long_waiters_over_fresh_higher_classes() {
        // a Batch job that has waited 150 s (150 points at the default
        // aging rate) outranks a fresh Normal job (100 points)
        let mut snap = snapshot(4, 5);
        let t0 = snap.taken_at;
        let mut broker = Broker::new(no_defer());
        // fill the cluster so the first tick starts nothing
        let filler = broker.submit_at("filler", req(16), t0).unwrap();
        broker.tick(&snap);
        let old_batch = broker
            .submit_opts(
                "old-batch",
                req(16),
                SubmitOptions {
                    class: PriorityClass::Batch,
                    submitted_at: Some(t0),
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        let now = t0 + Duration::from_secs(150);
        advance(&mut snap, now);
        let fresh_normal = broker.submit_at("fresh-normal", req(16), now).unwrap();
        broker.complete(filler);
        let events = broker.tick(&snap);
        assert!(
            matches!(&events[0], BrokerEvent::Started(l) if l.id == old_batch),
            "the aged batch job must outrank the fresh normal one, got {events:?}"
        );
        assert_eq!(broker.queued(), vec![fresh_normal]);
    }

    #[test]
    fn admission_reject_bounds_the_queue() {
        let mut broker = Broker::new(BrokerConfig {
            admission: AdmissionPolicy::Reject { max_queue: 2 },
            ..no_defer()
        });
        let obs = Obs::new();
        let _g = install(&obs);
        broker.submit("a", req(4)).unwrap();
        broker.submit("b", req(4)).unwrap();
        let err = broker.submit("c", req(4)).unwrap_err();
        assert!(matches!(err, AllocError::QueueFull { depth: 2 }));
        assert_eq!(broker.queued().len(), 2);
        assert_eq!(obs.journal.count_of("job_rejected"), 1);
        assert_eq!(obs.metrics.counter_value("broker_jobs_rejected_total"), 1);
    }

    #[test]
    fn admission_shed_evicts_the_lowest_class() {
        let mut broker = Broker::new(BrokerConfig {
            admission: AdmissionPolicy::Shed { max_queue: 2 },
            ..no_defer()
        });
        let obs = Obs::new();
        let _g = install(&obs);
        let low = broker
            .submit_opts(
                "low",
                req(4),
                SubmitOptions {
                    class: PriorityClass::Batch,
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        let keep = broker.submit("keep", req(4)).unwrap();
        let urgent = broker
            .submit_opts(
                "urgent",
                req(4),
                SubmitOptions {
                    class: PriorityClass::Urgent,
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        assert_eq!(broker.queued(), vec![keep, urgent], "batch job shed");
        assert!(!broker.cancel(low), "shed job is gone");
        assert_eq!(obs.journal.count_of("job_shed"), 1);
        // a newcomer lower than every queued job bounces instead
        let err = broker
            .submit_opts(
                "too-low",
                req(4),
                SubmitOptions {
                    class: PriorityClass::Batch,
                    ..SubmitOptions::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, AllocError::QueueFull { .. }));
    }

    #[test]
    fn traces_follow_the_job_lifecycle() {
        let snap = snapshot(8, 3);
        let now = snap.taken_at;
        let submit = SimTime::from_micros(now.as_micros().saturating_sub(60_000_000));
        let obs = Obs::new();
        let _g = install(&obs);
        let mut broker = Broker::new(no_defer());
        let a = broker.submit_at("traced", req(16), submit).unwrap();
        let events = broker.tick(&snap);
        assert!(matches!(&events[0], BrokerEvent::Started(l)
            if l.trace == a.trace() && l.root_span.is_some()));
        let done = now + Duration::from_secs(100);
        let lease = broker.complete_at(a, done).unwrap();
        assert_eq!(lease.id, a);

        let spans = obs.spans.trace_spans(a.trace());
        let root = spans.iter().find(|s| s.kind == "job").unwrap();
        assert_eq!(root.start, submit);
        assert_eq!(root.end, Some(done));
        let kinds: Vec<&str> = spans.iter().map(|s| s.kind.as_str()).collect();
        for k in ["queue_wait", "scoring", "placement"] {
            assert!(kinds.contains(&k), "missing {k} span in {kinds:?}");
        }
        let wait = spans.iter().find(|s| s.kind == "queue_wait").unwrap();
        assert_eq!(wait.parent, Some(root.id));
        assert_eq!(wait.duration(), now - submit);
        // the span and the histogram tell the same story
        let h = obs
            .metrics
            .histogram_snapshot("broker_job_wait_secs")
            .unwrap();
        assert_eq!(h.sum(), wait.duration().as_secs_f64());
        // every child nests inside the root
        for s in &spans {
            assert!(s.start >= root.start);
            assert!(s.end.unwrap() <= done);
        }
        // critical path tiles the whole trace
        let path = obs.spans.critical_path(a.trace()).unwrap();
        assert_eq!(path.total(), done - submit);
        // alloc events are greppable by trace id
        let granted = &obs.journal.events_of("alloc_granted")[0];
        assert!(granted
            .fields
            .iter()
            .any(|(k, v)| k == "trace" && v == &a.trace().to_string()));
    }

    #[test]
    fn invalid_submission_rejected() {
        let mut broker = Broker::new(no_defer());
        assert!(broker
            .submit("bad", AllocationRequest::new(0, None, 0.5, 0.5))
            .is_err());
    }
}
