//! The discrete-event simulation engine.
//!
//! The simulator reproduces, in software, the system the paper analyses
//! (and measured with its Click prototype):
//!
//! * **source hosts** release UDP packets according to their flow's GMF
//!   specification, fragment them into Ethernet frames, spread the frames
//!   over the generalized-jitter window and transmit them from a
//!   work-conserving FIFO output queue;
//! * **software switches** (Figure 5) receive frames into per-interface
//!   input FIFOs; a single CPU runs one routing task per input interface
//!   and one send task per output interface under non-preemptive
//!   round-robin stride scheduling with per-frame costs `CROUTE` and
//!   `CSEND`; classified frames wait in per-output 802.1p priority queues;
//!   the send task refills an idle output NIC, which then serialises the
//!   frame onto the link;
//! * **links** add serialisation time (wire bits / link speed) and
//!   propagation delay;
//! * **destinations** reassemble packets and record the end-to-end response
//!   time of each one (arrival at the source → reception of the last
//!   Ethernet frame).
//!
//! Traffic is generated **lazily**: each flow keeps a cursor holding only
//! its next packet's release time, and packets materialise into the event
//! queue just before the simulation clock reaches them.  The pending event
//! set therefore stays proportional to the *in-flight* traffic, not the
//! whole horizon — the upfront O(horizon) heap of the original engine is
//! gone, which is what makes long-horizon percentile telemetry (E17)
//! affordable.  Arrival cursors are merged with the event queue through a
//! small (release, flow) min-heap, so materialisation order — and with it
//! the (time, insertion-sequence) pop order — is fully deterministic.
//!
//! The simulator is deterministic for a given [`SimConfig`]: every random
//! policy draws from a per-flow `ChaCha8` stream derived from the master
//! seed (`gmf_par::derive_seed`), and simultaneous events fire in
//! insertion order.  Runs are exactly reproducible for a given seed.

use crate::config::{ArrivalPolicy, JitterSpread, SimConfig};
use crate::event::{EventInPast, EventKind, EventQueue, QueueShape};
use crate::faults::{cable, FaultKind, FaultScript};
use crate::nodes::{EndpointState, PendingCompletion, SwitchState, SwitchTask};
use crate::packet::{EthFrame, PacketId};
use crate::stats::{PacketSample, SimStats};
use gmf_model::{packetize, BitRate, Bits, FlowId, Time};
use gmf_net::{FlowSet, NetError, NodeId, Priority, Topology};
use gmf_par::derive_seed;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;

/// Hard cap on processed events, protecting against configuration mistakes
/// (e.g. an overloaded network simulated for a very long horizon).
const MAX_EVENTS: u64 = 200_000_000;

/// Sentinel in the flat forwarding tables: this switch does not route the
/// flow.
const NO_PORT: u32 = u32::MAX;

/// Errors raised while setting up or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A flow originates or terminates at an Ethernet switch.
    EndpointIsSwitch(NodeId),
    /// The flow set does not match the topology.
    Net(NetError),
    /// The event cap was exceeded (runaway simulation).
    EventLimitExceeded,
    /// A fault script references missing hardware or toggles link state
    /// inconsistently.
    InvalidFaultScript(String),
    /// An event was scheduled before the simulation clock (negative times
    /// included) — the deterministic pop order could not be honoured.
    EventInPast {
        /// The requested (invalid) firing time.
        at: Time,
        /// The simulation clock at the attempt.
        now: Time,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EndpointIsSwitch(n) => {
                write!(f, "flow endpoint {n} is an Ethernet switch; only end hosts and routers can source or sink flows")
            }
            SimError::Net(e) => write!(f, "network error: {e}"),
            SimError::EventLimitExceeded => write!(f, "event limit exceeded"),
            SimError::InvalidFaultScript(detail) => {
                write!(f, "invalid fault script: {detail}")
            }
            SimError::EventInPast { at, now } => {
                write!(
                    f,
                    "event scheduled in the past: at {at} with simulation time already at {now}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<NetError> for SimError {
    fn from(e: NetError) -> Self {
        SimError::Net(e)
    }
}

impl From<EventInPast> for SimError {
    fn from(e: EventInPast) -> Self {
        SimError::EventInPast {
            at: e.at,
            now: e.now,
        }
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// Response-time statistics.
    pub stats: SimStats,
    /// Number of events processed.
    pub events_processed: u64,
    /// Simulated time of the last event (all traffic drained).
    pub final_time: Time,
    /// Shape counters of the event queue (see [`QueueShape`]): with lazy
    /// generation, `max_pending` tracks in-flight traffic, not horizon
    /// length.
    pub queue: QueueShape,
}

/// A configured simulator, ready to run.
pub struct Simulator<'a> {
    topology: &'a Topology,
    flows: &'a FlowSet,
    config: SimConfig,
    faults: FaultScript,
}

impl<'a> Simulator<'a> {
    /// Create a simulator for `flows` on `topology`.
    pub fn new(
        topology: &'a Topology,
        flows: &'a FlowSet,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        Simulator::with_faults(topology, flows, config, FaultScript::empty())
    }

    /// Create a simulator that additionally injects the scripted faults
    /// mid-run (see [`crate::faults`]).
    pub fn with_faults(
        topology: &'a Topology,
        flows: &'a FlowSet,
        config: SimConfig,
        faults: FaultScript,
    ) -> Result<Self, SimError> {
        flows.validate_against(topology)?;
        for binding in flows.bindings() {
            for endpoint in [binding.route.source(), binding.route.destination()] {
                if topology.node(endpoint)?.is_switch() {
                    return Err(SimError::EndpointIsSwitch(endpoint));
                }
            }
        }
        faults.validate(topology)?;
        Ok(Simulator {
            topology,
            flows,
            config,
            faults,
        })
    }

    /// Run the simulation to completion (all generated traffic drained).
    pub fn run(&self) -> Result<SimulationResult, SimError> {
        let mut engine = Engine::new(self.topology, self.flows, self.config)?;
        engine.schedule_faults(&self.faults)?;
        engine.run()
    }
}

/// One simulated node, indexed densely by [`NodeId`].
enum NodeSlot {
    /// An end host or IP router (traffic endpoint).
    Endpoint(EndpointState),
    /// A software Ethernet switch.
    Switch(Box<SwitchState>),
}

/// Cached outgoing link parameters of one node, sorted by neighbour.
#[derive(Clone, Copy)]
struct LinkOut {
    to: NodeId,
    speed: BitRate,
    propagation: Time,
    /// The receiver's input-port index for frames sent over this link
    /// (precomputed so arrivals never search the receiver's port table;
    /// unused when the receiver is an endpoint).
    dst_port: u32,
}

/// Pre-packetized generation data of one GMF frame of a flow.
struct FrameGen {
    jitter: Time,
    min_interarrival: Time,
    /// Wire bits of each Ethernet fragment of the packet.
    wire_bits: Box<[Bits]>,
}

/// Lazy arrival state of one flow: only the *next* packet's release time
/// is known; the packet materialises into the event queue just before the
/// clock reaches it.
struct FlowCursor {
    id: FlowId,
    source: NodeId,
    /// The source's output port towards the first hop.
    out_port: usize,
    priority: Priority,
    frames: Box<[FrameGen]>,
    tsum: Time,
    /// Release (source arrival) time of the next packet.
    release: Time,
    /// Sequence number of the next packet.
    sequence: u64,
    /// Per-flow random stream (arrival slack, GOP pauses, initial phase).
    rng: ChaCha8Rng,
}

/// Mutable state of one simulation run.
struct Engine {
    config: SimConfig,
    queue: EventQueue,
    /// Node state, indexed by `NodeId.0` (node ids are dense).
    nodes: Vec<NodeSlot>,
    /// Outgoing link parameters per node, sorted by neighbour.  For
    /// endpoints the index is also the node's port number.
    links: Vec<Vec<LinkOut>>,
    /// Per switch: interface port → index into `links` of its out-link,
    /// `NO_PORT` for in-only ports (one-way topologies).  Lets the tx hot
    /// path go port → link parameters without a binary search.
    port_to_link: Vec<Vec<u32>>,
    /// Per switch (indexed by `NodeId.0`): flow (by `FlowId.0`) → output
    /// port, `NO_PORT` where the switch does not route the flow.  A flat
    /// table, so the per-frame routing step is one indexed load.
    forwarding: Vec<Vec<u32>>,
    /// flow (by `FlowId.0`) → destination node, for delivery assertions.
    destinations: Vec<Option<NodeId>>,
    /// Lazy per-flow arrival cursors.
    cursors: Vec<FlowCursor>,
    /// Pending arrivals: min-heap of (next release, cursor index).  Ties
    /// materialise in cursor (flow) order, keeping generation
    /// deterministic.
    arrivals: BinaryHeap<Reverse<(Time, usize)>>,
    /// Packet reassembly progress at destinations (multi-fragment packets
    /// only; single-fragment packets complete without touching the map).
    reassembly: BTreeMap<PacketId, u16>,
    /// Cables currently down (unordered `(min, max)` endpoint pairs).
    downed: BTreeSet<(NodeId, NodeId)>,
    stats: SimStats,
}

/// Fragment release offset within the packet's generalized-jitter window.
fn fragment_offset(
    config: &SimConfig,
    sequence: u64,
    fragment: u16,
    n_fragments: u16,
    jitter: Time,
) -> Time {
    if jitter.is_zero() {
        return Time::ZERO;
    }
    if matches!(config.arrival, ArrivalPolicy::MaxReleaseJitter) {
        // Adversarial release: the flow's first packet is held to the
        // very end of its jitter window (every fragment, including the
        // first), all later packets release immediately — the network
        // sees the first two packets almost `GJ` closer together than
        // their nominal minimum inter-arrival time.
        return if sequence == 0 {
            jitter * 0.999
        } else {
            Time::ZERO
        };
    }
    if fragment == 0 {
        return Time::ZERO;
    }
    match config.jitter_spread {
        JitterSpread::AtStart => Time::ZERO,
        JitterSpread::Uniform => jitter * (f64::from(fragment) / f64::from(n_fragments)),
        JitterSpread::AtEnd => jitter * 0.999,
    }
}

impl Engine {
    fn new(topology: &Topology, flows: &FlowSet, config: SimConfig) -> Result<Self, SimError> {
        let n_nodes = topology.n_nodes();
        let mut nodes = Vec::with_capacity(n_nodes);
        let mut links: Vec<Vec<LinkOut>> = vec![Vec::new(); n_nodes];
        let n_flows = flows
            .bindings()
            .iter()
            .map(|b| b.id.0 + 1)
            .max()
            .unwrap_or(0);
        let mut forwarding: Vec<Vec<u32>> = vec![Vec::new(); n_nodes];

        for node in topology.nodes() {
            // Cache outgoing link parameters so the hot path never walks
            // the topology again.  The sorted order makes the index of an
            // entry the node's *port number* for endpoints.
            let outs = &mut links[node.id.0];
            for &to in topology.out_neighbours(node.id) {
                let link = topology.link_between(node.id, to)?;
                outs.push(LinkOut {
                    to,
                    speed: link.speed,
                    propagation: link.propagation,
                    dst_port: 0, // filled below, once every node exists
                });
            }
            outs.sort_unstable_by_key(|l| l.to);
            if let Some(cfg) = node.kind.switch_config() {
                let neighbours: Vec<NodeId> = topology
                    .out_neighbours(node.id)
                    .iter()
                    .chain(topology.in_neighbours(node.id))
                    .copied()
                    .collect();
                nodes.push(NodeSlot::Switch(Box::new(SwitchState::new(
                    cfg,
                    &neighbours,
                ))));
            } else {
                let targets: Vec<NodeId> = outs.iter().map(|l| l.to).collect();
                nodes.push(NodeSlot::Endpoint(EndpointState::new(&targets)));
            }
        }

        // Second pass, now that every receiver's port table exists:
        // precompute each link's destination input port, and each switch's
        // port → out-link index map.
        for (from, from_links) in links.iter_mut().enumerate() {
            for link in from_links {
                link.dst_port = match &nodes[link.to.0] {
                    NodeSlot::Switch(s) => {
                        let port = s
                            .port_of(NodeId(from))
                            // tidy-allow: unwrap invariant: an out-link makes `from` a neighbour of its receiver
                            .expect("an out-link makes `from` a neighbour of its receiver");
                        port as u32
                    }
                    // Endpoints take delivery directly; no input port.
                    NodeSlot::Endpoint(_) => 0,
                };
            }
        }
        let mut port_to_link: Vec<Vec<u32>> = vec![Vec::new(); n_nodes];
        for (id, slot) in nodes.iter().enumerate() {
            if let NodeSlot::Switch(s) = slot {
                port_to_link[id] = (0..s.n_ports())
                    .map(|port| {
                        links[id]
                            .binary_search_by_key(&s.neighbour(port), |l| l.to)
                            .map_or(NO_PORT, |i| i as u32)
                    })
                    .collect();
            }
        }

        let max_flow_id = flows.bindings().iter().map(|b| b.id.0).max();
        let mut destinations = vec![None; max_flow_id.map_or(0, |m| m + 1)];
        let mut cursors = Vec::new();
        let mut arrivals = BinaryHeap::new();
        for (slot, binding) in flows.bindings().iter().enumerate() {
            destinations[binding.id.0] = Some(binding.route.destination());
            for &switch in binding.route.switches() {
                let next = binding.route.successor(switch)?;
                let port = match &nodes[switch.0] {
                    NodeSlot::Switch(s) => s
                        .port_of(next)
                        .ok_or(SimError::Net(NetError::NoSuchLink(switch, next)))?,
                    // tidy-allow: unwrap invariant: route interiors are switches, validated above
                    NodeSlot::Endpoint(_) => unreachable!("route interiors are switches"),
                };
                let table = &mut forwarding[switch.0];
                if table.is_empty() {
                    table.resize(n_flows, NO_PORT);
                }
                table[binding.id.0] = port as u32;
            }

            let source = binding.route.source();
            let next_hop = binding
                .route
                .successor(source)
                // tidy-allow: unwrap invariant: routes have at least one hop
                .expect("routes have at least one hop");
            let out_port = links[source.0]
                .binary_search_by_key(&next_hop, |l| l.to)
                .map_err(|_| SimError::Net(NetError::NoSuchLink(source, next_hop)))?;
            let flow = &binding.flow;
            let frames: Box<[FrameGen]> = (0..flow.n_frames())
                .map(|k| {
                    let spec = flow.frame_cyclic(k);
                    let packetization = packetize(spec.payload, &binding.encapsulation);
                    FrameGen {
                        jitter: spec.jitter,
                        min_interarrival: spec.min_interarrival,
                        wire_bits: packetization.frame_wire_bits.into_boxed_slice(),
                    }
                })
                .collect();

            // Each flow draws from its own seed-derived random stream, so
            // lazy interleaved generation stays deterministic regardless
            // of materialisation order.
            let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(config.seed, slot as u64));
            let phase = if config.aligned_start || config.arrival.forces_aligned_start() {
                Time::ZERO
            } else {
                flow.frame_cyclic(0).min_interarrival * rng.gen_range(0.0..1.0)
            };

            if phase < config.horizon {
                arrivals.push(Reverse((phase, slot)));
            }
            cursors.push(FlowCursor {
                id: binding.id,
                source,
                out_port,
                priority: binding.priority,
                frames,
                tsum: flow.tsum(),
                release: phase,
                sequence: 0,
                rng,
            });
        }
        Ok(Engine {
            config,
            queue: EventQueue::new(),
            nodes,
            links,
            port_to_link,
            forwarding,
            destinations,
            cursors,
            arrivals,
            reassembly: BTreeMap::new(),
            downed: BTreeSet::new(),
            stats: SimStats::default(),
        })
    }

    /// Schedule the scripted faults.  Called before any traffic
    /// materialises so that a fault firing at the same instant as a frame
    /// release is applied first (the event queue breaks ties by insertion
    /// order, and lazy arrivals always enqueue after already-pending
    /// same-instant events).
    fn schedule_faults(&mut self, faults: &FaultScript) -> Result<(), SimError> {
        for event in faults.events() {
            self.queue
                .schedule(event.at, EventKind::Fault { kind: event.kind })?;
        }
        Ok(())
    }

    /// Materialise the next packet of flow cursor `slot`: schedule the
    /// release of its Ethernet fragments and advance the cursor to the
    /// packet after it.
    fn emit_packet(&mut self, slot: usize) -> Result<(), SimError> {
        let cursor = &mut self.cursors[slot];
        let release = cursor.release;
        let sequence = cursor.sequence;
        let gmf_frame = (sequence as usize) % cursor.frames.len();
        let gen = &cursor.frames[gmf_frame];
        let n_fragments = gen.wire_bits.len() as u16;
        debug_assert_eq!(usize::from(n_fragments), gen.wire_bits.len());

        self.stats.packets_released += 1;
        for (fragment, &wire_bits) in gen.wire_bits.iter().enumerate() {
            let fragment = fragment as u16;
            let offset = fragment_offset(&self.config, sequence, fragment, n_fragments, gen.jitter);
            let frame = EthFrame {
                packet: PacketId {
                    flow: cursor.id,
                    sequence,
                },
                gmf_frame: gmf_frame as u32,
                fragment,
                n_fragments,
                wire_bits,
                priority: cursor.priority,
                packet_arrival: release,
            };
            self.queue.schedule(
                release + offset,
                EventKind::SourceFrameRelease {
                    host: cursor.source,
                    port: cursor.out_port,
                    frame,
                },
            )?;
        }

        let gap = match self.config.arrival {
            ArrivalPolicy::Dense
            | ArrivalPolicy::CriticalInstant
            | ArrivalPolicy::MaxReleaseJitter => gen.min_interarrival,
            ArrivalPolicy::RandomSlack { slack } => {
                gen.min_interarrival * (1.0 + cursor.rng.gen_range(0.0..=slack.max(0.0)))
            }
            ArrivalPolicy::BurstyGops { max_pause } => {
                // Dense inside the cycle; a random pause before the next
                // GOP re-randomises the flows' relative phasing (gaps
                // only ever grow, so arrivals stay legal).
                let mut gap = gen.min_interarrival;
                if gmf_frame + 1 == cursor.frames.len() {
                    gap += cursor.tsum * cursor.rng.gen_range(0.0..=max_pause.max(0.0));
                }
                gap
            }
        };
        cursor.sequence += 1;
        cursor.release = release + gap;
        if cursor.release < self.config.horizon {
            self.arrivals.push(Reverse((cursor.release, slot)));
        }
        Ok(())
    }

    /// Materialise every flow arrival due at or before the next event.
    /// Fragments enter the queue at times `>= release`, and releases are
    /// popped in (time, flow) order, so materialisation never schedules
    /// behind the clock.
    fn materialise_due_arrivals(&mut self) -> Result<(), SimError> {
        while let Some(&Reverse((release, slot))) = self.arrivals.peek() {
            if let Some(head) = self.queue.peek_time() {
                if head < release {
                    break;
                }
            }
            self.arrivals.pop();
            debug_assert_eq!(self.cursors[slot].release, release);
            self.emit_packet(slot)?;
        }
        Ok(())
    }

    fn endpoint_mut(&mut self, id: NodeId) -> &mut EndpointState {
        match &mut self.nodes[id.0] {
            NodeSlot::Endpoint(e) => e,
            // tidy-allow: unwrap invariant: callers address endpoints only
            NodeSlot::Switch(_) => unreachable!("node is an endpoint"),
        }
    }

    fn switch_mut(&mut self, id: NodeId) -> &mut SwitchState {
        match &mut self.nodes[id.0] {
            NodeSlot::Switch(s) => s,
            // tidy-allow: unwrap invariant: callers address switches only
            NodeSlot::Endpoint(_) => unreachable!("node is a switch"),
        }
    }

    /// Output port of the link from `from` towards `to`.  For endpoints
    /// the index agrees with [`EndpointState`]'s port numbering (both are
    /// the sorted out-neighbour order).
    fn port_out(&self, from: NodeId, to: NodeId) -> Result<usize, SimError> {
        self.links[from.0]
            .binary_search_by_key(&to, |l| l.to)
            .map_err(|_| SimError::Net(NetError::NoSuchLink(from, to)))
    }

    fn run(mut self) -> Result<SimulationResult, SimError> {
        let mut events_processed: u64 = 0;
        let mut final_time = Time::ZERO;
        loop {
            self.materialise_due_arrivals()?;
            let Some(event) = self.queue.pop() else {
                break;
            };
            events_processed += 1;
            if events_processed > MAX_EVENTS {
                return Err(SimError::EventLimitExceeded);
            }
            final_time = event.time;
            let now = event.time;
            match event.kind {
                EventKind::SourceFrameRelease { host, port, frame } => {
                    self.endpoint_mut(host).out_queues[port].push_back(frame);
                    self.try_start_endpoint_tx(host, port, now)?;
                }
                EventKind::HostTxComplete { host, port } => {
                    self.stats.frames_transmitted += 1;
                    let link = self.links[host.0][port];
                    let frame = self.endpoint_mut(host).tx_in_flight[port]
                        .take()
                        // tidy-allow: unwrap invariant: a frame was in flight
                        .expect("a frame was in flight");
                    self.queue.schedule(
                        now + link.propagation,
                        EventKind::FrameArrival {
                            node: link.to,
                            in_port: link.dst_port as usize,
                            frame,
                        },
                    )?;
                    self.try_start_endpoint_tx(host, port, now)?;
                }
                EventKind::FrameArrival {
                    node,
                    in_port,
                    frame,
                } => match &mut self.nodes[node.0] {
                    NodeSlot::Switch(sw) => {
                        sw.enqueue_input(in_port, frame);
                        self.wake_cpu(node, now)?;
                    }
                    NodeSlot::Endpoint(_) => {
                        self.deliver_to_destination(node, frame, now);
                    }
                },
                EventKind::CpuDispatch { switch } => {
                    self.cpu_dispatch(switch, now)?;
                }
                EventKind::SwitchTxComplete { switch, port } => {
                    self.stats.frames_transmitted += 1;
                    let link_idx = self.port_to_link[switch.0][port];
                    debug_assert_ne!(link_idx, NO_PORT, "transmissions complete on out-links");
                    let link = self.links[switch.0][link_idx as usize];
                    let frame = self
                        .switch_mut(switch)
                        .nic_unload(port)
                        // tidy-allow: unwrap invariant: a frame was in flight
                        .expect("a frame was in flight");
                    self.queue.schedule(
                        now + link.propagation,
                        EventKind::FrameArrival {
                            node: link.to,
                            in_port: link.dst_port as usize,
                            frame,
                        },
                    )?;
                    // The NIC is idle again: the send task may have work.
                    self.wake_cpu(switch, now)?;
                }
                EventKind::Fault { kind } => self.apply_fault(kind, now)?,
            }
        }
        Ok(SimulationResult {
            stats: self.stats,
            events_processed,
            final_time,
            queue: self.queue.shape(),
        })
    }

    /// Apply one scripted fault.  Link faults gate *new* transmissions
    /// only: frames already handed to a NIC complete normally, and blocked
    /// frames wait in their output queues until the cable comes back.
    fn apply_fault(&mut self, kind: FaultKind, now: Time) -> Result<(), SimError> {
        match kind {
            FaultKind::LinkDown { a, b } => {
                self.downed.insert(cable(a, b));
            }
            FaultKind::LinkUp { a, b } => {
                self.downed.remove(&cable(a, b));
                // Blocked senders on both ends may resume immediately.
                for (from, to) in [(a, b), (b, a)] {
                    match &self.nodes[from.0] {
                        NodeSlot::Endpoint(_) => {
                            let port = self.port_out(from, to)?;
                            self.try_start_endpoint_tx(from, port, now)?;
                        }
                        NodeSlot::Switch(_) => self.wake_cpu(from, now)?,
                    }
                }
            }
            FaultKind::CpuDegrade { switch, factor } => {
                // Validated against the topology before the run started.
                let sw = self.switch_mut(switch);
                sw.croute = sw.croute * factor;
                sw.csend = sw.csend * factor;
            }
        }
        Ok(())
    }

    /// Start transmitting the next queued frame of an endpoint NIC if it is
    /// idle.
    fn try_start_endpoint_tx(
        &mut self,
        host: NodeId,
        port: usize,
        now: Time,
    ) -> Result<(), SimError> {
        let link = self.links[host.0][port];
        if self.downed.contains(&cable(host, link.to)) {
            return Ok(());
        }
        let endpoint = self.endpoint_mut(host);
        if endpoint.tx_in_flight[port].is_some() {
            return Ok(());
        }
        let Some(frame) = endpoint.out_queues[port].pop_front() else {
            return Ok(());
        };
        let tx_time = link.speed.transmission_time(frame.wire_bits);
        endpoint.tx_in_flight[port] = Some(frame);
        self.queue
            .schedule(now + tx_time, EventKind::HostTxComplete { host, port })?;
        Ok(())
    }

    /// Record the arrival of a fragment at its destination and complete the
    /// packet when all fragments are there.
    fn deliver_to_destination(&mut self, node: NodeId, frame: EthFrame, now: Time) {
        debug_assert_eq!(
            self.destinations
                .get(frame.packet.flow.0)
                .copied()
                .flatten(),
            Some(node),
            "frame delivered to a node that is not its flow's destination"
        );
        let complete = if frame.n_fragments == 1 {
            // Single-fragment packets complete on arrival; the common
            // (voice) case never touches the reassembly map.
            true
        } else {
            let received = self.reassembly.entry(frame.packet).or_insert(0);
            *received += 1;
            if *received == frame.n_fragments {
                self.reassembly.remove(&frame.packet);
                true
            } else {
                false
            }
        };
        if complete {
            if frame.packet_arrival >= self.config.measure_from {
                self.stats.record(PacketSample {
                    flow: frame.packet.flow,
                    sequence: frame.packet.sequence,
                    gmf_frame: frame.gmf_frame as usize,
                    arrival: frame.packet_arrival,
                    completion: now,
                });
            } else {
                // Outside the measurement window: the packet drained, but
                // its response time is not part of the aggregates.
                self.stats.packets_completed += 1;
            }
        }
    }

    /// Wake a sleeping switch CPU if it has work.
    fn wake_cpu(&mut self, switch: NodeId, now: Time) -> Result<(), SimError> {
        let sw = self.switch_mut(switch);
        if !sw.cpu_busy && sw.has_any_work() {
            sw.cpu_busy = true;
            self.queue
                .schedule(now, EventKind::CpuDispatch { switch })?;
        }
        Ok(())
    }

    /// One CPU dispatch: finish the previous task's effect, then pick and
    /// start the next task (skipping idle tasks at the idle-poll cost).
    fn cpu_dispatch(&mut self, switch: NodeId, now: Time) -> Result<(), SimError> {
        // 1. Apply the effect of the task that just finished.
        let pending = self.switch_mut(switch).pending.take();
        if let Some(pending) = pending {
            match pending {
                PendingCompletion::RouteDone { port, frame } => {
                    self.switch_mut(switch).enqueue_output(port, frame);
                }
                PendingCompletion::SendDone { port, frame } => {
                    let link_idx = self.port_to_link[switch.0][port];
                    debug_assert_ne!(link_idx, NO_PORT, "send tasks only feed out-links");
                    let link = self.links[switch.0][link_idx as usize];
                    let tx_time = link.speed.transmission_time(frame.wire_bits);
                    self.switch_mut(switch).nic_load(port, frame);
                    self.queue
                        .schedule(now + tx_time, EventKind::SwitchTxComplete { switch, port })?;
                }
            }
        }

        // 2. Select the next task with work, charging idle polls for the
        //    tasks that are offered a turn but have nothing to do.  Send
        //    tasks towards a downed cable have no useful work: their
        //    frames stay queued until the cable comes back.  Field-level
        //    borrows keep the scan allocation-free: the scheduler advances
        //    while the work predicate reads the queues directly.
        let downed = &self.downed;
        let forwarding = &self.forwarding;
        let SwitchState {
            ports,
            inputs,
            outputs,
            nic_in_flight,
            scheduler,
            tasks,
            cpu_busy,
            pending: pending_slot,
            croute,
            csend,
            input_frames,
            sendable_ports,
        } = match &mut self.nodes[switch.0] {
            NodeSlot::Switch(s) => s.as_mut(),
            // tidy-allow: unwrap invariant: dispatch events address switches
            NodeSlot::Endpoint(_) => unreachable!("node is a switch"),
        };
        let (croute, csend) = (*croute, *csend);
        let task_ready = |task: SwitchTask| match task {
            SwitchTask::Route { port } => !inputs[port].is_empty(),
            SwitchTask::Send { port } => {
                nic_in_flight[port].is_none()
                    && !outputs[port].is_empty()
                    && !downed.contains(&cable(switch, ports[port]))
            }
        };
        let Some((selected, idle_polls)) = scheduler.dispatch_scan(|idx| task_ready(tasks[idx]))
        else {
            // Nothing ready anywhere: the CPU sleeps until new work
            // arrives (the scan consumed no turns).
            *cpu_busy = false;
            return Ok(());
        };

        let (cost, pending) = match tasks[selected] {
            SwitchTask::Route { port } => {
                let frame = inputs[port]
                    .pop_front()
                    // tidy-allow: unwrap invariant: task had work
                    .expect("task had work");
                *input_frames -= 1;
                let out_port = forwarding[switch.0][frame.packet.flow.0];
                debug_assert_ne!(out_port, NO_PORT, "routed flows have forwarding entries");
                let out_port = out_port as usize;
                (
                    croute,
                    PendingCompletion::RouteDone {
                        port: out_port,
                        frame,
                    },
                )
            }
            SwitchTask::Send { port } => {
                let frame = outputs[port]
                    .pop_highest()
                    // tidy-allow: unwrap invariant: task had work
                    .expect("task had work");
                // The NIC is idle here (the task was ready), so the port
                // stops being sendable exactly when its queue drains.
                if outputs[port].is_empty() {
                    *sendable_ports -= 1;
                }
                (csend, PendingCompletion::SendDone { port, frame })
            }
        };
        *pending_slot = Some(pending);
        let busy_time = self.config.idle_poll_cost * idle_polls + cost;
        self.queue
            .schedule(now + busy_time, EventKind::CpuDispatch { switch })?;
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use gmf_model::{paper_figure3_flow, voip_flow, VoiceCodec};
    use gmf_net::{paper_figure1, shortest_path, star, LinkProfile, Priority, Route, SwitchConfig};

    /// Direct host-to-host cable: the simplest possible network.
    fn direct_link_scenario() -> (Topology, FlowSet) {
        let mut t = Topology::new();
        let a = t.add_end_host("a");
        let b = t.add_end_host("b");
        t.add_duplex_link(a, b, LinkProfile::ethernet_100m())
            .unwrap();
        let mut fs = FlowSet::new();
        let voice = voip_flow(
            "voice",
            VoiceCodec::G711,
            Time::from_millis(10.0),
            Time::ZERO,
        );
        fs.add(voice, Route::new(&t, vec![a, b]).unwrap(), Priority(7));
        (t, fs)
    }

    #[test]
    fn direct_link_response_is_transmission_plus_propagation() {
        let (t, fs) = direct_link_scenario();
        let sim = Simulator::new(&t, &fs, SimConfig::quick()).unwrap();
        let result = sim.run().unwrap();
        // 200 ms horizon, one packet every 20 ms -> 10 packets: the 11th
        // release lands exactly on the horizon, which is exclusive.
        let released = result.stats.packets_released;
        assert_eq!(released, 10);
        assert_eq!(result.stats.packets_completed, released);
        // Each voice packet is one Ethernet frame of 226 bytes on the wire:
        // 1808 bits at 100 Mbit/s = 18.08 µs, plus 5 µs propagation.
        let expected = Time::from_micros(18.08 + 5.0);
        let stats = result.stats.frame_stats(FlowId(0), 0).unwrap();
        assert_eq!(stats.max, expected, "max {} vs {}", stats.max, expected);
        assert_eq!(stats.min, expected);
        assert_eq!(result.stats.frames_transmitted, released);
        assert!(result.final_time <= Time::from_millis(201.0));
    }

    /// Two hosts on one switch, one flow between them.
    fn single_switch_scenario(payload_bytes: u64) -> (Topology, FlowSet) {
        let (t, _sw, hosts) = star(4, LinkProfile::ethernet_100m(), SwitchConfig::paper());
        let mut fs = FlowSet::new();
        let flow = gmf_model::cbr_flow(
            "cbr",
            payload_bytes,
            Time::from_millis(10.0),
            Time::from_millis(10.0),
            Time::ZERO,
        );
        let route = shortest_path(&t, hosts[0], hosts[1]).unwrap();
        fs.add(flow, route, Priority(7));
        (t, fs)
    }

    #[test]
    fn single_switch_adds_processing_and_second_hop() {
        let (t, fs) = single_switch_scenario(1000);
        let sim = Simulator::new(&t, &fs, SimConfig::quick()).unwrap();
        let result = sim.run().unwrap();
        assert!(result.stats.packets_completed >= 20);
        assert_eq!(
            result.stats.packets_completed,
            result.stats.packets_released
        );
        let observed = result.stats.worst_response(FlowId(0)).unwrap();
        // Lower bound: two serialisations (8528 bits at 100 Mbit/s each),
        // two propagations, one CROUTE and one CSEND.
        let tx = Time::from_secs(8528.0 / 1e8);
        let floor = tx * 2u64 + Time::from_micros(5.0) * 2u64 + Time::from_micros(3.7);
        assert!(observed >= floor, "observed {observed} < floor {floor}");
        // Upper sanity bound: the isolated packet should clear the switch
        // within a few stride rounds.
        let ceiling = floor + Time::from_micros(100.0);
        assert!(
            observed <= ceiling,
            "observed {observed} > ceiling {ceiling}"
        );
        // Each packet traverses two links as a single Ethernet frame.
        assert_eq!(
            result.stats.frames_transmitted,
            2 * result.stats.packets_released
        );
    }

    #[test]
    fn fragmented_packets_complete_only_when_all_fragments_arrive() {
        // 4000-byte packets fragment into 3 Ethernet frames.
        let (t, fs) = single_switch_scenario(4000);
        let sim = Simulator::new(&t, &fs, SimConfig::quick()).unwrap();
        let result = sim.run().unwrap();
        assert!(result.stats.packets_completed >= 20);
        assert_eq!(
            result.stats.packets_completed,
            result.stats.packets_released
        );
        // 3 fragments × 2 links per packet.
        assert_eq!(
            result.stats.frames_transmitted,
            6 * result.stats.packets_released
        );
        // The response time covers at least the serialisation of the whole
        // packet (3 fragments back to back on the second link).
        let wire_total = Time::from_secs((2.0 * 12304.0 + 8848.0) / 1e8);
        let observed = result.stats.worst_response(FlowId(0)).unwrap();
        assert!(observed > wire_total);
    }

    #[test]
    fn static_priority_favours_the_higher_priority_flow() {
        // Two flows from different hosts converge on the same output port of
        // one switch; the link is slow enough to create a backlog.
        let (t, _sw, hosts) = star(4, LinkProfile::ethernet_10m(), SwitchConfig::paper());
        let mut fs = FlowSet::new();
        let mk = |name: &str| {
            gmf_model::cbr_flow(
                name,
                20_000,
                Time::from_millis(20.0),
                Time::from_millis(100.0),
                Time::from_millis(1.0),
            )
        };
        let hi_route = shortest_path(&t, hosts[0], hosts[3]).unwrap();
        let lo_route = shortest_path(&t, hosts[1], hosts[3]).unwrap();
        fs.add(mk("hi"), hi_route, Priority(7));
        fs.add(mk("lo"), lo_route, Priority(1));
        let sim = Simulator::new(&t, &fs, SimConfig::quick()).unwrap();
        let result = sim.run().unwrap();
        let hi = result.stats.worst_response(FlowId(0)).unwrap();
        let lo = result.stats.worst_response(FlowId(1)).unwrap();
        assert!(
            hi < lo,
            "high-priority flow ({hi}) must beat the low-priority flow ({lo})"
        );
    }

    #[test]
    fn simulation_is_deterministic_for_a_seed() {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(6),
        );
        let voice = voip_flow(
            "voice",
            VoiceCodec::G711,
            Time::from_millis(20.0),
            Time::from_millis(0.5),
        );
        fs.add(
            voice,
            shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap(),
            Priority(7),
        );
        let cfg = SimConfig::quick()
            .with_seed(7)
            .with_horizon(Time::from_millis(400.0));
        let cfg = SimConfig {
            arrival: ArrivalPolicy::RandomSlack { slack: 0.3 },
            aligned_start: false,
            ..cfg
        };
        let r1 = Simulator::new(&t, &fs, cfg).unwrap().run().unwrap();
        let r2 = Simulator::new(&t, &fs, cfg).unwrap().run().unwrap();
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(r1.events_processed, r2.events_processed);
        // A different seed shifts phases and slack, changing at least the
        // observed response times (with very high probability).
        let r3 = Simulator::new(&t, &fs, cfg.with_seed(8))
            .unwrap()
            .run()
            .unwrap();
        assert_ne!(r1.stats, r3.stats);
    }

    /// Direct host-to-host cable carrying one explicit flow.
    fn direct_link_with(flow: gmf_model::GmfFlow) -> (Topology, FlowSet) {
        let mut t = Topology::new();
        let a = t.add_end_host("a");
        let b = t.add_end_host("b");
        t.add_duplex_link(a, b, LinkProfile::ethernet_100m())
            .unwrap();
        let mut fs = FlowSet::new();
        fs.add(flow, Route::new(&t, vec![a, b]).unwrap(), Priority(7));
        (t, fs)
    }

    /// A three-frame CBR-style flow with 10 ms gaps (one "GOP" = 30 ms).
    fn three_frame_flow(jitter: Time) -> gmf_model::GmfFlow {
        use gmf_model::{Bits, FrameSpec, GmfFlow};
        let frame = |payload: u64| FrameSpec {
            payload: Bits::from_bytes(payload),
            min_interarrival: Time::from_millis(10.0),
            deadline: Time::from_millis(100.0),
            jitter,
        };
        GmfFlow::new("gop", vec![frame(4000), frame(1000), frame(1000)]).unwrap()
    }

    #[test]
    fn critical_instant_equals_dense_with_aligned_start() {
        // CriticalInstant must override a randomised start: with
        // `aligned_start: false` it still produces exactly the traffic of
        // Dense with `aligned_start: true`.
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(6),
        );
        let voice = voip_flow(
            "voice",
            VoiceCodec::G711,
            Time::from_millis(20.0),
            Time::from_millis(0.5),
        );
        fs.add(
            voice,
            shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap(),
            Priority(7),
        );
        let critical = SimConfig {
            arrival: ArrivalPolicy::CriticalInstant,
            aligned_start: false,
            ..SimConfig::quick()
        };
        let dense = SimConfig {
            arrival: ArrivalPolicy::Dense,
            aligned_start: true,
            ..SimConfig::quick()
        };
        let rc = Simulator::new(&t, &fs, critical).unwrap().run().unwrap();
        let rd = Simulator::new(&t, &fs, dense).unwrap().run().unwrap();
        assert_eq!(rc.stats, rd.stats);
        assert_eq!(rc.events_processed, rd.events_processed);
    }

    #[test]
    fn max_release_jitter_delays_exactly_the_first_packet() {
        // Single flow on a direct link: packet 0 is held to the end of its
        // jitter window, every later packet releases immediately, so the
        // worst response grows by 0.999 × GJ over the jitter-free dense run
        // while the best response is unchanged.
        let jitter = Time::from_millis(1.0);
        let flow = gmf_model::cbr_flow(
            "cbr",
            1000,
            Time::from_millis(10.0),
            Time::from_millis(50.0),
            jitter,
        );
        let (t, fs) = direct_link_with(flow);
        let base = SimConfig {
            jitter_spread: JitterSpread::AtStart,
            ..SimConfig::quick()
        };
        let adversarial = SimConfig {
            arrival: ArrivalPolicy::MaxReleaseJitter,
            ..base
        };
        let rb = Simulator::new(&t, &fs, base).unwrap().run().unwrap();
        let ra = Simulator::new(&t, &fs, adversarial).unwrap().run().unwrap();
        let base_stats = rb.stats.frame_stats(FlowId(0), 0).unwrap();
        let adv_stats = ra.stats.frame_stats(FlowId(0), 0).unwrap();
        assert_eq!(adv_stats.max, base_stats.max + jitter * 0.999);
        assert_eq!(adv_stats.min, base_stats.min);
        assert_eq!(ra.stats.packets_released, rb.stats.packets_released);
    }

    #[test]
    fn bursty_gops_only_stretches_cycle_boundaries() {
        let (t, fs) = direct_link_with(three_frame_flow(Time::ZERO));
        let dense = Simulator::new(&t, &fs, SimConfig::quick())
            .unwrap()
            .run()
            .unwrap();
        let bursty_cfg = SimConfig {
            arrival: ArrivalPolicy::BurstyGops { max_pause: 1.0 },
            ..SimConfig::quick()
        };
        let bursty = Simulator::new(&t, &fs, bursty_cfg).unwrap().run().unwrap();
        // Pauses only ever lengthen gaps, so the bursty run releases no
        // more traffic than the dense one but at least the first full GOP.
        assert!(bursty.stats.packets_released <= dense.stats.packets_released);
        assert!(bursty.stats.packets_released >= 3);
        assert_eq!(
            bursty.stats.packets_completed,
            bursty.stats.packets_released
        );
        // A zero-pause bursty run degenerates to Dense exactly.
        let zero_cfg = SimConfig {
            arrival: ArrivalPolicy::BurstyGops { max_pause: 0.0 },
            ..SimConfig::quick()
        };
        let zero = Simulator::new(&t, &fs, zero_cfg).unwrap().run().unwrap();
        assert_eq!(zero.stats, dense.stats);
    }

    #[test]
    fn adversarial_policies_are_deterministic_across_repeat_runs() {
        let (t, net) = paper_figure1();
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(150.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(6),
        );
        for policy in [
            ArrivalPolicy::CriticalInstant,
            ArrivalPolicy::MaxReleaseJitter,
            ArrivalPolicy::BurstyGops { max_pause: 0.8 },
        ] {
            let cfg = SimConfig {
                arrival: policy,
                horizon: Time::from_millis(400.0),
                seed: 99,
                ..SimConfig::default()
            };
            let r1 = Simulator::new(&t, &fs, cfg).unwrap().run().unwrap();
            let r2 = Simulator::new(&t, &fs, cfg).unwrap().run().unwrap();
            assert_eq!(r1.stats, r2.stats, "{}", policy.label());
            assert_eq!(r1.events_processed, r2.events_processed);
        }
    }

    #[test]
    fn frames_that_never_arrive_report_none_not_zero() {
        // A 15 ms horizon admits GMF frames 0 (t = 0 ms) and 1 (t = 10 ms)
        // but never frame 2 (t = 20 ms): its statistics must be absent, not
        // a zero-count aggregate.
        let (t, fs) = direct_link_with(three_frame_flow(Time::ZERO));
        let cfg = SimConfig::quick().with_horizon(Time::from_millis(15.0));
        let result = Simulator::new(&t, &fs, cfg).unwrap().run().unwrap();
        assert_eq!(result.stats.packets_released, 2);
        assert!(result.stats.worst_frame_response(FlowId(0), 0).is_some());
        assert!(result.stats.worst_frame_response(FlowId(0), 1).is_some());
        assert_eq!(result.stats.worst_frame_response(FlowId(0), 2), None);
        assert_eq!(result.stats.completed_of_flow(FlowId(0)), 2);
        // A zero horizon releases nothing: every per-flow query is empty.
        let empty = Simulator::new(&t, &fs, cfg.with_horizon(Time::ZERO))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(empty.stats.packets_released, 0);
        assert_eq!(empty.stats.completed_of_flow(FlowId(0)), 0);
        assert_eq!(empty.stats.worst_response(FlowId(0)), None);
    }

    #[test]
    fn horizon_truncation_mid_gop_drains_in_flight_traffic() {
        // Cut the horizon inside the second GOP: packets released before
        // the horizon still complete (the simulator drains), and the frame
        // coverage reflects the truncation point exactly.
        let (t, fs) = direct_link_with(three_frame_flow(Time::from_millis(0.5)));
        let cfg = SimConfig::quick().with_horizon(Time::from_millis(45.0));
        let result = Simulator::new(&t, &fs, cfg).unwrap().run().unwrap();
        // Releases at 0, 10, 20 | 30, 40 ms — five packets, frame 2 of the
        // second GOP falls past the horizon.
        assert_eq!(result.stats.packets_released, 5);
        assert_eq!(
            result.stats.packets_completed,
            result.stats.packets_released
        );
        assert_eq!(result.stats.frame_stats(FlowId(0), 0).unwrap().count, 2);
        assert_eq!(result.stats.frame_stats(FlowId(0), 1).unwrap().count, 2);
        assert_eq!(result.stats.frame_stats(FlowId(0), 2).unwrap().count, 1);
        // The drain runs past the horizon (the last packet arrives at
        // 40 ms and still needs transmission + propagation).
        assert!(result.final_time > Time::from_millis(40.0));
    }

    #[test]
    fn random_slack_spreads_arrivals() {
        let (t, fs) = direct_link_scenario();
        let dense = SimConfig::quick();
        let slack = SimConfig {
            arrival: ArrivalPolicy::RandomSlack { slack: 0.5 },
            ..SimConfig::quick()
        };
        let rd = Simulator::new(&t, &fs, dense).unwrap().run().unwrap();
        let rs = Simulator::new(&t, &fs, slack).unwrap().run().unwrap();
        assert!(rs.stats.packets_released <= rd.stats.packets_released);
        assert!(rs.stats.packets_released >= rd.stats.packets_released / 2);
    }

    #[test]
    fn flows_may_not_start_or_end_at_switches() {
        let (t, _sw, hosts) = star(3, LinkProfile::ethernet_100m(), SwitchConfig::paper());
        let mut fs = FlowSet::new();
        let flow = voip_flow(
            "voice",
            VoiceCodec::G711,
            Time::from_millis(10.0),
            Time::ZERO,
        );
        // Route ending at the switch itself.
        let bad_route = Route::new(&t, vec![hosts[0], NodeId(0)]).unwrap();
        fs.add(flow, bad_route, Priority(7));
        assert!(matches!(
            Simulator::new(&t, &fs, SimConfig::quick()),
            Err(SimError::EndpointIsSwitch(_))
        ));
    }

    #[test]
    fn error_display() {
        assert!(SimError::EndpointIsSwitch(NodeId(4))
            .to_string()
            .contains("node4"));
        assert!(SimError::EventLimitExceeded.to_string().contains("limit"));
        let e: SimError = NetError::UnknownNode(NodeId(1)).into();
        assert!(e.to_string().contains("network"));
        let e = SimError::EventInPast {
            at: Time::from_millis(-1.0),
            now: Time::ZERO,
        };
        assert!(e.to_string().contains("in the past"));
    }

    #[test]
    fn negative_fault_time_is_a_hard_error_in_every_profile() {
        // The realistic trigger for a past-time event: a fault scripted
        // before t = 0.  The event queue rejects it with a hard error (not
        // a `debug_assert!`), so this test also passes under
        // `--release`.
        let (t, fs) = direct_link_scenario();
        let script = crate::faults::FaultScript::new(vec![crate::faults::TransientEvent {
            at: Time::from_millis(-5.0),
            kind: crate::faults::FaultKind::LinkDown {
                a: NodeId(0),
                b: NodeId(1),
            },
        }]);
        let err = Simulator::with_faults(&t, &fs, SimConfig::quick(), script)
            .unwrap()
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SimError::EventInPast {
                at: Time::from_millis(-5.0),
                now: Time::ZERO,
            }
        );
    }

    #[test]
    fn empty_flow_set_runs_to_completion_immediately() {
        let (t, _) = paper_figure1();
        let fs = FlowSet::new();
        let result = Simulator::new(&t, &fs, SimConfig::quick())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(result.events_processed, 0);
        assert_eq!(result.stats.packets_completed, 0);
    }

    #[test]
    fn link_down_blocks_and_link_up_drains() {
        // One voice flow over a direct cable; the cable is down for
        // 30–60 ms.  Packets released in that window complete only after
        // the repair, so the worst response grows by roughly the outage
        // length; the run still drains completely and deterministically.
        let (t, fs) = direct_link_scenario();
        let script = crate::faults::FaultScript::new(vec![
            crate::faults::TransientEvent {
                at: Time::from_millis(30.0),
                kind: crate::faults::FaultKind::LinkDown {
                    a: NodeId(0),
                    b: NodeId(1),
                },
            },
            crate::faults::TransientEvent {
                at: Time::from_millis(60.0),
                kind: crate::faults::FaultKind::LinkUp {
                    a: NodeId(1),
                    b: NodeId(0),
                },
            },
        ]);
        let cfg = SimConfig::quick();
        let baseline = Simulator::new(&t, &fs, cfg).unwrap().run().unwrap();
        let faulted = Simulator::with_faults(&t, &fs, cfg, script.clone())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            faulted.stats.packets_released,
            baseline.stats.packets_released
        );
        assert_eq!(
            faulted.stats.packets_completed,
            faulted.stats.packets_released
        );
        let worst_base = baseline.stats.worst_response(FlowId(0)).unwrap();
        let worst_fault = faulted.stats.worst_response(FlowId(0)).unwrap();
        // The packet released at 40 ms waits out the rest of the outage
        // (~20 ms) before its transmission can start.
        assert!(worst_fault >= worst_base + Time::from_millis(15.0));
        assert!(worst_fault <= worst_base + Time::from_millis(25.0));
        // Byte-identical across repeat runs.
        let again = Simulator::with_faults(&t, &fs, cfg, script)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(faulted.stats, again.stats);
        assert_eq!(faulted.events_processed, again.events_processed);
    }

    #[test]
    fn measure_from_excludes_outage_traffic_and_recovery_conforms() {
        // Same outage, but measurement starts 40 ms after the repair: the
        // post-recovery response times match the fault-free run exactly.
        let (t, fs) = direct_link_scenario();
        let script = crate::faults::FaultScript::new(vec![
            crate::faults::TransientEvent {
                at: Time::from_millis(30.0),
                kind: crate::faults::FaultKind::LinkDown {
                    a: NodeId(0),
                    b: NodeId(1),
                },
            },
            crate::faults::TransientEvent {
                at: Time::from_millis(60.0),
                kind: crate::faults::FaultKind::LinkUp {
                    a: NodeId(0),
                    b: NodeId(1),
                },
            },
        ]);
        let cfg = SimConfig::quick().with_measure_from(Time::from_millis(100.0));
        let clean = Simulator::new(&t, &fs, cfg).unwrap().run().unwrap();
        let faulted = Simulator::with_faults(&t, &fs, cfg, script)
            .unwrap()
            .run()
            .unwrap();
        // Every drained packet still counts, measured or not.
        assert_eq!(
            faulted.stats.packets_completed,
            faulted.stats.packets_released
        );
        // Only post-100 ms arrivals are aggregated, and by then the
        // backlog has drained: the aggregates match the fault-free run.
        let sc = clean.stats.frame_stats(FlowId(0), 0).unwrap();
        let sf = faulted.stats.frame_stats(FlowId(0), 0).unwrap();
        assert_eq!(sc.count, sf.count);
        assert_eq!(sf.max, sc.max);
        assert_eq!(sf.min, sc.min);
        assert!(sc.count < clean.stats.packets_completed);
    }

    #[test]
    fn cpu_degrade_slows_the_switch() {
        let (t, fs) = single_switch_scenario(1000);
        let degrade = crate::faults::FaultScript::new(vec![crate::faults::TransientEvent {
            at: Time::ZERO,
            kind: crate::faults::FaultKind::CpuDegrade {
                switch: NodeId(0),
                factor: 8,
            },
        }]);
        let cfg = SimConfig::quick();
        let base = Simulator::new(&t, &fs, cfg).unwrap().run().unwrap();
        let slow = Simulator::with_faults(&t, &fs, cfg, degrade)
            .unwrap()
            .run()
            .unwrap();
        let wb = base.stats.worst_response(FlowId(0)).unwrap();
        let ws = slow.stats.worst_response(FlowId(0)).unwrap();
        // One CROUTE + one CSEND grew by 7× (3.7 µs -> 29.6 µs).
        let added = (Time::from_micros(2.7) + Time::from_micros(1.0)) * 7u64;
        assert!(ws >= wb + added * 0.99, "ws {ws} wb {wb}");
        assert_eq!(slow.stats.packets_completed, slow.stats.packets_released);
    }

    /// Conformance under failure: a switch degraded mid-script by factor
    /// `k` is exactly the network the survivor analysis of the matching
    /// `SwitchDegrade` scenario bounds — observed response times of
    /// post-degradation traffic must stay below those bounds.
    #[test]
    fn degraded_simulation_respects_survivor_analysis_bounds() {
        let netcfg = gmf_net::PaperNetworkConfig {
            access: LinkProfile::ethernet_100m(),
            ..Default::default()
        };
        let (t, net) = gmf_net::paper_figure1_with(netcfg);
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(500.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(6),
        );
        let voice = voip_flow(
            "voice",
            VoiceCodec::G711,
            Time::from_millis(50.0),
            Time::from_millis(0.5),
        );
        fs.add(
            voice,
            shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap(),
            Priority(7),
        );

        // The analysis side: degrade the first switch on the routes by 2×
        // via the failure overlay and bound the survivor.
        let factor = 2u64;
        let switch = net.switches[0];
        let mut faulty = t.clone();
        let installed = *faulty.switch_config(switch).unwrap();
        let degraded = SwitchConfig {
            croute: installed.croute * factor,
            csend: installed.csend * factor,
            processors: installed.processors,
        };
        faulty.degrade_switch(switch, degraded).unwrap();
        let survivor = faulty.survivor();
        let report = gmf_analysis::analyze(
            survivor.topology(),
            &fs,
            &gmf_analysis::AnalysisConfig::conservative(),
        )
        .unwrap();
        assert!(report.schedulable);

        // The simulation side: the same degradation fires at 100 ms;
        // measurement starts at 200 ms, well after the last pre-fault
        // packet drained.
        let script = crate::faults::FaultScript::new(vec![crate::faults::TransientEvent {
            at: Time::from_millis(100.0),
            kind: crate::faults::FaultKind::CpuDegrade { switch, factor },
        }]);
        let sim_cfg = SimConfig {
            horizon: Time::from_secs(2.0),
            measure_from: Time::from_millis(200.0),
            ..SimConfig::default()
        };
        let result = Simulator::with_faults(&t, &fs, sim_cfg, script)
            .unwrap()
            .run()
            .unwrap();
        assert!(result.stats.packets_completed > 50);

        for binding in fs.bindings() {
            let flow_report = report.flow(binding.id).unwrap();
            for (k, frame_bound) in flow_report.frames.iter().enumerate() {
                if let Some(observed) = result.stats.worst_frame_response(binding.id, k) {
                    assert!(
                        observed <= frame_bound.bound,
                        "flow {} frame {k}: degraded simulation {} exceeds survivor bound {}",
                        binding.flow.name(),
                        observed,
                        frame_bound.bound
                    );
                }
            }
        }
    }

    /// The central soundness check (experiment E7 in miniature): the
    /// analytical bound with the conservative configuration dominates every
    /// observed response time in the paper scenario.
    ///
    /// The scenario uses 100 Mbit/s access links so that every frame's
    /// transmission fits well inside its minimum inter-arrival time on every
    /// traversed link; the paper's per-frame equations do not account for
    /// backlog from *preceding frames of the same flow* (see DESIGN.md §4
    /// and experiment E7), so this is the regime in which the published
    /// analysis is intended to be safe.
    #[test]
    fn analysis_bound_dominates_simulation_in_paper_scenario() {
        let netcfg = gmf_net::PaperNetworkConfig {
            access: LinkProfile::ethernet_100m(),
            ..Default::default()
        };
        let (t, net) = gmf_net::paper_figure1_with(netcfg);
        let mut fs = FlowSet::new();
        let video = paper_figure3_flow("video", Time::from_millis(500.0), Time::from_millis(1.0));
        fs.add(
            video,
            shortest_path(&t, net.hosts[0], net.hosts[3]).unwrap(),
            Priority(6),
        );
        let voice = voip_flow(
            "voice",
            VoiceCodec::G711,
            Time::from_millis(50.0),
            Time::from_millis(0.5),
        );
        fs.add(
            voice,
            shortest_path(&t, net.hosts[1], net.hosts[3]).unwrap(),
            Priority(7),
        );

        let report =
            gmf_analysis::analyze(&t, &fs, &gmf_analysis::AnalysisConfig::conservative()).unwrap();
        assert!(report.schedulable);

        let sim_cfg = SimConfig {
            horizon: Time::from_secs(2.0),
            ..SimConfig::default()
        };
        let result = Simulator::new(&t, &fs, sim_cfg).unwrap().run().unwrap();
        assert!(result.stats.packets_completed > 50);

        for binding in fs.bindings() {
            let flow_report = report.flow(binding.id).unwrap();
            for (k, frame_bound) in flow_report.frames.iter().enumerate() {
                if let Some(observed) = result.stats.worst_frame_response(binding.id, k) {
                    assert!(
                        observed <= frame_bound.bound,
                        "flow {} frame {k}: simulated {} exceeds analytical bound {}",
                        binding.flow.name(),
                        observed,
                        frame_bound.bound
                    );
                }
            }
        }
    }
}
