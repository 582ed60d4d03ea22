// Full trace reconstruction: per-packet journeys across the NF DAG and
// per-NF queue timelines, built purely from collector records (plus the
// static DAG) — the offline front half of Microscope's diagnosis.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "collector/collector.hpp"
#include "common/flow.hpp"
#include "common/thread_pool.hpp"
#include "common/time.hpp"
#include "trace/align.hpp"
#include "trace/graph.hpp"

namespace microscope::trace {

inline constexpr std::uint32_t kNoJourney =
    std::numeric_limits<std::uint32_t>::max();

/// One NF hop of a packet's journey.
struct Hop {
  NodeId node{kInvalidNode};
  /// When the packet entered the node's input queue (upstream tx + prop).
  TimeNs arrival{0};
  /// When the NF read it from the queue (rx batch timestamp).
  TimeNs read{0};
  /// When the NF wrote it out (tx batch timestamp); kTimeNever if the
  /// packet died at this node.
  TimeNs depart{kTimeNever};
  /// Index of the packet's rx entry at this node (kNoEntry if it was
  /// dropped at the input queue and never read).
  std::uint32_t rx_idx{kNoEntry};
  std::uint32_t tx_idx{kNoEntry};

  /// Whether the packet left this node (false = it died here, so there is
  /// no hop latency to speak of).
  bool has_latency() const { return depart != kTimeNever; }

  /// Queueing + processing delay at this hop; nullopt for packets that
  /// died at this node (previously reported as 0, silently conflating
  /// "no latency" with "dropped").
  std::optional<DurationNs> latency() const {
    if (!has_latency()) return std::nullopt;
    return depart - arrival;
  }

  friend bool operator==(const Hop&, const Hop&) = default;
};

enum class Fate : std::uint8_t {
  kDelivered,
  kDroppedQueue,   // input queue overflow (inferred from a missed deadline)
  kDroppedPolicy,  // NF consumed it without emitting (e.g. firewall drop)
  kTruncated,      // reconstruction could not follow the packet further
};

struct Journey {
  /// Flow as emitted by the source (pre-NAT); the canonical identity used
  /// for aggregation.
  FiveTuple flow{};
  /// Flow as recorded at the graph edge (post-NAT); only for delivered
  /// packets.
  FiveTuple edge_flow{};
  std::uint16_t ipid{0};
  NodeId source{kInvalidNode};
  std::uint32_t source_idx{kNoEntry};  // tx entry index at the source
  TimeNs source_time{0};
  Fate fate{Fate::kDelivered};
  /// Node where the packet died (for the two drop fates).
  NodeId end_node{kInvalidNode};
  std::vector<Hop> hops;  // in path order (source not included)

  bool complete() const { return source != kInvalidNode; }
  /// End-to-end latency; only meaningful for delivered packets.
  DurationNs e2e_latency() const {
    return hops.empty() || hops.back().depart == kTimeNever
               ? 0
               : hops.back().depart - source_time;
  }

  friend bool operator==(const Journey&, const Journey&) = default;
};

/// One packet arriving at an NF's input queue (accepted or dropped).
struct Arrival {
  TimeNs t{0};
  NodeId from{kInvalidNode};
  std::uint32_t up_tx_idx{kNoEntry};
  /// rx entry index at this node; kNoEntry if dropped at the queue.
  std::uint32_t rx_idx{kNoEntry};
  std::uint32_t journey{kNoJourney};
  bool accepted() const { return rx_idx != kNoEntry; }

  friend bool operator==(const Arrival&, const Arrival&) = default;
};

/// Per-NF queue timeline reconstructed from records.
struct NodeTimeline {
  std::vector<Arrival> arrivals;  // sorted by t
  /// Read batches in time order: ts, count, and whether the batch was
  /// "short" (count < max_batch => the queue emptied; paper §5).
  struct Read {
    TimeNs ts;
    std::uint16_t count;
    bool short_batch;

    friend bool operator==(const Read&, const Read&) = default;
  };
  std::vector<Read> reads;
  /// Prefix sums of read counts (reads_cum[i] = packets read in batches
  /// [0, i]).
  std::vector<std::uint64_t> reads_cum;

  /// Number of accepted+dropped arrivals in (t0, t1].
  std::uint64_t arrivals_in(TimeNs t0, TimeNs t1) const;
  /// Number of packets read in batches with ts in (t0, t1].
  std::uint64_t reads_in(TimeNs t0, TimeNs t1) const;
  /// Index of first arrival with t > t0, arrivals.size() if none.
  std::size_t first_arrival_after(TimeNs t0) const;

  friend bool operator==(const NodeTimeline&, const NodeTimeline&) = default;
};

struct ReconstructOptions {
  AlignOptions align{};
  /// Link propagation delay assumed when converting upstream tx timestamps
  /// to arrival times (the topology's configured value).
  DurationNs prop_delay = 1_us;
  /// Batch size above which a read cannot prove the queue emptied.
  std::uint16_t max_batch = 32;
  /// Shard alignment, journey walks, and timeline construction across a
  /// work-stealing pool. Defaults to sequential; parallel output is
  /// byte-identical to sequential (see DESIGN.md "Parallel analysis").
  ParallelOptions parallel{};
};

/// A journey's terminal record: what seeded its backward walk, and so
/// where it sits in the offline journey order (delivered packets by edge
/// node and tx entry, then queue drops by upstream node and tx entry, then
/// policy drops by node and rx entry).
struct JourneySeed {
  enum class Kind : std::uint8_t { kDelivered, kQueueDrop, kPolicyDrop };
  Kind kind{Kind::kDelivered};
  NodeId node{kInvalidNode};
  std::uint32_t idx{kNoEntry};
  /// When the terminal record settles: the edge tx time (delivered), the
  /// arrival at the dropping queue (queue drop), or the read time (policy
  /// drop). Every hop arrival of the journey lies at or before it.
  TimeNs time{0};

  friend bool operator<(const JourneySeed& a, const JourneySeed& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.node != b.node) return a.node < b.node;
    return a.idx < b.idx;
  }
};

/// Journeys and per-NF queue timelines reconstructed from a record stream.
///
/// Offline, reconstruct() builds one from a complete trace. The streaming
/// engine instead keeps one alive and grows it (DESIGN.md §7):
/// extend(settle) aligns the records read before `settle`, appends their
/// timeline entries, and builds every journey whose records can no longer
/// change; speculate(until) aligns the unsettled tail up to `until` and
/// builds the journeys of the packets in flight at the last settle
/// frontier (the only unsettled journeys a diagnosis of the time before
/// that frontier reads), and rollback() undoes it. Journey ids are
/// assigned in build order, from `index_origin` on, and stay stable until
/// evicted; entry indices are the records' own absolute indices, and the
/// first records seen need not start at 0. All of them are 32-bit: a
/// long-running owner starts a fresh trace before index_end() nears
/// kNoEntry (DESIGN.md §7).
class ReconstructedTrace {
 public:
  ReconstructedTrace(GraphView graph, ReconstructOptions opts,
                     std::uint32_t index_origin = 0);
  ~ReconstructedTrace();
  ReconstructedTrace(ReconstructedTrace&&) noexcept;
  ReconstructedTrace& operator=(ReconstructedTrace&&) noexcept;

  const GraphView& graph() const { return *graph_; }
  const ReconstructOptions& options() const { return opts_; }

  /// Live journeys, ids [first_journey(), journey_end()).
  const std::vector<Journey>& journeys() const { return journeys_; }
  const Journey& journey(std::uint32_t id) const {
    return journeys_.at(id - journey_base_);
  }
  std::uint32_t first_journey() const { return journey_base_; }
  std::uint32_t journey_end() const {
    return journey_base_ + static_cast<std::uint32_t>(journeys_.size());
  }
  const JourneySeed& seed(std::uint32_t id) const {
    return seeds_.at(id - journey_base_);
  }

  const NodeTimeline& timeline(NodeId id) const { return timelines_.at(id); }
  bool has_timeline(NodeId id) const {
    return id < timelines_.size() && !timelines_[id].reads.empty();
  }

  const AlignStats& align_stats() const { return aligner_.stats(); }
  const std::vector<NodeAlignment>& alignments() const {
    return aligner_.alignments();
  }

  /// One past the highest journey id or internal timeline position in
  /// use (entry indices are the records' own).
  std::uint32_t index_end() const;

  /// Journey id of a node's rx entry (kNoJourney if unresolved).
  std::uint32_t journey_of_rx(NodeId node, std::uint32_t rx_idx) const;

  // --- growing the trace --------------------------------------------------
  /// Settle everything read before `settle`, reading records written up
  /// to `visible` (>= settle + align slack for exact alignment). Returns
  /// the ids of the journeys it built: [first, journey_end()).
  std::uint32_t extend(const NodeTraces& recs, TimeNs settle, TimeNs visible);
  /// Align the unsettled tail up to `until` and build the journeys of the
  /// packets in flight at the last extend()'s settle frontier,
  /// provisionally; returns the first provisional journey id. Undone by
  /// rollback(), and by the next extend(), speculate() or evict_before().
  std::uint32_t speculate(const NodeTraces& recs, TimeNs until);
  void rollback();
  /// Forget state recorded before `horizon` (the StreamStore rule). Memory
  /// is released in amortized steps, once the dead prefix outgrows the
  /// live part.
  void evict_before(TimeNs horizon);

  /// Wall time the last extend() or speculate() spent per phase.
  struct PhaseTimes {
    std::int64_t align_ns{0};
    std::int64_t timeline_ns{0};
    std::int64_t walk_ns{0};
  };
  const PhaseTimes& last_phase_times() const { return phase_; }

 private:
  friend ReconstructedTrace reconstruct(const collector::Collector& col,
                                        const GraphView& graph,
                                        const ReconstructOptions& opts);
  struct State;
  enum class Mode : std::uint8_t { kCommit, kSpeculate, kFinal };
  std::uint32_t grow(const NodeTraces& recs, TimeNs settle, TimeNs visible,
                     Mode mode);
  void extend_timelines(const NodeTraces& recs, TimeNs limit, Mode mode);
  /// The terminals this call settles (or, speculating, sees), in offline
  /// order.
  std::vector<JourneySeed> collect_seeds(const NodeTraces& recs, TimeNs settle,
                                         TimeNs visible, Mode mode,
                                         const std::vector<TxRef>& drops);
  /// The terminals of packets in flight at the last settle frontier, in
  /// offline order (speculation).
  std::vector<JourneySeed> in_flight_seeds(const NodeTraces& recs,
                                           const std::vector<TxRef>& drops);
  /// Walk the journeys of `seeds` (in offline order), appending them.
  void build_journeys(const NodeTraces& recs,
                      const std::vector<JourneySeed>& seeds);
  void unmark(std::uint32_t jid);
  /// Set the journey of tx entry (node, idx) and of its arrival at `peer`
  /// (kNoJourney clears).
  void mark_tx(NodeId node, std::uint32_t idx, NodeId peer, std::uint32_t jid);
  void compact(TimeNs horizon);

  std::shared_ptr<const GraphView> graph_;  // shared with aligner_
  ReconstructOptions opts_;
  Aligner aligner_;
  std::vector<Journey> journeys_;
  std::vector<JourneySeed> seeds_;
  std::uint32_t journey_base_{0};
  std::vector<NodeTimeline> timelines_;  // by node id
  std::unique_ptr<State> st_;
  PhaseTimes phase_;
};

/// Run alignment and assemble journeys + timelines over a complete trace:
/// one extend() over everything, then finish().
ReconstructedTrace reconstruct(const collector::Collector& col,
                               const GraphView& graph,
                               const ReconstructOptions& opts = {});

}  // namespace microscope::trace
