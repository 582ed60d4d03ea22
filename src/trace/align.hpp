// Record alignment: maps per-NF collector records of the same packet across
// nodes despite 16-bit IPID collisions (paper §5).
//
// Two alignment problems are solved per node:
//
//  * Link alignment — which upstream tx entry does each rx entry of this
//    node correspond to? Uses the paper's three side channels:
//      (1) paths: only declared upstream neighbours are candidates,
//      (2) timing: a candidate's tx timestamp must lie within the delay
//          bound of the rx read timestamp,
//      (3) order: per-link FIFO is preserved, so only each upstream
//          stream's head-of-line entry is ever a candidate (Fig. 9).
//    Upstream entries whose delivery deadline passes unmatched are flagged
//    as dropped at this node's input queue.
//
//  * Internal alignment — which tx entry did each rx entry of this node
//    become after processing? NFs are FIFO run-to-completion, so the rx
//    sequence maps order-preservingly onto the per-destination tx streams;
//    rx entries that match no stream were dropped by NF policy.
//
// Both passes walk each node's rx entries in record order against cursors
// over the upstream/outgoing FIFO streams, so they are naturally streaming:
// an Aligner keeps the cursors between calls and each extend() aligns only
// the rx entries that became settled since the last one. Offline alignment
// (align_all) is one extend over the whole trace plus finish().
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "collector/collector.hpp"
#include "common/thread_pool.hpp"
#include "common/time.hpp"
#include "trace/graph.hpp"

namespace microscope::trace {

inline constexpr std::uint32_t kNoEntry =
    std::numeric_limits<std::uint32_t>::max();

/// Reference to a tx-side packet entry at a node.
struct TxRef {
  NodeId node{kInvalidNode};
  std::uint32_t idx{kNoEntry};
  bool valid() const { return node != kInvalidNode && idx != kNoEntry; }

  friend bool operator==(const TxRef&, const TxRef&) = default;
};

struct AlignOptions {
  /// Upper bound on (read time − upstream tx time): propagation plus the
  /// worst-case queue wait. Entries older than this are declared dropped.
  DurationNs max_link_delay = 200_ms;
  /// Upper bound on (tx time − rx read time) inside one NF: the worst-case
  /// batch service time.
  DurationNs max_nf_delay = 50_ms;
  /// Slack allowed for timestamp noise when comparing clocks.
  DurationNs slack = 2_us;

  // --- ablation knobs (paper §5 lists three side channels; these switch
  // the second and third off to measure their contribution) ---
  /// Apply the timing bounds above when selecting candidates.
  bool use_timing = true;
  /// Enforce per-link FIFO order (head-of-line matching). When off, any
  /// unconsumed entry with the right IPID is a candidate (earliest tx wins).
  /// An offline ablation: it matches within one extend() call only.
  bool use_order = true;
};

/// Per-node alignment output. Every lane is indexed by absolute entry
/// index minus its base (rx_base for the rx lanes, tx_base for the tx
/// lanes); the bases are 0 unless a streaming caller evicted a prefix.
struct NodeAlignment {
  std::uint32_t rx_base{0};
  std::uint32_t tx_base{0};
  // Link alignment (rx side).
  std::vector<TxRef> rx_origin;            // per rx entry
  // Internal alignment.
  std::vector<std::uint32_t> rx_to_tx;     // per rx entry; kNoEntry = policy drop
  std::vector<std::uint32_t> tx_to_rx;     // per tx entry; kNoEntry for sources
  // Downstream fate of tx entries (filled while aligning the downstream
  // node): true = dropped at the downstream input queue.
  std::vector<std::uint8_t> tx_dropped_downstream;
  // Downstream rx entry that read each tx entry (kNoEntry: not read) — the
  // inverse of the downstream node's rx_origin.
  std::vector<std::uint32_t> tx_read_by;
  // Entry -> batch index maps (absolute batch indices, for batch metadata
  // lookup).
  std::vector<std::uint32_t> rx_batch_of;
  std::vector<std::uint32_t> tx_batch_of;
  // Entry -> batch timestamp, expanded to structure-of-arrays lanes so the
  // hot loops (alignment candidate checks, journey walk-back) read one
  // contiguous value instead of chasing entry -> batch -> record.
  std::vector<TimeNs> rx_entry_ts;
  std::vector<TimeNs> tx_entry_ts;

  std::uint32_t rx_end() const {
    return rx_base + static_cast<std::uint32_t>(rx_entry_ts.size());
  }
  std::uint32_t tx_end() const {
    return tx_base + static_cast<std::uint32_t>(tx_entry_ts.size());
  }
  bool has_rx(std::uint32_t j) const { return j >= rx_base && j < rx_end(); }
  bool has_tx(std::uint32_t k) const { return k >= tx_base && k < tx_end(); }
  TxRef origin(std::uint32_t j) const { return rx_origin[j - rx_base]; }
  std::uint32_t tx_of_rx(std::uint32_t j) const { return rx_to_tx[j - rx_base]; }
  std::uint32_t rx_of_tx(std::uint32_t k) const { return tx_to_rx[k - tx_base]; }
  TimeNs rx_ts(std::uint32_t j) const { return rx_entry_ts[j - rx_base]; }
  TimeNs tx_ts(std::uint32_t k) const { return tx_entry_ts[k - tx_base]; }

  friend bool operator==(const NodeAlignment&, const NodeAlignment&) = default;
};

struct AlignStats {
  std::uint64_t link_matched{0};
  std::uint64_t link_ambiguous{0};  // resolved by order/time tie-break
  std::uint64_t link_unmatched{0};
  std::uint64_t queue_drops_inferred{0};
  std::uint64_t internal_matched{0};
  std::uint64_t internal_ambiguous{0};
  /// Tx entries skipped during internal alignment because no remaining rx
  /// read could claim them (their rx record fell outside the trace).
  std::uint64_t internal_expired{0};
  std::uint64_t policy_drops_inferred{0};

  AlignStats& operator+=(const AlignStats& o) {
    link_matched += o.link_matched;
    link_ambiguous += o.link_ambiguous;
    link_unmatched += o.link_unmatched;
    queue_drops_inferred += o.queue_drops_inferred;
    internal_matched += o.internal_matched;
    internal_ambiguous += o.internal_ambiguous;
    internal_expired += o.internal_expired;
    policy_drops_inferred += o.policy_drops_inferred;
    return *this;
  }
  friend bool operator==(const AlignStats&, const AlignStats&) = default;
};

/// The records alignment reads: each node's columnar trace by node id
/// (nullptr where the node has none).
using NodeTraces = std::vector<const collector::NodeTrace*>;

/// NodeTraces of a collector over the first `node_count` ids.
NodeTraces node_traces(const collector::Collector& col, std::size_t node_count);

/// Resumable alignment of a growing record stream.
///
/// extend(recs, settle, visible) expands every record written at or before
/// `visible` into the SoA lanes and aligns the rx entries read before
/// `settle` that no earlier call aligned. The link pass matches an rx entry
/// against tx entries written up to read time + opts.slack, so a caller
/// that passes visible >= settle + opts.slack, with every record up to
/// `visible` present, gets exactly the result one pass over the complete
/// trace would give for those entries.
///
/// speculate(recs, until) aligns further, up to `until`, and rollback()
/// undoes everything speculate did: the streaming engine diagnoses a
/// window against the speculative tail and re-aligns it for real once the
/// next window settles it.
///
/// Each pass is sharded per node across `pool` when given; per-node
/// alignments are independent (the only cross-node writes, upstream
/// tx_dropped_downstream / tx_read_by entries, land on elements owned by
/// exactly one downstream node), and stats are accumulated per node and
/// merged in node-id order — the output is identical to a sequential run.
class Aligner {
 public:
  Aligner(std::shared_ptr<const GraphView> graph, AlignOptions opts);
  ~Aligner();
  Aligner(Aligner&&) noexcept;
  Aligner& operator=(Aligner&&) noexcept;

  void extend(const NodeTraces& recs, TimeNs settle, TimeNs visible,
              ThreadPool* pool = nullptr, const ParallelOptions& par = {});
  void speculate(const NodeTraces& recs, TimeNs until,
                 ThreadPool* pool = nullptr, const ParallelOptions& par = {});
  void rollback();

  /// End of stream: flag every unread upstream entry whose delivery
  /// deadline passed before the reader's last read as a queue drop.
  void finish(const NodeTraces& recs);

  /// Forget entries before the first one recorded at or after `horizon`
  /// (per node, in record order — the rule StreamStore::evict_before
  /// applies). Cursors move past forgotten entries; unread ones are not
  /// flagged. Lanes are compacted once their dead prefix outgrows the live
  /// part.
  void evict_before(TimeNs horizon);

  const std::vector<NodeAlignment>& alignments() const { return out_; }
  /// Stats of the committed (non-speculative) work so far.
  const AlignStats& stats() const { return stats_; }

  /// Absolute rx entries [rx_begin(d), rx_done(d)) aligned by the last
  /// extend() or speculate() call.
  std::uint32_t rx_begin(NodeId d) const;
  std::uint32_t rx_done(NodeId d) const;
  /// Upstream entries flagged as dropped by the last extend(), speculate()
  /// or finish() call, in no particular order.
  std::vector<TxRef> new_drops() const;

 private:
  struct State;
  void run(const NodeTraces& recs, TimeNs settle, TimeNs visible, bool spec,
           ThreadPool* pool, const ParallelOptions& par);

  std::shared_ptr<const GraphView> graph_;
  AlignOptions opts_;
  std::vector<NodeAlignment> out_;
  std::unique_ptr<State> st_;
  AlignStats stats_;
};

/// Align every node of the graph over the complete trace: one extend()
/// plus finish(). Returns one NodeAlignment per node id (sources get
/// tx-side maps only).
std::vector<NodeAlignment> align_all(const collector::Collector& col,
                                     const GraphView& graph,
                                     const AlignOptions& opts,
                                     AlignStats* stats,
                                     ThreadPool* pool = nullptr,
                                     const ParallelOptions& par = {});

}  // namespace microscope::trace
