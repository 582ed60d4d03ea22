// Bounded in-memory record store for the streaming diagnosis engine.
//
// Holds every node's record stream between the eviction horizon (oldest
// data any still-open window may need) and the newest data drained so far,
// in the collector's own columnar layout (collector::NodeTrace: batch
// records, IPIDs, five-tuples at full-flow nodes). Per-node record order is
// preserved exactly as ingested — the order the offline collector would
// hold them in — so the streaming engine reconstructs straight from the
// store's columns, with no per-window copy.
//
// Eviction drops a prefix of each node's rx and tx columns. Entry and
// batch indices are absolute and do not change on eviction
// (NodeTrace::rx_base and friends count what was dropped); the memory is
// released in amortized steps, once a column's dead prefix outgrows its
// live part. The indices are 32-bit, so a long-running owner renumbers
// the retained records (renumber()) before they run out.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "collector/records.hpp"
#include "common/packet.hpp"
#include "common/time.hpp"
#include "trace/align.hpp"

namespace microscope::online {

class StreamStore {
 public:
  /// Declare a node (idempotent). `full_flow` mirrors the collector flag:
  /// five-tuples are kept exactly where the offline collector keeps them.
  void register_node(NodeId id, bool full_flow);

  bool has_node(NodeId id) const {
    return id < nodes_.size() && nodes_[id].registered;
  }
  bool full_flow(NodeId id) const {
    return has_node(id) && nodes_[id].t.full_flow;
  }
  std::size_t node_count() const { return nodes_.size(); }

  /// Append a batch to `node`'s rx or tx column (must be registered).
  /// Throws std::overflow_error rather than let a 32-bit index wrap.
  void add(NodeId node, collector::Direction dir, NodeId peer, TimeNs ts,
           std::span<const Packet> pkts);

  /// Drop every batch recorded before `horizon`, from the front of each
  /// node's rx and tx column. Columns are expected to be (approximately)
  /// time-ordered, so this is O(evicted); a regressed batch is released
  /// once its positional predecessors pass the horizon too.
  void evict_before(TimeNs horizon);

  /// The columns of every registered node by id (nullptr elsewhere), over
  /// the first `node_count` ids — what reconstruction reads.
  trace::NodeTraces traces(std::size_t node_count) const;

  /// One past the highest entry or batch index any column uses, O(nodes).
  std::uint32_t index_end() const;
  /// Release every evicted prefix and renumber each column so that its
  /// first retained entry and batch have index `origin` (as do the columns
  /// of nodes registered later). Invalidates every index handed out before.
  void renumber(std::uint32_t origin);

  /// True when no retained batch has ts in [t_lo, t_hi].
  bool empty_in(TimeNs t_lo, TimeNs t_hi) const;

  std::size_t retained_batches() const { return retained_batches_; }
  std::size_t retained_bytes() const { return retained_bytes_; }
  /// Timestamp span covered by retained batches (0 when empty) — the
  /// quantity the bounded-memory guarantee is stated over. O(nodes) from
  /// each column's front and back; a column whose timestamps regressed is
  /// scanned.
  DurationNs retained_span() const;

 private:
  /// One direction of a node: the first live batch (absolute index) and
  /// whether its timestamps are nondecreasing.
  struct Column {
    std::uint32_t front{0};
    bool sorted{true};
  };
  struct Node {
    collector::NodeTrace t;
    Column rx;
    Column tx;
    bool registered{false};
  };

  std::size_t batch_bytes(const Node& n, collector::Direction dir,
                          std::size_t count) const;
  bool column_empty_in(const std::vector<collector::BatchRecord>& batches,
                       std::uint32_t batch_base, const Column& c,
                       TimeNs t_lo, TimeNs t_hi) const;
  void evict_column(Node& n, collector::Direction dir, TimeNs horizon);
  /// Erase the column's evicted prefix now.
  void compact_column(Node& n, collector::Direction dir);

  std::vector<Node> nodes_;  // by node id
  std::uint32_t origin_{0};  // first index of a new column
  std::size_t retained_batches_{0};
  std::size_t retained_bytes_{0};
};

}  // namespace microscope::online
