// Record types produced by the runtime collector (paper §5, Table 1).
//
// The paper instruments DPDK's rx/tx functions and records, per batch, a
// timestamp plus the batch size, and per packet a compressed entry: the
// 16-bit IPID everywhere, and the full five-tuple only at the edge of the NF
// graph (and, in our setup, at traffic sources — the operator knows the
// traffic they send). This keeps the per-packet cost around two bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flow.hpp"
#include "common/packet.hpp"
#include "common/time.hpp"

namespace microscope::collector {

enum class Direction : std::uint8_t { kRx, kTx };

/// One instrumented DPDK rx/tx call: a batch of `count` packets whose
/// per-packet entries have the absolute indices [begin, begin+count) in the
/// owning trace (see NodeTrace::rx_base / tx_base).
struct BatchRecord {
  TimeNs ts{0};
  std::uint32_t begin{0};
  std::uint16_t count{0};
  /// For tx batches: the downstream node the batch was written to.
  /// Rx batches do not know their upstream (that is what reconstruction
  /// recovers), so peer is kInvalidNode there.
  NodeId peer{kInvalidNode};
};

/// Everything recorded at one node (NF instance or traffic source).
struct NodeTrace {
  // --- rx side (absent for sources) ---
  std::vector<BatchRecord> rx_batches;
  std::vector<std::uint16_t> rx_ipids;

  // --- tx side ---
  std::vector<BatchRecord> tx_batches;
  std::vector<std::uint16_t> tx_ipids;
  /// Parallel to tx_ipids; populated only when `full_flow` is set for the
  /// node (graph edges and sources).
  std::vector<FiveTuple> tx_flows;

  bool full_flow{false};

  // --- front eviction (streaming stores only; always 0 in a Collector) ---
  // Entries and batches carry absolute indices that never change; a store
  // that drops a prefix of its columns records how many it dropped, so
  // absolute index k lives at column position k - base.
  std::uint32_t rx_base{0};        // absolute index of rx_ipids[0]
  std::uint32_t tx_base{0};        // absolute index of tx_ipids[0]
  std::uint32_t rx_batch_base{0};  // absolute index of rx_batches[0]
  std::uint32_t tx_batch_base{0};  // absolute index of tx_batches[0]

  // --- ground-truth sidecar: never read by diagnosis ---
  // Used by tests (reconstruction verification) and by the evaluation
  // oracle (mapping victims to injected faults).
  std::vector<std::uint64_t> rx_uids;
  std::vector<std::uint64_t> tx_uids;
  std::vector<std::uint32_t> tx_tags;

  std::size_t rx_packet_count() const { return rx_ipids.size(); }
  std::size_t tx_packet_count() const { return tx_ipids.size(); }

  // Absolute-index accessors (identical to plain indexing when the bases
  // are 0).
  std::uint32_t rx_batch_end() const {
    return rx_batch_base + static_cast<std::uint32_t>(rx_batches.size());
  }
  std::uint32_t tx_batch_end() const {
    return tx_batch_base + static_cast<std::uint32_t>(tx_batches.size());
  }
  const BatchRecord& rx_batch(std::uint32_t b) const {
    return rx_batches[b - rx_batch_base];
  }
  const BatchRecord& tx_batch(std::uint32_t b) const {
    return tx_batches[b - tx_batch_base];
  }
  std::uint16_t rx_ipid(std::uint32_t k) const { return rx_ipids[k - rx_base]; }
  std::uint16_t tx_ipid(std::uint32_t k) const { return tx_ipids[k - tx_base]; }
  /// Five-tuple of tx entry k, or nullptr where none was recorded.
  const FiveTuple* tx_flow(std::uint32_t k) const {
    return k >= tx_base && k - tx_base < tx_flows.size()
               ? &tx_flows[k - tx_base]
               : nullptr;
  }
};

}  // namespace microscope::collector
