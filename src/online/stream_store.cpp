#include "online/stream_store.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace microscope::online {

using collector::BatchRecord;
using collector::Direction;

namespace {

template <typename T>
void erase_front(std::vector<T>& v, std::size_t count) {
  v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(count));
}

}  // namespace

void StreamStore::register_node(NodeId id, bool full_flow) {
  if (id >= nodes_.size()) nodes_.resize(id + 1);
  Node& n = nodes_[id];
  if (!n.registered) {
    collector::NodeTrace& t = n.t;
    t.rx_base = t.tx_base = t.rx_batch_base = t.tx_batch_base = origin_;
    n.rx.front = n.tx.front = origin_;
  }
  n.registered = true;
  n.t.full_flow = full_flow;
}

std::size_t StreamStore::batch_bytes(const Node& n, Direction dir,
                                     std::size_t count) const {
  std::size_t per_pkt = sizeof(std::uint16_t);
  if (dir == Direction::kTx && n.t.full_flow) per_pkt += sizeof(FiveTuple);
  return sizeof(BatchRecord) + count * per_pkt;
}

void StreamStore::add(NodeId node, Direction dir, NodeId peer, TimeNs ts,
                      std::span<const Packet> pkts) {
  if (!has_node(node))
    throw std::invalid_argument("StreamStore::add: unregistered node");
  Node& n = nodes_[node];
  collector::NodeTrace& t = n.t;
  // Entry and batch indices must stay below trace::kNoEntry, the sentinel.
  const std::uint64_t used =
      dir == Direction::kRx
          ? std::max<std::uint64_t>(t.rx_base + std::uint64_t{t.rx_ipids.size()},
                                    t.rx_batch_end())
          : std::max<std::uint64_t>(t.tx_base + std::uint64_t{t.tx_ipids.size()},
                                    t.tx_batch_end());
  if (used + pkts.size() + 1 >= trace::kNoEntry)
    throw std::overflow_error("StreamStore::add: 32-bit record index exhausted");
  BatchRecord rec;
  rec.ts = ts;
  rec.count = static_cast<std::uint16_t>(pkts.size());
  if (dir == Direction::kRx) {
    rec.begin = t.rx_base + static_cast<std::uint32_t>(t.rx_ipids.size());
    if (!t.rx_batches.empty() && ts < t.rx_batches.back().ts)
      n.rx.sorted = false;
    t.rx_batches.push_back(rec);
    for (const Packet& p : pkts) t.rx_ipids.push_back(p.ipid);
  } else {
    rec.begin = t.tx_base + static_cast<std::uint32_t>(t.tx_ipids.size());
    rec.peer = peer;
    if (!t.tx_batches.empty() && ts < t.tx_batches.back().ts)
      n.tx.sorted = false;
    t.tx_batches.push_back(rec);
    for (const Packet& p : pkts) {
      t.tx_ipids.push_back(p.ipid);
      if (t.full_flow) t.tx_flows.push_back(p.flow);
    }
  }
  retained_batches_ += 1;
  retained_bytes_ += batch_bytes(n, dir, pkts.size());
}

void StreamStore::evict_column(Node& n, Direction dir, TimeNs horizon) {
  collector::NodeTrace& t = n.t;
  const bool rx = dir == Direction::kRx;
  Column& c = rx ? n.rx : n.tx;
  std::vector<BatchRecord>& batches = rx ? t.rx_batches : t.tx_batches;
  std::uint32_t& batch_base = rx ? t.rx_batch_base : t.tx_batch_base;
  const std::uint32_t end =
      batch_base + static_cast<std::uint32_t>(batches.size());
  while (c.front < end && batches[c.front - batch_base].ts < horizon) {
    retained_batches_ -= 1;
    retained_bytes_ -= batch_bytes(n, dir, batches[c.front - batch_base].count);
    ++c.front;
  }
  // Release memory once the dead prefix outgrows the live part.
  const std::uint32_t dead = c.front - batch_base;
  if (dead == 0 || dead <= end - c.front) return;
  compact_column(n, dir);
}

void StreamStore::compact_column(Node& n, Direction dir) {
  collector::NodeTrace& t = n.t;
  const bool rx = dir == Direction::kRx;
  const Column& c = rx ? n.rx : n.tx;
  std::vector<BatchRecord>& batches = rx ? t.rx_batches : t.tx_batches;
  std::uint32_t& batch_base = rx ? t.rx_batch_base : t.tx_batch_base;
  const std::uint32_t end =
      batch_base + static_cast<std::uint32_t>(batches.size());
  const std::uint32_t dead = c.front - batch_base;
  std::uint32_t& base = rx ? t.rx_base : t.tx_base;
  const std::uint32_t entry_cut =
      c.front < end ? batches[dead].begin
                    : base + static_cast<std::uint32_t>(
                                 rx ? t.rx_ipids.size() : t.tx_ipids.size());
  erase_front(batches, dead);
  batch_base = c.front;
  if (rx) {
    erase_front(t.rx_ipids, entry_cut - base);
  } else {
    erase_front(t.tx_ipids, entry_cut - base);
    if (t.full_flow) erase_front(t.tx_flows, entry_cut - base);
  }
  base = entry_cut;
}

void StreamStore::evict_before(TimeNs horizon) {
  for (Node& n : nodes_) {
    evict_column(n, Direction::kRx, horizon);
    evict_column(n, Direction::kTx, horizon);
  }
}

std::uint32_t StreamStore::index_end() const {
  std::uint32_t end = 0;
  for (const Node& n : nodes_) {
    const collector::NodeTrace& t = n.t;
    end = std::max({end, t.rx_batch_end(), t.tx_batch_end(),
                    t.rx_base + static_cast<std::uint32_t>(t.rx_ipids.size()),
                    t.tx_base + static_cast<std::uint32_t>(t.tx_ipids.size())});
  }
  return end;
}

void StreamStore::renumber(std::uint32_t origin) {
  origin_ = origin;
  for (Node& n : nodes_) {
    for (const Direction dir : {Direction::kRx, Direction::kTx}) {
      compact_column(n, dir);
      collector::NodeTrace& t = n.t;
      const bool rx = dir == Direction::kRx;
      std::uint32_t& base = rx ? t.rx_base : t.tx_base;
      for (BatchRecord& b : rx ? t.rx_batches : t.tx_batches)
        b.begin = b.begin - base + origin;
      base = origin;
      (rx ? t.rx_batch_base : t.tx_batch_base) = origin;
      (rx ? n.rx : n.tx).front = origin;
    }
  }
}

trace::NodeTraces StreamStore::traces(std::size_t node_count) const {
  trace::NodeTraces out(node_count, nullptr);
  for (NodeId id = 0; id < node_count && id < nodes_.size(); ++id)
    if (nodes_[id].registered) out[id] = &nodes_[id].t;
  return out;
}

bool StreamStore::column_empty_in(const std::vector<BatchRecord>& batches,
                                  std::uint32_t batch_base, const Column& c,
                                  TimeNs t_lo, TimeNs t_hi) const {
  const auto first = batches.begin() + (c.front - batch_base);
  if (c.sorted) {
    const auto it = std::lower_bound(
        first, batches.end(), t_lo,
        [](const BatchRecord& b, TimeNs t) { return b.ts < t; });
    return it == batches.end() || it->ts > t_hi;
  }
  return std::none_of(first, batches.end(), [&](const BatchRecord& b) {
    return b.ts >= t_lo && b.ts <= t_hi;
  });
}

bool StreamStore::empty_in(TimeNs t_lo, TimeNs t_hi) const {
  for (const Node& n : nodes_) {
    if (!column_empty_in(n.t.rx_batches, n.t.rx_batch_base, n.rx, t_lo, t_hi))
      return false;
    if (!column_empty_in(n.t.tx_batches, n.t.tx_batch_base, n.tx, t_lo, t_hi))
      return false;
  }
  return true;
}

DurationNs StreamStore::retained_span() const {
  TimeNs lo = kTimeNever;
  TimeNs hi = std::numeric_limits<TimeNs>::min();
  const auto see = [&](const std::vector<BatchRecord>& batches,
                       std::uint32_t batch_base, const Column& c) {
    const auto first = batches.begin() + (c.front - batch_base);
    if (first == batches.end()) return;
    if (c.sorted) {
      lo = std::min(lo, first->ts);
      hi = std::max(hi, batches.back().ts);
      return;
    }
    // A regressed timestamp can sit anywhere in an unsorted column.
    const auto [mn, mx] = std::minmax_element(
        first, batches.end(), [](const BatchRecord& a, const BatchRecord& b) {
          return a.ts < b.ts;
        });
    lo = std::min(lo, mn->ts);
    hi = std::max(hi, mx->ts);
  };
  for (const Node& n : nodes_) {
    see(n.t.rx_batches, n.t.rx_batch_base, n.rx);
    see(n.t.tx_batches, n.t.tx_batch_base, n.tx);
  }
  return lo == kTimeNever ? 0 : hi - lo;
}

}  // namespace microscope::online
