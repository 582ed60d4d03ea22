// PreSet accumulators for shared-period diagnosis (paper §4.2, DESIGN.md §6).
//
// Propagation analysis of a victim p at NF f reads PreSet(p): the packets
// that arrived at f during p's queuing period, grouped by the path they
// took to f. Every victim whose period starts at the same arrival sees a
// prefix of the same arrival sequence, so one accumulator per
// (node, first arrival) is grown monotonically to each query's last
// arrival and shared by all of them. A victim leaves its own journey out by
// subtraction: counts drop by one, and every min/max keeps its runner-up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <memory_resource>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flow.hpp"
#include "core/period.hpp"
#include "core/relation.hpp"
#include "trace/reconstruct.hpp"

namespace microscope::core {

/// Min and max of a time over a set of journeys, each with its runner-up
/// and the journey holding the extreme, so that one journey can be left
/// out in O(1).
struct TimeExtremes {
  TimeNs lo{kTimeNever};
  TimeNs lo2{kTimeNever};
  TimeNs hi{0};
  TimeNs hi2{0};
  std::uint32_t lo_journey{trace::kNoJourney};
  std::uint32_t hi_journey{trace::kNoJourney};

  void add(TimeNs t, std::uint32_t journey) {
    if (t < lo) {
      lo2 = lo;
      lo = t;
      lo_journey = journey;
    } else if (t < lo2) {
      lo2 = t;
    }
    if (t > hi) {
      hi2 = hi;
      hi = t;
      hi_journey = journey;
    } else if (t > hi2) {
      hi2 = t;
    }
  }
  /// Extremes over every member but `journey` (kNoJourney: all members).
  TimeNs min_without(std::uint32_t journey) const {
    return journey == lo_journey ? lo2 : lo;
  }
  TimeNs max_without(std::uint32_t journey) const {
    return journey == hi_journey ? hi2 : hi;
  }
};

/// Per-flow packet counts kept in (count descending, five-tuple ascending)
/// order under one-packet increments. The caller keeps each flow's entry.
class FlowCounts {
 public:
  struct Entry {
    std::uint32_t count{0};
    FiveTuple flow{};
  };
  struct Before {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.count != b.count) return a.count > b.count;
      return a.flow < b.flow;
    }
  };
  using Order = std::pmr::set<Entry, Before>;

  explicit FlowCounts(std::pmr::memory_resource* mr) : order_(mr) {}

  /// Count one more packet of `flow`, whose entry is `at` (end() for a
  /// flow not counted yet); returns the flow's entry.
  Order::const_iterator add(const FiveTuple& flow, Order::const_iterator at);
  const Order& order() const { return order_; }

 private:
  Order order_;
};

/// The PreSet packets that reached the node along one upstream path.
struct PathGroup {
  explicit PathGroup(std::pmr::memory_resource* mr)
      : path(mr), hops(mr), flows(mr) {}

  /// Source first, then the NFs before the node.
  std::pmr::vector<NodeId> path;
  std::uint32_t count{0};
  /// Per path position k: hop 0 holds the source emit times; hop k >= 1
  /// the departures from and arrivals at path[k] (hop 0's arrival unused).
  struct Hop {
    TimeExtremes depart;
    TimeExtremes arrival;
  };
  std::pmr::vector<Hop> hops;
  FlowCounts flows;
  /// Hash of `path`, screening lookups.
  std::uint64_t hash{0};
};

/// How a query's victim journey was folded into a PreSet.
struct PreSetExclusion {
  /// The journey to leave out; kNoJourney when it was not folded in.
  std::uint32_t journey{trace::kNoJourney};
  /// Its path group, or -1 when it was counted as skipped (no path).
  std::int32_t group{-1};
  FiveTuple flow{};

  bool counted_in(std::uint32_t g) const {
    return group >= 0 && static_cast<std::uint32_t>(group) == g;
  }
  bool skipped() const { return journey != trace::kNoJourney && group < 0; }
};

/// Arrivals [first, last) of one node's queuing period, folded once.
class PreSet {
 public:
  /// Storage beyond the inline buffer comes from `upstream`.
  PreSet(
      const trace::ReconstructedTrace& rt, NodeId node, std::size_t first,
      std::pmr::memory_resource* upstream = std::pmr::get_default_resource());
  PreSet(const PreSet&) = delete;
  PreSet& operator=(const PreSet&) = delete;

  /// Fold arrivals [last(), last); `last` must not be below last().
  void extend_to(std::size_t last);

  NodeId node() const { return node_; }
  std::size_t first() const { return first_; }
  std::size_t last() const { return last_; }

  const std::pmr::vector<PathGroup>& groups() const { return groups_; }
  /// Group indices in lexicographic path order.
  const std::pmr::vector<std::uint32_t>& lex_order() const { return lex_; }
  /// Packets in path groups.
  std::size_t grouped() const { return grouped_; }
  /// Arrivals without a journey, or whose journey has no path to the node.
  std::size_t skipped() const { return skipped_; }
  /// Flow counts over every arrival with a journey (no exclusion).
  const FlowCounts& all_flows() const { return all_; }
  std::size_t all_count() const { return all_count_; }
  /// No flow is counted in more than one path group.
  bool flows_disjoint() const { return away_.empty(); }

  /// How `journey` was folded in, for the query that leaves it out.
  PreSetExclusion exclusion(std::uint32_t journey) const;

 private:
  void fold(const trace::Arrival& a);
  std::int32_t group_of(const trace::Journey& j);

  const trace::ReconstructedTrace* rt_;
  NodeId node_;
  std::size_t first_;
  std::size_t last_;

  /// Storage of every container below: bump-allocated and released with
  /// the accumulator, so a small period needs no heap allocation.
  alignas(std::max_align_t) std::byte inline_[4096];
  std::pmr::monotonic_buffer_resource pool_;

  std::pmr::vector<PathGroup> groups_{&pool_};
  std::pmr::vector<std::uint32_t> lex_{&pool_};
  std::size_t grouped_{0};
  std::size_t skipped_{0};
  FlowCounts all_{&pool_};
  std::size_t all_count_{0};
  /// Where each flow is counted: its all_ entry, and its entry in the
  /// first path group it was counted in (its home).
  struct FlowSlot {
    FlowCounts::Order::const_iterator all;
    std::int32_t home{-1};
    FlowCounts::Order::const_iterator in_home;
  };
  std::pmr::unordered_map<FiveTuple, FlowSlot, FiveTupleHash> flows_{&pool_};
  /// Entries of flows also counted in groups other than their home.
  std::pmr::map<std::pair<std::int32_t, FiveTuple>,
                FlowCounts::Order::const_iterator>
      away_{&pool_};
  /// Journey and path group (-1: none) of every folded arrival with a
  /// journey, in arrival order.
  std::pmr::vector<std::uint32_t> member_journeys_{&pool_};
  std::pmr::vector<std::int32_t> member_groups_{&pool_};
};

/// Culprit flows of the packets in `groups` (PreSet group indices; a group
/// listed twice counts twice) less the excluded journey: weight
/// (score × count) / total, ordered weight descending then five-tuple
/// ascending, at most `max_flows` kept.
std::vector<FlowWeight> group_flows(const PreSet& ps,
                                    const std::vector<std::uint32_t>& groups,
                                    const PreSetExclusion& ex, double score,
                                    std::size_t total, std::size_t max_flows);

/// Culprit flows of every arrival of the period, in the same order.
std::vector<FlowWeight> period_flows(const PreSet& ps, double score,
                                     std::size_t max_flows);

/// PreSet accumulators of one diagnosis worker, keyed by (node, first
/// arrival). Not thread-safe: each worker owns one.
class PreSetCache {
 public:
  /// Accumulators allocate from `mr`; over a long run of queries a
  /// pooling resource keeps their churn off the general heap.
  explicit PreSetCache(
      const trace::ReconstructedTrace& rt,
      std::pmr::memory_resource* mr = std::pmr::get_default_resource())
      : rt_(&rt), mr_(mr) {}

  /// The accumulator of `period` at `node`, grown to its last arrival. A
  /// query below what the accumulator holds, or one that would change an
  /// accumulator still held up the recursion stack, rebuilds it from the
  /// period start.
  std::shared_ptr<const PreSet> get(NodeId node, const QueuingPeriod& period);

  /// Drop the accumulators no query has used since `tick()` returned
  /// `mark` (diagnose_all calls it between periods).
  void drop_unused_since(std::uint64_t mark);
  std::uint64_t tick() const { return tick_; }

  /// Arrivals folded into accumulators so far.
  std::uint64_t arrivals_folded() const { return folded_; }
  /// Accumulators rebuilt from their period start.
  std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  struct Slot {
    std::shared_ptr<PreSet> ps;
    std::uint64_t used{0};
  };

  std::shared_ptr<PreSet> build(NodeId node, const QueuingPeriod& period);
  /// Drop least-recently-used accumulators nobody holds once the cache
  /// holds more than kMaxSlots accumulators or kMaxArrivals arrivals.
  void trim();

  static constexpr std::size_t kMaxSlots = 32;
  static constexpr std::size_t kMaxArrivals = std::size_t{1} << 14;

  const trace::ReconstructedTrace* rt_;
  std::pmr::memory_resource* mr_;
  /// Few enough (trim() bounds them) that a linear search beats a map.
  std::vector<Slot> slots_;
  std::size_t held_{0};
  std::uint64_t tick_{0};
  std::uint64_t folded_{0};
  std::uint64_t rebuilds_{0};
};

}  // namespace microscope::core
