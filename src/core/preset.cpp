#include "core/preset.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace microscope::core {

using trace::Journey;
using trace::kNoJourney;

namespace {

/// SplitMix64 finalizer, for path hashes.
std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

FlowCounts::Order::const_iterator FlowCounts::add(const FiveTuple& flow,
                                                  Order::const_iterator at) {
  if (at == order_.end()) return order_.insert({1, flow}).first;
  auto node = order_.extract(at);
  ++node.value().count;
  return order_.insert(std::move(node)).position;
}

PreSet::PreSet(const trace::ReconstructedTrace& rt, NodeId node,
               std::size_t first, std::pmr::memory_resource* upstream)
    : rt_(&rt),
      node_(node),
      first_(first),
      last_(first),
      pool_(inline_, sizeof inline_, upstream) {}

void PreSet::extend_to(std::size_t last) {
  assert(last >= last_);
  const trace::NodeTimeline& tl = rt_->timeline(node_);
  for (; last_ < last; ++last_) fold(tl.arrivals[last_]);
}

std::int32_t PreSet::group_of(const Journey& j) {
  // The node sequence before the node (source first); journeys that are
  // incomplete or never reach the node (alignment noise) have none.
  if (!j.complete()) return -1;
  std::uint64_t h = mix64(j.source);
  std::size_t len = 1;
  for (;; ++len) {
    if (len > j.hops.size()) return -1;
    const NodeId n = j.hops[len - 1].node;
    if (n == node_) break;
    h = mix64(h ^ (std::uint64_t{n} + 0x9e3779b97f4a7c15ULL));
  }
  const auto same_path = [&](const PathGroup& g) {
    if (g.hash != h || g.path.size() != len) return false;
    for (std::size_t k = 1; k < len; ++k)
      if (g.path[k] != j.hops[k - 1].node) return false;
    return g.path[0] == j.source;
  };
  // Few paths reach a queue: a scan of their hashes beats a map.
  for (std::size_t g = 0; g < groups_.size(); ++g)
    if (same_path(groups_[g])) return static_cast<std::int32_t>(g);

  const auto g = static_cast<std::int32_t>(groups_.size());
  PathGroup& pg = groups_.emplace_back(&pool_);
  pg.hash = h;
  pg.path.reserve(len);
  pg.path.push_back(j.source);
  for (std::size_t k = 1; k < len; ++k) pg.path.push_back(j.hops[k - 1].node);
  pg.hops.resize(len);
  const auto pos = std::lower_bound(
      lex_.begin(), lex_.end(), pg.path,
      [&](std::uint32_t a, const std::pmr::vector<NodeId>& p) {
        return groups_[a].path < p;
      });
  lex_.insert(pos, static_cast<std::uint32_t>(g));
  return g;
}

void PreSet::fold(const trace::Arrival& a) {
  if (a.journey == kNoJourney) {
    ++skipped_;
    return;
  }
  const Journey& j = rt_->journey(a.journey);
  const auto [at, fresh] = flows_.try_emplace(j.flow);
  FlowSlot& slot = at->second;
  slot.all = all_.add(j.flow, fresh ? all_.order().end() : slot.all);
  ++all_count_;
  const std::int32_t g = group_of(j);
  member_journeys_.push_back(a.journey);
  member_groups_.push_back(g);
  if (g < 0) {
    ++skipped_;
    return;
  }
  PathGroup& pg = groups_[static_cast<std::size_t>(g)];
  ++pg.count;
  ++grouped_;
  pg.hops[0].depart.add(j.source_time, a.journey);
  for (std::size_t k = 1; k < pg.hops.size(); ++k) {
    const trace::Hop& h = j.hops[k - 1];
    pg.hops[k].depart.add(h.depart, a.journey);
    pg.hops[k].arrival.add(h.arrival, a.journey);
  }
  if (slot.home < 0) {
    slot.home = g;
    slot.in_home = pg.flows.add(j.flow, pg.flows.order().end());
  } else if (slot.home == g) {
    slot.in_home = pg.flows.add(j.flow, slot.in_home);
  } else {
    auto& in_away = away_.try_emplace({g, j.flow}, pg.flows.order().end())
                        .first->second;
    in_away = pg.flows.add(j.flow, in_away);
  }
}

PreSetExclusion PreSet::exclusion(std::uint32_t journey) const {
  PreSetExclusion ex;
  const auto at =
      std::find(member_journeys_.begin(), member_journeys_.end(), journey);
  if (at == member_journeys_.end()) return ex;
  // On an acyclic graph a journey reaches a node once, so one subtraction
  // leaves it out entirely.
  assert(std::find(at + 1, member_journeys_.end(), journey) ==
         member_journeys_.end());
  ex.journey = journey;
  ex.group =
      member_groups_[static_cast<std::size_t>(at - member_journeys_.begin())];
  ex.flow = rt_->journey(journey).flow;
  return ex;
}

namespace {

/// Canonical flow-weight order: weight descending, five-tuple ascending.
/// The tuple tie-break keeps relation output independent of hash-map
/// iteration order, so a windowed (online) diagnosis of the same victim is
/// byte-identical to the full-trace one.
bool flow_weight_before(const FlowWeight& a, const FlowWeight& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  return a.flow < b.flow;
}

/// For a score in this range, (score × count) / total is strictly
/// decreasing in count for every count and total below 2^32, so the
/// (count descending, five-tuple ascending) order is the weight order and
/// the heaviest flows can be read off the front of a FlowCounts order.
bool weights_follow_counts(double score) {
  return score >= 1e-200 && score <= 1e200;
}

/// Turn candidate flows carrying their packet counts in `weight` into
/// culprit flows: weight (score × count) / total, canonical order, capped.
std::vector<FlowWeight> weigh(std::vector<FlowWeight> flows, double score,
                              std::size_t total, std::size_t max_flows) {
  for (FlowWeight& fw : flows)
    fw.weight = score * fw.weight / static_cast<double>(total);
  std::sort(flows.begin(), flows.end(), flow_weight_before);
  if (flows.size() > max_flows) flows.resize(max_flows);
  return flows;
}

/// Sum the groups' flow counts exactly (any overlap, any multiplicity).
std::vector<FlowWeight> summed_counts(const PreSet& ps,
                                      const std::vector<std::uint32_t>& groups,
                                      const PreSetExclusion& ex) {
  std::unordered_map<FiveTuple, std::uint32_t, FiveTupleHash> sum;
  for (const std::uint32_t g : groups) {
    for (const FlowCounts::Entry& e : ps.groups()[g].flows.order())
      sum[e.flow] += e.count;
    if (ex.counted_in(g)) --sum[ex.flow];
  }
  std::vector<FlowWeight> out;
  out.reserve(sum.size());
  for (const auto& [flow, count] : sum)
    if (count > 0) out.push_back({flow, static_cast<double>(count)});
  return out;
}

}  // namespace

std::vector<FlowWeight> group_flows(const PreSet& ps,
                                    const std::vector<std::uint32_t>& groups,
                                    const PreSetExclusion& ex, double score,
                                    std::size_t total,
                                    std::size_t max_flows) {
  bool distinct = true;
  for (auto it = groups.begin(); it != groups.end() && distinct; ++it)
    distinct = std::find(groups.begin(), it, *it) == it;
  if (!weights_follow_counts(score) || !distinct ||
      (groups.size() > 1 && !ps.flows_disjoint()))
    return weigh(summed_counts(ps, groups, ex), score, total, max_flows);

  // Disjoint groups: merge their orders, reading one entry past the cap
  // so the victim's flow can drop a place without losing the cut.
  using It = FlowCounts::Order::const_iterator;
  std::vector<std::pair<It, It>> heads;
  heads.reserve(groups.size());
  bool victim_here = false;
  std::size_t flows = 0;
  for (const std::uint32_t g : groups) {
    const FlowCounts::Order& o = ps.groups()[g].flows.order();
    heads.emplace_back(o.begin(), o.end());
    flows += o.size();
    victim_here = victim_here || ex.counted_in(g);
  }
  const FlowCounts::Before before;
  const std::size_t want = flows > max_flows ? max_flows + 1 : flows;
  std::vector<FlowWeight> top;
  top.reserve(want);
  while (top.size() < want) {
    std::pair<It, It>* best = nullptr;
    for (auto& h : heads)
      if (h.first != h.second && (!best || before(*h.first, *best->first)))
        best = &h;
    if (!best) break;
    top.push_back({best->first->flow, static_cast<double>(best->first->count)});
    ++best->first;
  }
  if (victim_here) {
    for (auto it = top.begin(); it != top.end(); ++it) {
      if (it->flow != ex.flow) continue;
      if ((it->weight -= 1.0) == 0.0) top.erase(it);
      break;
    }
  }
  return weigh(std::move(top), score, total, max_flows);
}

std::vector<FlowWeight> period_flows(const PreSet& ps, double score,
                                     std::size_t max_flows) {
  if (ps.all_count() == 0) return {};
  const FlowCounts::Order& o = ps.all_flows().order();
  const std::size_t want =
      weights_follow_counts(score) ? std::min(max_flows, o.size()) : o.size();
  std::vector<FlowWeight> top;
  top.reserve(want);
  for (auto it = o.begin(); top.size() < want; ++it)
    top.push_back({it->flow, static_cast<double>(it->count)});
  return weigh(std::move(top), score, ps.all_count(), max_flows);
}

std::shared_ptr<PreSet> PreSetCache::build(NodeId node,
                                           const QueuingPeriod& period) {
  auto ps = std::allocate_shared<PreSet>(
      std::pmr::polymorphic_allocator<PreSet>(mr_), *rt_, node,
      period.first_arrival, mr_);
  ps->extend_to(period.last_arrival);
  folded_ += period.arrival_count();
  return ps;
}

std::shared_ptr<const PreSet> PreSetCache::get(NodeId node,
                                               const QueuingPeriod& period) {
  auto it = std::find_if(slots_.begin(), slots_.end(), [&](const Slot& s) {
    return s.ps->node() == node && s.ps->first() == period.first_arrival;
  });
  if (it == slots_.end()) {
    slots_.push_back({build(node, period), 0});
    held_ += period.arrival_count();
    it = std::prev(slots_.end());
  } else if (it->ps->last() != period.last_arrival) {
    // Growing in place is only safe while nobody up the recursion stack
    // still reads the accumulator; otherwise, or when the query wants
    // fewer arrivals than it holds, start over from the period start.
    held_ -= it->ps->last() - it->ps->first();
    if (it->ps->last() < period.last_arrival && it->ps.use_count() == 1) {
      folded_ += period.last_arrival - it->ps->last();
      it->ps->extend_to(period.last_arrival);
    } else {
      it->ps = build(node, period);
      ++rebuilds_;
    }
    held_ += period.arrival_count();
  }
  it->used = ++tick_;
  std::shared_ptr<const PreSet> out = it->ps;
  if (held_ > kMaxArrivals || slots_.size() > kMaxSlots) trim();
  return out;
}

void PreSetCache::drop_unused_since(std::uint64_t mark) {
  std::erase_if(slots_, [&](const Slot& s) {
    if (s.used > mark || s.ps.use_count() > 1) return false;
    held_ -= s.ps->last() - s.ps->first();
    return true;
  });
}

void PreSetCache::trim() {
  // Evict the least recently used first; ones held up the stack stay.
  std::sort(slots_.begin(), slots_.end(),
            [](const Slot& a, const Slot& b) { return a.used > b.used; });
  while ((held_ > kMaxArrivals / 2 || slots_.size() > kMaxSlots / 2) &&
         !slots_.empty() && slots_.back().ps.use_count() == 1) {
    held_ -= slots_.back().ps->last() - slots_.back().ps->first();
    slots_.pop_back();
  }
}

}  // namespace microscope::core
