#include "core/diagnosis.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <memory_resource>
#include <tuple>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/tracing.hpp"

namespace microscope::core {

using trace::kNoJourney;

namespace {

/// Registry handles resolved once per process; diagnose() runs per victim
/// (possibly on pool threads), so lookups must not take the registry lock.
struct DiagnoseMetrics {
  obs::Counter& victims;
  obs::Counter& no_period;
  obs::Counter& relations;
  obs::Histogram& ns;
  obs::Histogram& depth;
  obs::Histogram& relation_score;
  obs::Gauge& residual;
  obs::Counter& preset_arrivals;
  obs::Counter& preset_rebuilds;

  static DiagnoseMetrics& get() {
    static DiagnoseMetrics m{
        obs::Registry::global().counter("core.diagnose.victims"),
        obs::Registry::global().counter("core.diagnose.no_period"),
        obs::Registry::global().counter("core.diagnose.relations"),
        obs::Registry::global().histogram("core.diagnose.total_ns"),
        obs::Registry::global().histogram("core.diagnose.depth",
                                          obs::depth_bounds()),
        obs::Registry::global().histogram("core.diagnose.relation_score",
                                          obs::score_bounds()),
        obs::Registry::global().gauge("core.diagnosis.attribution_residual"),
        obs::Registry::global().counter("core.diagnose.preset_arrivals"),
        obs::Registry::global().counter("core.diagnose.preset_rebuilds")};
    return m;
  }
};

/// Propagation depth and culprit-score distribution of one finished
/// diagnosis (skipped entirely under MICROSCOPE_NO_METRICS).
void record_diagnosis(const Diagnosis& d, DiagnoseMetrics& m) {
  if constexpr (!obs::kMetricsEnabled) {
    (void)d;
    (void)m;
    return;
  }
  m.relations.add(d.relations.size());
  if (d.relations.empty()) return;
  int max_depth = 0;
  for (const CausalRelation& rel : d.relations) {
    max_depth = std::max(max_depth, rel.depth);
    m.relation_score.record(std::llround(rel.score));
  }
  m.depth.record(max_depth);
}

/// PreSet sharing counters of one finished cache.
void publish(const PreSetCache& cache) {
  if constexpr (!obs::kMetricsEnabled) return;
  DiagnoseMetrics& m = DiagnoseMetrics::get();
  m.preset_arrivals.add(cache.arrivals_folded());
  if (cache.rebuilds() > 0) m.preset_rebuilds.add(cache.rebuilds());
}

}  // namespace

Diagnoser::Diagnoser(const trace::ReconstructedTrace& rt,
                     std::vector<RatePerNs> peak_rates, DiagnoserOptions opts)
    : rt_(&rt), peak_rates_(std::move(peak_rates)), opts_(opts) {
  if (peak_rates_.size() < rt.graph().node_count())
    peak_rates_.resize(rt.graph().node_count());
}

std::vector<Diagnosis> Diagnoser::diagnose_all(
    const std::vector<Victim>& victims, std::vector<Provenance>* provs) const {
  std::vector<Diagnosis> out(victims.size());
  if (provs) provs->resize(victims.size());
  std::vector<std::optional<QueuingPeriod>> periods(victims.size());
  for (std::size_t i = 0; i < victims.size(); ++i)
    periods[i] = victim_period(victims[i]);

  // Victims of one period become contiguous, in anchor-time order; periods
  // are ordered by start so upstream periods reached by recursion stay
  // warm in the cache from one period to the next.
  const auto period_key = [&](std::uint32_t i) {
    const auto& p = periods[i];
    return std::make_tuple(p ? p->start : kTimeNever, victims[i].node,
                           p ? p->first_arrival : 0);
  };
  std::vector<std::uint32_t> order(victims.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return std::make_tuple(period_key(a), victims[a].time, a) <
           std::make_tuple(period_key(b), victims[b].time, b);
  });

  // Work items: one per period, a large one split into contiguous chunks
  // so the pool can balance it (each chunk pays one accumulator rebuild).
  const auto pool = ThreadPool::make(opts_.parallel);
  const std::size_t max_chunk =
      pool ? victims.size() / (2 * std::size_t{pool->size()}) + 1
           : victims.size();
  std::vector<std::size_t> items;  // start offsets into `order`
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k == 0 || period_key(order[k]) != period_key(order[k - 1]) ||
        k - items.back() >= max_chunk)
      items.push_back(k);
  }
  items.push_back(order.size());

  parallel_for_over(
      pool.get(), items.size() - 1,
      [&](std::size_t b, std::size_t e) {
        // Accumulators live in a pool of this task's own: blocks of every
        // size, freed as periods finish, would otherwise interleave with
        // the long-lived results on the general heap and fragment it. A
        // period's accumulators rarely serve a later period unless the
        // next one uses them too; keep only those the last period used.
        std::pmr::unsynchronized_pool_resource pool(
            std::pmr::pool_options{0, std::size_t{1} << 20});
        PreSetCache cache(*rt_, &pool);
        for (std::size_t item = b; item < e; ++item) {
          const std::uint64_t mark = cache.tick();
          for (std::size_t k = items[item]; k < items[item + 1]; ++k) {
            const std::uint32_t i = order[k];
            out[i] = diagnose_in(victims[i], periods[i], cache,
                                 provs ? &(*provs)[i] : nullptr);
          }
          cache.drop_unused_since(mark);
        }
        publish(cache);
      },
      chunk_grain(opts_.parallel, items.size() - 1));
  return out;
}

std::optional<QueuingPeriod> Diagnoser::victim_period(const Victim& v) const {
  if (!rt_->has_timeline(v.node)) return std::nullopt;
  return find_queuing_period(rt_->timeline(v.node), v.time, opts_.period);
}

Diagnosis Diagnoser::diagnose(const Victim& v, Provenance* prov) const {
  PreSetCache cache(*rt_);
  Diagnosis d = diagnose_in(v, victim_period(v), cache, prov);
  publish(cache);
  return d;
}

Diagnosis Diagnoser::diagnose_in(const Victim& v,
                                 const std::optional<QueuingPeriod>& period,
                                 PreSetCache& cache, Provenance* prov) const {
  DiagnoseMetrics& m = DiagnoseMetrics::get();
  obs::ScopedTimer timer(m.ns);
  const auto wscope = obs::CorrelationScope::for_window(opts_.trace_window);
  const auto vscope =
      obs::CorrelationScope::for_victim(static_cast<std::int64_t>(v.journey));
  obs::TraceSpan span("core", "diagnose");
  m.victims.add();
  Diagnosis d;
  d.victim = v;
  if (prov) {
    *prov = Provenance{};
    prov->victim = v;
  }
  if (!period) {
    m.no_period.add();
    return d;
  }

  const NodeId f = v.node;
  const LocalScores ls = local_scores(rt_->timeline(f), *period, peak_rates_[f]);
  if (prov) {
    prov->found_period = true;
    prov->period_start = period->start;
    prov->period_end = period->end;
    prov->local = ls;
    prov->emitted_local = ls.s_p > opts_.min_score;
    prov->propagated = ls.s_i > opts_.min_score;
  }
  if (ls.s_p > opts_.min_score) emit_local(f, *period, ls.s_p, 0, cache, d);
  if (ls.s_i > opts_.min_score)
    propagate(f, *period, ls.s_i, 0, v.journey, cache, d, prov, -1);
  record_diagnosis(d, m);
  span.set_items(d.relations.size());
  return d;
}

void Diagnoser::propagate(NodeId f, const QueuingPeriod& period,
                          double base_score, int depth,
                          std::uint32_t victim_journey, PreSetCache& cache,
                          Diagnosis& out, Provenance* prov,
                          int prov_parent) const {
  // Reserve this invocation's provenance step up front so children appear
  // after their parent. `prov->steps` grows during recursion, so the step
  // is always re-addressed by index, never held by reference across calls.
  const int step_idx = prov ? static_cast<int>(prov->steps.size()) : -1;
  if (prov) {
    PropagationStep st;
    st.parent = prov_parent;
    st.node = f;
    st.depth = depth;
    st.base_score = base_score;
    st.period_start = period.start;
    st.period_end = period.end;
    prov->steps.push_back(std::move(st));
  }

  // ---- PreSet(p), grouped by upstream path: the period's shared
  // accumulator less the victim's own journey. Holding it pins it, so
  // recursion below cannot change it under us.
  const std::shared_ptr<const PreSet> ps = cache.get(f, period);
  const PreSetExclusion ex = ps->exclusion(victim_journey);
  const std::size_t n_grouped = ps->grouped() - (ex.group >= 0 ? 1 : 0);
  const std::size_t n_skipped = ps->skipped() - (ex.skipped() ? 1 : 0);
  if (prov) {
    prov->steps[step_idx].preset_packets = n_grouped;
    prov->steps[step_idx].preset_skipped = n_skipped;
  }
  if (n_grouped == 0) return;

  // T_exp is shared by every path (paper §4.2, DAG case).
  const double r_f = peak_rates_[f].pkts_per_ns;
  if (r_f <= 0.0) return;
  const double t_exp = static_cast<double>(period.arrival_count()) / r_f;
  if (prov) {
    prov->steps[step_idx].r_pkts_per_ns = r_f;
    prov->steps[step_idx].t_exp_ns = t_exp;
  }

  // ---- Per-path timespan attribution. ----
  struct SourceAccum {
    double score{0.0};
    TimeNs t0{kTimeNever};
    TimeNs t1{0};
    std::vector<std::uint32_t> groups;
  };
  std::unordered_map<NodeId, double> nf_scores;
  std::unordered_map<NodeId, SourceAccum> source_scores;
  std::unordered_map<NodeId, std::vector<std::uint32_t>> nf_groups;
  const auto packets = [&](std::uint32_t g) -> std::size_t {
    return ps->groups()[g].count - (ex.counted_in(g) ? 1 : 0);
  };
  const auto total_packets = [&](const std::vector<std::uint32_t>& gs) {
    std::size_t n = 0;
    for (const std::uint32_t g : gs) n += packets(g);
    return n;
  };

  // Conservation accounting (always on): every path's share either lands
  // on hops (`attributed`) or is deliberately charged to nobody when the
  // path shows no compression (`uncharged`); the difference from
  // base_score is floating-point rounding only.
  double attributed = 0.0;
  double uncharged = 0.0;

  for (const std::uint32_t g : ps->lex_order()) {
    const PathGroup& group = ps->groups()[g];
    const std::size_t count = packets(g);
    if (count == 0) continue;  // the victim was the path's only packet
    const auto& path = group.path;
    const std::uint32_t skip = ex.counted_in(g) ? ex.journey : kNoJourney;
    const double share = base_score * static_cast<double>(count) /
                         static_cast<double>(n_grouped);

    // Timespans: index 0 is the source (emit times), then each upstream NF
    // (depart times of the subset).
    std::vector<PathHopSpan> spans(path.size());
    for (std::size_t k = 0; k < path.size(); ++k) {
      spans[k].node = path[k];
      spans[k].timespan =
          static_cast<double>(group.hops[k].depart.max_without(skip) -
                              group.hops[k].depart.min_without(skip));
    }

    const std::vector<HopScore> hop_scores =
        attribute_timespan(spans, t_exp, share);
    double path_attributed = 0.0;
    for (std::size_t k = 0; k < hop_scores.size(); ++k) {
      const HopScore& hs = hop_scores[k];
      path_attributed += hs.score;
      if (hs.score <= 0.0) continue;
      if (rt_->graph().is_source(hs.node)) {
        SourceAccum& acc = source_scores[hs.node];
        acc.score += hs.score;
        acc.t0 = std::min(acc.t0, group.hops[0].depart.min_without(skip));
        acc.t1 = std::max(acc.t1, group.hops[0].depart.max_without(skip));
        acc.groups.push_back(g);
      } else {
        nf_scores[hs.node] += hs.score;
        nf_groups[hs.node].push_back(g);
      }
    }
    attributed += path_attributed;
    if (path_attributed <= 0.0) uncharged += share;
    if (prov) {
      PathAttribution pa;
      pa.path.assign(path.begin(), path.end());
      pa.packets = count;
      pa.share = share;
      pa.hops.reserve(hop_scores.size());
      for (std::size_t k = 0; k < hop_scores.size(); ++k)
        pa.hops.push_back(
            {hop_scores[k].node, spans[k].timespan, hop_scores[k].score});
      prov->steps[step_idx].paths.push_back(std::move(pa));
    }
  }

  // Satellite invariant (paper eqn (1)): the shares handed out sum back to
  // the S_i that flowed in, modulo deliberately-uncharged smooth paths.
  const double rounding = base_score - attributed - uncharged;
  assert(std::abs(rounding) <= 1e-6 * std::max(1.0, base_score));
  if constexpr (obs::kMetricsEnabled)
    DiagnoseMetrics::get().residual.add(std::abs(rounding));
  if (prov) {
    prov->steps[step_idx].attributed = attributed;
    prov->steps[step_idx].uncharged = uncharged;
    prov->steps[step_idx].residual = rounding;
  }

  // ---- Emit source culprits. ----
  for (auto& [src, acc] : source_scores) {
    const bool emitted = acc.score >= opts_.min_score;
    if (prov) {
      CulpritAttribution ca;
      ca.node = src;
      ca.kind = CauseKind::kSourceTraffic;
      ca.score = acc.score;
      ca.outcome = emitted ? AttributionOutcome::kEmittedSource
                           : AttributionOutcome::kZeroedBelowMin;
      prov->steps[step_idx].culprits.push_back(std::move(ca));
    }
    if (!emitted) continue;
    CausalRelation rel;
    rel.culprit = {src, CauseKind::kSourceTraffic};
    rel.score = acc.score;
    rel.culprit_t0 = acc.t0;
    rel.culprit_t1 = acc.t1;
    rel.depth = depth;
    rel.flows = group_flows(*ps, acc.groups, ex, acc.score,
                            total_packets(acc.groups),
                            opts_.max_flows_per_relation);
    out.relations.push_back(std::move(rel));
  }

  // ---- Recurse into NF culprits (§4.3). ----
  for (auto& [u, score] : nf_scores) {
    // Provenance for this culprit is buffered locally and appended at the
    // end of the iteration: the recursive call below grows prov->steps.
    CulpritAttribution ca;
    ca.node = u;
    ca.kind = CauseKind::kLocalProcessing;
    ca.score = score;
    const auto push_culprit = [&](AttributionOutcome outcome) {
      if (!prov) return;
      ca.outcome = outcome;
      prov->steps[step_idx].culprits.push_back(ca);
    };
    if (score < opts_.min_score) {
      push_culprit(AttributionOutcome::kZeroedBelowMin);
      continue;
    }

    // First and last arrival of the PreSet subset at u.
    const std::vector<std::uint32_t>& groups_u = nf_groups[u];
    TimeNs t_first_u = kTimeNever;
    TimeNs t_last_u = 0;
    for (const std::uint32_t g : groups_u) {
      const PathGroup& group = ps->groups()[g];
      const std::uint32_t skip = ex.counted_in(g) ? ex.journey : kNoJourney;
      const std::size_t k = static_cast<std::size_t>(
          std::find(group.path.begin(), group.path.end(), u) -
          group.path.begin());
      t_first_u = std::min(t_first_u, group.hops[k].arrival.min_without(skip));
      t_last_u = std::max(t_last_u, group.hops[k].arrival.max_without(skip));
    }
    if (t_first_u == kTimeNever) continue;

    // §4.3: diagnose the queuing period "after the arrival of the first
    // packet of PreSet(p)" at u — the period anchored before the first
    // PreSet arrival but extending through the subset's transit (ending at
    // its last arrival). Anchoring the end at the *first* arrival would
    // often yield a degenerate zero-length period.
    const auto period_u =
        rt_->has_timeline(u)
            ? find_queuing_period(rt_->timeline(u),
                                  std::max(t_last_u, t_first_u), opts_.period)
            : std::nullopt;
    if (!period_u || depth + 1 >= opts_.max_depth) {
      // Cannot look further: attribute everything to u's local behaviour
      // over the interval the PreSet spent there.
      CausalRelation rel;
      rel.culprit = {u, CauseKind::kLocalProcessing};
      rel.score = score;
      rel.culprit_t0 = t_first_u;
      rel.culprit_t1 = std::max(t_last_u, t_first_u);
      rel.depth = depth + 1;
      // Culprit flows: the PreSet packets that traversed u.
      rel.flows = group_flows(*ps, groups_u, ex, score,
                              total_packets(groups_u),
                              opts_.max_flows_per_relation);
      out.relations.push_back(std::move(rel));
      push_culprit(AttributionOutcome::kTerminalLocal);
      continue;
    }

    const LocalScores sub =
        local_scores(rt_->timeline(u), *period_u, peak_rates_[u]);
    const double denom = sub.s_i + sub.s_p;
    if (denom <= 0.0) {
      emit_local(u, *period_u, score, depth + 1, cache, out);
      push_culprit(AttributionOutcome::kTerminalLocal);
      continue;
    }
    const double local_part = score * (sub.s_p / denom);
    const double input_part = score * (sub.s_i / denom);
    ca.sub_s_i = sub.s_i;
    ca.sub_s_p = sub.s_p;
    ca.local_part = local_part;
    ca.input_part = input_part;
    if (local_part > opts_.min_score)
      emit_local(u, *period_u, local_part, depth + 1, cache, out);
    if (input_part > opts_.min_score) {
      ca.child_step = prov ? static_cast<int>(prov->steps.size()) : -1;
      propagate(u, *period_u, input_part, depth + 1, victim_journey, cache,
                out, prov, step_idx);
    }
    push_culprit(AttributionOutcome::kRecursed);
  }
}

void Diagnoser::emit_local(NodeId node, const QueuingPeriod& period,
                           double score, int depth, PreSetCache& cache,
                           Diagnosis& out) const {
  CausalRelation rel;
  rel.culprit = {node, CauseKind::kLocalProcessing};
  rel.score = score;
  rel.culprit_t0 = period.start;
  rel.culprit_t1 = period.end;
  rel.depth = depth;
  rel.flows = period_flows(*cache.get(node, period), score,
                           opts_.max_flows_per_relation);
  out.relations.push_back(std::move(rel));
}

}  // namespace microscope::core
