#include "trace/reconstruct.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/tracing.hpp"

namespace microscope::trace {

std::uint64_t NodeTimeline::arrivals_in(TimeNs t0, TimeNs t1) const {
  const auto lo = std::upper_bound(
      arrivals.begin(), arrivals.end(), t0,
      [](TimeNs t, const Arrival& a) { return t < a.t; });
  const auto hi = std::upper_bound(
      arrivals.begin(), arrivals.end(), t1,
      [](TimeNs t, const Arrival& a) { return t < a.t; });
  return static_cast<std::uint64_t>(hi - lo);
}

std::uint64_t NodeTimeline::reads_in(TimeNs t0, TimeNs t1) const {
  auto cum_at = [this](TimeNs t) -> std::uint64_t {
    // Sum of counts of batches with ts <= t.
    const auto it = std::upper_bound(
        reads.begin(), reads.end(), t,
        [](TimeNs x, const Read& r) { return x < r.ts; });
    if (it == reads.begin()) return 0;
    return reads_cum[static_cast<std::size_t>(it - reads.begin()) - 1];
  };
  return cum_at(t1) - cum_at(t0);
}

std::size_t NodeTimeline::first_arrival_after(TimeNs t0) const {
  const auto it = std::upper_bound(
      arrivals.begin(), arrivals.end(), t0,
      [](TimeNs t, const Arrival& a) { return t < a.t; });
  return static_cast<std::size_t>(it - arrivals.begin());
}

namespace {

/// Journey ids and timeline positions per node, indexed by absolute entry
/// minus the base the node's alignment lanes had when they were last
/// synced (the lanes follow the Aligner's eviction).
struct NodeMarks {
  std::uint32_t rx_base{0};
  std::uint32_t tx_base{0};
  std::vector<std::uint32_t> jid_of_rx;  // per rx entry
  std::vector<std::uint32_t> jid_of_tx;  // per tx entry
  /// Absolute position of each tx entry's arrival in its peer's timeline,
  /// for patching arrivals an earlier call created (empty for a
  /// one-shot reconstruction, which has none).
  std::vector<std::uint32_t> arrival_at;

  bool has_rx(std::uint32_t j) const {
    return j >= rx_base && j - rx_base < jid_of_rx.size();
  }
  bool has_tx(std::uint32_t k) const {
    return k >= tx_base && k - tx_base < jid_of_tx.size();
  }
};

/// Timeline cursors of one node.
struct NodeCursors {
  std::uint32_t deliver_next{0};  // tx batch: next delivered-seed scan
  std::uint32_t reads_next{0};    // rx batch: next timeline read
  std::vector<std::uint32_t> arr_next;  // per graph upstream: its next tx batch
  std::uint32_t arrivals_base{0};  // absolute position of arrivals[0]
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename T>
void erase_front(std::vector<T>& v, std::size_t count) {
  v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(count, v.size())));
}

bool arrival_before(const Arrival& a, const Arrival& b) {
  if (a.t != b.t) return a.t < b.t;
  if (a.from != b.from) return a.from < b.from;
  return a.up_tx_idx < b.up_tx_idx;
}

}  // namespace

struct ReconstructedTrace::State {
  std::unique_ptr<ThreadPool> pool;
  std::vector<NodeMarks> marks;
  std::vector<NodeCursors> cursors;
  /// Drop seeds whose records are settled but whose journey could still
  /// change (within the alignment slack of the settle frontier).
  std::vector<JourneySeed> pending;
  bool speculating{false};
  std::uint32_t spec_first{0};
  /// The last commit's settle frontier and its read-ahead (visible -
  /// settle): the packets in flight at the frontier are the speculative
  /// ones.
  TimeNs settled{std::numeric_limits<TimeNs>::min()};
  DurationNs margin{0};
  /// Per source node: first tx entry that may still lack a journey.
  std::vector<std::uint32_t> chase_next;
  /// Settled reads no upstream entry was linked to: the start of a
  /// truncated journey, still unbuilt.
  struct Orphan {
    NodeId node;
    std::uint32_t rx;
    TimeNs read;
  };
  std::vector<Orphan> orphans;
  /// First journey not yet known to be dead (eviction cursor).
  std::uint32_t journey_cut{0};
};

ReconstructedTrace::ReconstructedTrace(GraphView graph,
                                       ReconstructOptions opts,
                                       std::uint32_t index_origin)
    : graph_(std::make_shared<const GraphView>(std::move(graph))),
      opts_(opts),
      aligner_(graph_, opts.align),
      journey_base_(index_origin),
      timelines_(graph_->node_count()),
      st_(std::make_unique<State>()) {
  st_->pool = ThreadPool::make(opts_.parallel);
  st_->marks.resize(graph_->node_count());
  st_->cursors.resize(graph_->node_count());
  for (NodeCursors& c : st_->cursors) c.arrivals_base = index_origin;
  st_->chase_next.assign(graph_->node_count(), 0);
  st_->journey_cut = index_origin;
}

ReconstructedTrace::~ReconstructedTrace() = default;
ReconstructedTrace::ReconstructedTrace(ReconstructedTrace&&) noexcept =
    default;
ReconstructedTrace& ReconstructedTrace::operator=(
    ReconstructedTrace&&) noexcept = default;

std::uint32_t ReconstructedTrace::index_end() const {
  std::uint32_t end = journey_end();
  for (NodeId d = 0; d < timelines_.size(); ++d)
    end = std::max(end, st_->cursors[d].arrivals_base +
                            static_cast<std::uint32_t>(
                                timelines_[d].arrivals.size()));
  return end;
}

std::uint32_t ReconstructedTrace::journey_of_rx(NodeId node,
                                                std::uint32_t rx_idx) const {
  if (node >= st_->marks.size() || !st_->marks[node].has_rx(rx_idx))
    return kNoJourney;
  const NodeMarks& m = st_->marks[node];
  return m.jid_of_rx[rx_idx - m.rx_base];
}

void ReconstructedTrace::mark_tx(NodeId node, std::uint32_t idx, NodeId peer,
                                 std::uint32_t jid) {
  NodeMarks& m = st_->marks[node];
  if (!m.has_tx(idx)) return;
  m.jid_of_tx[idx - m.tx_base] = jid;
  if (m.arrival_at.empty() || peer >= timelines_.size()) return;
  const std::uint32_t pos = m.arrival_at[idx - m.tx_base];
  if (pos == kNoEntry) return;
  const std::uint32_t base = st_->cursors[peer].arrivals_base;
  std::vector<Arrival>& arr = timelines_[peer].arrivals;
  if (pos < base || pos - base >= arr.size()) return;
  Arrival& a = arr[pos - base];
  if (a.from == node && a.up_tx_idx == idx) a.journey = jid;
}

std::uint32_t ReconstructedTrace::extend(const NodeTraces& recs,
                                         TimeNs settle, TimeNs visible) {
  return grow(recs, settle, visible, Mode::kCommit);
}

std::uint32_t ReconstructedTrace::speculate(const NodeTraces& recs,
                                            TimeNs until) {
  return grow(recs, until, until, Mode::kSpeculate);
}

std::uint32_t ReconstructedTrace::grow(const NodeTraces& recs, TimeNs settle,
                                       TimeNs visible, Mode mode) {
  // The three phases tile the call, so a caller can account for all of it.
  std::int64_t t0 = now_ns();
  obs::Registry& reg = obs::Registry::global();
  reg.counter("trace.reconstruct.runs").add();
  obs::TraceSpan span("trace", "reconstruct");
  obs::ScopedTimer total_timer(reg.histogram("trace.reconstruct.total_ns"));
  rollback();
  phase_ = PhaseTimes{};
  const bool spec = mode == Mode::kSpeculate;
  ThreadPool* pool = st_->pool.get();

  std::vector<TxRef> drops;
  if (spec) {
    aligner_.speculate(recs, settle, pool, opts_.parallel);
    st_->speculating = true;
  } else {
    aligner_.extend(recs, settle, visible, pool, opts_.parallel);
  }
  drops = aligner_.new_drops();
  if (mode == Mode::kFinal) {
    aligner_.finish(recs);
    const std::vector<TxRef> late = aligner_.new_drops();
    drops.insert(drops.end(), late.begin(), late.end());
  }
  // The mark lanes cover exactly the alignment lanes.
  parallel_for_over(
      pool, graph_->node_count(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t id = b; id < e; ++id) {
          const NodeAlignment& a = aligner_.alignments()[id];
          NodeMarks& m = st_->marks[id];
          if (m.jid_of_rx.empty()) m.rx_base = a.rx_base;
          if (m.jid_of_tx.empty()) m.tx_base = a.tx_base;
          m.jid_of_rx.resize(a.rx_end() - m.rx_base, kNoJourney);
          m.jid_of_tx.resize(a.tx_end() - m.tx_base, kNoJourney);
          if (mode != Mode::kFinal)
            m.arrival_at.resize(a.tx_end() - m.tx_base, kNoEntry);
        }
      },
      chunk_grain(opts_.parallel, graph_->node_count()));
  std::int64_t t1 = now_ns();
  phase_.align_ns = t1 - t0;

  // Walks first: timeline entries created below pick up the journeys of
  // their tx entries, and walks patch the ones earlier calls created.
  const std::uint32_t first = journey_end();
  if (spec) st_->spec_first = first;
  {
    obs::ScopedTimer walk_timer(reg.histogram("trace.reconstruct.walk_ns"));
    build_journeys(recs, spec ? in_flight_seeds(recs, drops)
                              : collect_seeds(recs, settle, visible, mode,
                                              drops));
  }
  const std::uint32_t built = journey_end() - first;
  reg.counter("trace.reconstruct.journeys").add(built);
  if constexpr (obs::kMetricsEnabled) {
    std::uint64_t truncated = 0;
    for (std::uint32_t id = first; id < journey_end(); ++id)
      if (journey(id).fate == Fate::kTruncated) ++truncated;
    reg.counter("trace.reconstruct.truncated_journeys").add(truncated);
  }
  span.set_items(built);
  t0 = now_ns();
  phase_.walk_ns = t0 - t1;

  // A window's diagnosis reads timelines only up to the settle frontier,
  // so speculation leaves them alone.
  if (!spec) {
    obs::ScopedTimer timeline_timer(
        reg.histogram("trace.reconstruct.timeline_ns"));
    extend_timelines(recs, settle, mode);
    if (mode == Mode::kCommit) {
      st_->settled = settle;
      st_->margin = visible - settle;
    }
  }
  phase_.timeline_ns = now_ns() - t0;
  return first;
}

void ReconstructedTrace::extend_timelines(const NodeTraces& recs,
                                          TimeNs limit, Mode mode) {
  const std::size_t n = graph_->node_count();
  const auto has = [&](NodeId id) {
    return id < recs.size() && recs[id] != nullptr;
  };
  const std::vector<NodeAlignment>& al = aligner_.alignments();
  // Sharded per downstream node: a timeline only holds arrivals headed to
  // its node, and each upstream tx entry has exactly one such node, so
  // every write (timeline, arrival_at entry) is owned by one shard.
  parallel_for_over(
      st_->pool.get(), n,
      [&](std::size_t b, std::size_t e) {
        for (NodeId d = static_cast<NodeId>(b); d < e; ++d) {
          if (graph_->kinds[d] != NodeKind::kNf || !has(d)) continue;
          NodeTimeline& tl = timelines_[d];
          NodeCursors& c = st_->cursors[d];
          const collector::NodeTrace& t = *recs[d];

          // Reads: rx batches read before `limit`, in record order.
          std::uint32_t rb = std::max(c.reads_next, t.rx_batch_base);
          std::uint64_t cum = tl.reads_cum.empty() ? 0 : tl.reads_cum.back();
          for (; rb < t.rx_batch_end() && t.rx_batch(rb).ts < limit; ++rb) {
            const collector::BatchRecord& rec = t.rx_batch(rb);
            NodeTimeline::Read r;
            r.ts = rec.ts;
            r.count = rec.count;
            r.short_batch = rec.count < opts_.max_batch;
            tl.reads.push_back(r);
            cum += rec.count;
            tl.reads_cum.push_back(cum);
          }

          // Arrivals: upstream tx entries sent here before `limit`.
          c.arr_next.resize(graph_->upstreams[d].size(), 0);
          std::vector<Arrival>& arr = tl.arrivals;
          const std::size_t at = arr.size();
          for (std::size_t ui = 0; ui < graph_->upstreams[d].size(); ++ui) {
            const NodeId u = graph_->upstreams[d][ui];
            if (!has(u)) continue;
            const collector::NodeTrace& ut = *recs[u];
            const NodeAlignment& ua = al[u];
            const NodeMarks& um = st_->marks[u];
            const collector::BatchRecord* brec = ut.tx_batches.data();
            const std::uint32_t bbase = ut.tx_batch_base;
            const std::uint32_t bend = ut.tx_batch_end();
            const DurationNs prop = opts_.prop_delay;
            const std::uint32_t jid_floor = journey_base_;
            std::uint32_t tb = std::max(c.arr_next[ui], ut.tx_batch_base);
            for (; tb < bend && brec[tb - bbase].ts < limit; ++tb) {
              const collector::BatchRecord& rec = brec[tb - bbase];
              if (rec.peer != d) continue;
              // Settled entries are always inside both lane sets; the
              // check is per batch, off the per-entry path.
              const bool lanes = ua.has_tx(rec.begin) && um.has_tx(rec.begin) &&
                                 ua.has_tx(rec.begin + rec.count - 1);
              const std::uint32_t* read_by =
                  lanes ? ua.tx_read_by.data() + (rec.begin - ua.tx_base)
                        : nullptr;
              const std::uint32_t* jids =
                  lanes ? um.jid_of_tx.data() + (rec.begin - um.tx_base)
                        : nullptr;
              for (std::uint32_t i = 0; i < rec.count; ++i) {
                Arrival ar;
                ar.t = rec.ts + prop;
                ar.from = u;
                ar.up_tx_idx = rec.begin + i;
                if (lanes) {
                  ar.rx_idx = read_by[i];
                  if (jids[i] >= jid_floor) ar.journey = jids[i];
                }
                arr.push_back(ar);
              }
            }
            c.arr_next[ui] = tb;
          }
          // Total order (tie-break on upstream node + entry): the arrival
          // sequence must be canonical regardless of which records exist,
          // so that every settle schedule orders simultaneous arrivals
          // identically to the full trace (online/offline equivalence).
          const auto tail = arr.begin() + static_cast<std::ptrdiff_t>(at);
          std::sort(tail, arr.end(), arrival_before);
          // Positions serve later calls' patches; a final pass has none.
          std::size_t from = mode == Mode::kFinal ? arr.size() : at;
          if (at > 0 && tail != arr.end() &&
              arrival_before(*tail, arr[at - 1])) {
            // Timestamp regressions (chaos traces) can settle an arrival
            // before ones already settled: merge, and re-point everything.
            std::inplace_merge(arr.begin(), tail, arr.end(), arrival_before);
            from = 0;
          }
          for (std::size_t i = from; i < arr.size(); ++i) {
            const Arrival& ar = arr[i];
            NodeMarks& um = st_->marks[ar.from];
            if (um.has_tx(ar.up_tx_idx))
              um.arrival_at[ar.up_tx_idx - um.tx_base] =
                  c.arrivals_base + static_cast<std::uint32_t>(i);
          }

          // Newly aligned reads of this node consume arrivals settled
          // by earlier calls (the ones above read tx_read_by already).
          const NodeAlignment& da = al[d];
          for (std::uint32_t j = at == 0 ? 0 : aligner_.rx_begin(d);
               at > 0 && j < aligner_.rx_done(d); ++j) {
            const TxRef o = da.origin(j);
            if (!o.valid()) continue;
            const NodeMarks& om = st_->marks[o.node];
            if (!om.has_tx(o.idx)) continue;
            const std::uint32_t pos = om.arrival_at[o.idx - om.tx_base];
            if (pos == kNoEntry || pos < c.arrivals_base ||
                pos - c.arrivals_base >= arr.size())
              continue;
            Arrival& ar = arr[pos - c.arrivals_base];
            if (ar.from == o.node && ar.up_tx_idx == o.idx) ar.rx_idx = j;
          }

          c.reads_next = rb;
        }
      },
      chunk_grain(opts_.parallel, n));
}

std::vector<JourneySeed> ReconstructedTrace::collect_seeds(
    const NodeTraces& recs, TimeNs settle, TimeNs visible, Mode mode,
    const std::vector<TxRef>& drops) {
  const std::vector<NodeAlignment>& al = aligner_.alignments();
  // A journey is final once no later read can change any of its records:
  // its terminal lies more than the alignment slack before the settle
  // frontier (a read claims tx entries up to slack before it).
  const TimeNs final_before =
      settle == kTimeNever ? kTimeNever : settle - opts_.align.slack;
  const auto has = [&](NodeId id) {
    return id < recs.size() && recs[id] != nullptr;
  };

  std::vector<JourneySeed> out;
  std::vector<JourneySeed> candidates;
  std::swap(candidates, st_->pending);

  // Terminal 1: delivered packets (edge tx entries toward the sink).
  for (NodeId e = 0; e < graph_->node_count(); ++e) {
    if (graph_->kinds[e] != NodeKind::kNf || !has(e)) continue;
    const collector::NodeTrace& t = *recs[e];
    std::uint32_t b = std::max(st_->cursors[e].deliver_next, t.tx_batch_base);
    for (; b < t.tx_batch_end(); ++b) {
      const collector::BatchRecord& rec = t.tx_batch(b);
      if (rec.ts > visible || rec.ts >= final_before) break;
      if (rec.peer != graph_->sink) continue;
      for (std::uint32_t i = 0; i < rec.count; ++i)
        out.push_back({JourneySeed::Kind::kDelivered, e, rec.begin + i,
                       rec.ts});
    }
    st_->cursors[e].deliver_next = b;
  }

  // Terminal 2: packets dropped at a downstream input queue.
  for (const TxRef& r : drops) {
    const NodeAlignment& a = al[r.node];
    if (!a.has_tx(r.idx)) continue;
    candidates.push_back({JourneySeed::Kind::kQueueDrop, r.node, r.idx,
                          a.tx_ts(r.idx) + opts_.prop_delay});
  }

  // Terminal 3: NF policy drops (rx entries with no tx counterpart). Reads
  // linked to no upstream entry are noted for speculation (below).
  for (NodeId d = 0; d < graph_->node_count(); ++d) {
    if (graph_->kinds[d] != NodeKind::kNf || !has(d)) continue;
    const NodeAlignment& a = al[d];
    for (std::uint32_t i = aligner_.rx_begin(d); i < aligner_.rx_done(d); ++i) {
      if (a.tx_of_rx(i) == kNoEntry)
        candidates.push_back(
            {JourneySeed::Kind::kPolicyDrop, d, i, a.rx_ts(i)});
      if (mode == Mode::kCommit && !a.origin(i).valid())
        st_->orphans.push_back({d, i, a.rx_ts(i)});
    }
  }

  const std::size_t delivered = out.size();  // already in offline order
  // Drop seeds are settled when their records are; they become final once
  // the records their walk reads back from are (the terminal time less
  // the propagation delay for a queue drop is its upstream tx time).
  for (const JourneySeed& s : candidates) {
    const TimeNs records_at = s.kind == JourneySeed::Kind::kQueueDrop
                                  ? s.time - opts_.prop_delay
                                  : s.time;
    if (records_at < final_before) {
      out.push_back(s);
    } else {
      st_->pending.push_back(s);
    }
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(delivered), out.end());
  return out;
}

std::vector<JourneySeed> ReconstructedTrace::in_flight_seeds(
    const NodeTraces& recs, const std::vector<TxRef>& drops) {
  // A window's diagnosis reads journeys through timeline arrivals before
  // the settle frontier E (its victims' and their PreSets'); a journey
  // with such an arrival but no final terminal yet belongs to a packet in
  // flight at E. Those are found by chasing each packet forward from its
  // first record — a source entry sent before E, or a read no upstream
  // entry links to — through the (partly speculative) alignment to its
  // terminal. Drop terminals are few and all taken.
  const std::vector<NodeAlignment>& al = aligner_.alignments();
  const std::size_t n = graph_->node_count();
  const TimeNs frontier = st_->settled;
  const TimeNs lost_before = frontier - st_->margin;
  std::vector<JourneySeed> out = st_->pending;
  for (const TxRef& r : drops) {
    const NodeAlignment& a = al[r.node];
    if (a.has_tx(r.idx))
      out.push_back({JourneySeed::Kind::kQueueDrop, r.node, r.idx,
                     a.tx_ts(r.idx) + opts_.prop_delay});
  }
  for (NodeId d = 0; d < n; ++d) {
    if (graph_->kinds[d] != NodeKind::kNf || d >= recs.size() || !recs[d])
      continue;
    const NodeAlignment& a = al[d];
    for (std::uint32_t i = aligner_.rx_begin(d); i < aligner_.rx_done(d); ++i)
      if (a.tx_of_rx(i) == kNoEntry)
        out.push_back({JourneySeed::Kind::kPolicyDrop, d, i, a.rx_ts(i)});
  }

  // Follow tx entry e of node u downstream to a delivered terminal.
  const auto chase = [&](NodeId u, std::uint32_t e) {
    for (std::size_t hops = 0; hops < n; ++hops) {
      const NodeAlignment& a = al[u];
      if (!a.has_tx(e) || u >= recs.size() || !recs[u]) return;
      const collector::NodeTrace& t = *recs[u];
      const std::uint32_t b = a.tx_batch_of[e - a.tx_base];
      if (b == kNoEntry || b < t.tx_batch_base || b >= t.tx_batch_end())
        return;
      const NodeId peer = t.tx_batch(b).peer;
      if (peer == graph_->sink) {
        if (graph_->kinds[u] == NodeKind::kNf)
          out.push_back({JourneySeed::Kind::kDelivered, u, e,
                         t.tx_batch(b).ts});
        return;
      }
      const std::uint32_t j = a.tx_read_by[e - a.tx_base];
      if (j == kNoEntry || peer >= n || !al[peer].has_rx(j)) return;
      e = al[peer].tx_of_rx(j);
      if (e == kNoEntry) return;  // a policy drop: taken above
      u = peer;
    }
  };
  const auto jid_of_tx = [&](NodeId u, std::uint32_t e) {
    const NodeMarks& m = st_->marks[u];
    return m.has_tx(e) ? m.jid_of_tx[e - m.tx_base] : kNoJourney;
  };

  for (NodeId u = 0; u < n; ++u) {
    if (!graph_->is_source(u) || u >= recs.size() || !recs[u]) continue;
    const NodeAlignment& a = al[u];
    // Entries already in a journey, or older than the frontier by more
    // than any in-flight time, need no chase now or later.
    std::uint32_t& c = st_->chase_next[u];
    c = std::max(c, a.tx_base);
    while (c < a.tx_end() &&
           (jid_of_tx(u, c) != kNoJourney || a.tx_ts(c) < lost_before))
      ++c;
    for (std::uint32_t e = c;
         e < a.tx_end() && a.tx_ts(e) + opts_.prop_delay < frontier; ++e)
      if (jid_of_tx(u, e) == kNoJourney) chase(u, e);
  }
  std::erase_if(st_->orphans, [&](const State::Orphan& o) {
    return o.read < lost_before || journey_of_rx(o.node, o.rx) != kNoJourney;
  });
  for (const State::Orphan& o : st_->orphans) {
    if (o.read >= frontier) continue;
    const std::uint32_t e = al[o.node].has_rx(o.rx)
                                ? al[o.node].tx_of_rx(o.rx)
                                : kNoEntry;
    if (e != kNoEntry) chase(o.node, e);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ReconstructedTrace::build_journeys(
    const NodeTraces& recs, const std::vector<JourneySeed>& seeds) {
  const std::vector<NodeAlignment>& al = aligner_.alignments();
  ThreadPool* pool = st_->pool.get();
  const auto live_tx = [&](NodeId node, std::uint32_t idx) {
    return node < recs.size() && recs[node] && al[node].has_tx(idx) &&
           idx >= recs[node]->tx_base;
  };

  // Walk a packet backward from a starting point to its source, filling
  // hops in reverse. Reads only the (immutable) alignments; writes only
  // this journey and the marks of its own chain. `down` is the node the
  // start tx entry was sent to. Records evicted from under the walk
  // truncate it.
  auto walk_back = [&](NodeId start_node, std::uint32_t start_tx,
                       std::uint32_t start_rx, NodeId down, Journey& j,
                       std::uint32_t jid) -> void {
    NodeId cur = start_node;
    std::uint32_t cur_tx = start_tx;
    std::uint32_t cur_rx = start_rx;
    bool complete = false;
    while (true) {
      if (graph_->is_source(cur)) {
        if (!live_tx(cur, cur_tx)) break;
        const collector::NodeTrace& st = *recs[cur];
        j.source = cur;
        j.source_idx = cur_tx;
        j.source_time = al[cur].tx_ts(cur_tx);
        if (const FiveTuple* f = st.tx_flow(cur_tx)) j.flow = *f;
        j.ipid = st.tx_ipid(cur_tx);
        mark_tx(cur, cur_tx, down, jid);
        complete = true;
        break;
      }
      const NodeAlignment& a = al[cur];
      std::uint32_t rx = cur_rx;
      if (rx == kNoEntry && cur_tx != kNoEntry && a.has_tx(cur_tx))
        rx = a.rx_of_tx(cur_tx);
      if (rx == kNoEntry || !a.has_rx(rx)) break;  // alignment gap: truncate

      Hop hop;
      hop.node = cur;
      hop.rx_idx = rx;
      hop.tx_idx = cur_tx;
      hop.read = a.rx_ts(rx);
      hop.depart = cur_tx != kNoEntry ? a.tx_ts(cur_tx) : kTimeNever;
      if (cur_tx != kNoEntry) mark_tx(cur, cur_tx, down, jid);
      NodeMarks& m = st_->marks[cur];
      if (m.has_rx(rx)) m.jid_of_rx[rx - m.rx_base] = jid;

      const TxRef origin = a.origin(rx);
      const bool linked = origin.valid() && al[origin.node].has_tx(origin.idx);
      hop.arrival = linked ? al[origin.node].tx_ts(origin.idx) +
                                 opts_.prop_delay
                           : hop.read;
      j.hops.push_back(hop);

      if (!linked) break;  // truncated
      down = cur;
      cur = origin.node;
      cur_tx = origin.idx;
      cur_rx = kNoEntry;
    }
    if (!complete && j.fate != Fate::kDroppedPolicy) j.fate = Fate::kTruncated;
    std::reverse(j.hops.begin(), j.hops.end());
  };

  // Build journeys_[jid0 + i] from batch[i] across the pool. Every walk
  // touches a chain of rx/tx entries that no other seed's chain shares
  // (alignment maps are injective), so the walks are race-free and
  // order-independent.
  auto run_walks = [&](const JourneySeed* batch, std::size_t count) {
    const std::uint32_t jid0 = journey_end();
    journeys_.resize(journeys_.size() + count);
    seeds_.insert(seeds_.end(), batch, batch + count);
    parallel_for_over(
        pool, count,
        [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) {
            const JourneySeed& s = batch[i];
            const auto jid = static_cast<std::uint32_t>(jid0 + i);
            Journey& j = journeys_[jid - journey_base_];
            const collector::NodeTrace& t = *recs[s.node];
            switch (s.kind) {
              case JourneySeed::Kind::kDelivered: {
                j.fate = Fate::kDelivered;
                j.end_node = s.node;
                const FiveTuple* edge = t.tx_flow(s.idx);
                if (edge) j.edge_flow = *edge;
                j.ipid = t.tx_ipid(s.idx);
                walk_back(s.node, s.idx, kNoEntry, graph_->sink, j, jid);
                if (!j.complete() && edge) j.flow = j.edge_flow;
                break;
              }
              case JourneySeed::Kind::kQueueDrop: {
                const NodeAlignment& a = al[s.node];
                j.fate = Fate::kDroppedQueue;
                j.end_node =
                    t.tx_batch(a.tx_batch_of[s.idx - a.tx_base]).peer;
                j.ipid = t.tx_ipid(s.idx);
                walk_back(s.node, s.idx, kNoEntry, j.end_node, j, jid);
                if (j.fate == Fate::kTruncated) j.fate = Fate::kDroppedQueue;
                // Pseudo-hop at the dropping node: it arrived but was
                // never read.
                Hop drop_hop;
                drop_hop.node = j.end_node;
                drop_hop.arrival = s.time;
                drop_hop.read = kTimeNever;
                drop_hop.depart = kTimeNever;
                j.hops.push_back(drop_hop);
                break;
              }
              case JourneySeed::Kind::kPolicyDrop:
                j.fate = Fate::kDroppedPolicy;
                j.end_node = s.node;
                j.ipid = t.rx_ipid(s.idx);
                walk_back(s.node, kNoEntry, s.idx, kInvalidNode, j, jid);
                break;
            }
          }
        },
        chunk_grain(opts_.parallel, count));
  };

  // Terminals 1 and 2 first; policy drops are enumerated after their
  // walks, so the "not already part of a journey" guard sees their final
  // marks, exactly as in the sequential interleaving.
  const auto policy = std::find_if(seeds.begin(), seeds.end(), [](const auto& s) {
    return s.kind == JourneySeed::Kind::kPolicyDrop;
  });
  run_walks(seeds.data(), static_cast<std::size_t>(policy - seeds.begin()));
  std::vector<JourneySeed> t3;
  for (auto it = policy; it != seeds.end(); ++it)
    if (journey_of_rx(it->node, it->idx) == kNoJourney) t3.push_back(*it);
  run_walks(t3.data(), t3.size());
}

void ReconstructedTrace::unmark(std::uint32_t jid) {
  const Journey& j = journey(jid);
  // Forward over the chain: each tx entry's arrival lives at the next
  // hop's node.
  NodeId prev = j.source;
  std::uint32_t prev_tx = j.source_idx;
  for (const Hop& h : j.hops) {
    if (prev != kInvalidNode && prev_tx != kNoEntry)
      mark_tx(prev, prev_tx, h.node, kNoJourney);
    if (h.rx_idx != kNoEntry) {
      NodeMarks& m = st_->marks[h.node];
      if (m.has_rx(h.rx_idx)) m.jid_of_rx[h.rx_idx - m.rx_base] = kNoJourney;
    }
    prev = h.node;
    prev_tx = h.tx_idx;
  }
  if (prev != kInvalidNode && prev_tx != kNoEntry)
    mark_tx(prev, prev_tx, kInvalidNode, kNoJourney);
}

void ReconstructedTrace::rollback() {
  if (!st_->speculating) return;
  st_->speculating = false;
  for (std::uint32_t id = st_->spec_first; id < journey_end(); ++id) unmark(id);
  aligner_.rollback();
  journeys_.resize(st_->spec_first - journey_base_);
  seeds_.resize(journeys_.size());
}

void ReconstructedTrace::evict_before(TimeNs horizon) {
  obs::ScopedTimer total_timer(
      obs::Registry::global().histogram("trace.reconstruct.total_ns"));
  rollback();
  aligner_.evict_before(horizon);
  // Mark lanes follow the alignment lanes' bases.
  for (NodeId id = 0; id < graph_->node_count(); ++id) {
    const NodeAlignment& a = aligner_.alignments()[id];
    NodeMarks& m = st_->marks[id];
    if (a.rx_base > m.rx_base) {
      erase_front(m.jid_of_rx, a.rx_base - m.rx_base);
      m.rx_base = a.rx_base;
    }
    if (a.tx_base > m.tx_base) {
      erase_front(m.jid_of_tx, a.tx_base - m.tx_base);
      erase_front(m.arrival_at, a.tx_base - m.tx_base);
      m.tx_base = a.tx_base;
    }
  }
  std::erase_if(st_->orphans, [&](const State::Orphan& o) {
    return o.read < horizon;
  });
  std::uint32_t& cut = st_->journey_cut;
  cut = std::max(cut, journey_base_);
  while (cut < journey_end() && seed(cut).time < horizon) ++cut;
  if (cut - journey_base_ > journey_end() - cut) compact(horizon);
}

void ReconstructedTrace::compact(TimeNs horizon) {
  // Journeys, and the timeline entries that can refer to them, go
  // together: a surviving arrival never names an erased journey.
  const std::uint32_t cut = st_->journey_cut;
  erase_front(journeys_, cut - journey_base_);
  erase_front(seeds_, cut - journey_base_);
  journey_base_ = cut;
  for (NodeId d = 0; d < graph_->node_count(); ++d) {
    NodeTimeline& tl = timelines_[d];
    NodeCursors& c = st_->cursors[d];
    const std::size_t dead_arr = tl.first_arrival_after(horizon - 1);
    erase_front(tl.arrivals, dead_arr);
    c.arrivals_base += static_cast<std::uint32_t>(dead_arr);
    for (Arrival& a : tl.arrivals)
      if (a.journey != kNoJourney && a.journey < journey_base_)
        a.journey = kNoJourney;
    std::size_t dead_reads = 0;
    while (dead_reads < tl.reads.size() && tl.reads[dead_reads].ts < horizon)
      ++dead_reads;
    if (dead_reads > 0) {
      const std::uint64_t gone = tl.reads_cum[dead_reads - 1];
      erase_front(tl.reads, dead_reads);
      erase_front(tl.reads_cum, dead_reads);
      for (std::uint64_t& v : tl.reads_cum) v -= gone;
    }
  }
}

ReconstructedTrace reconstruct(const collector::Collector& col,
                               const GraphView& graph,
                               const ReconstructOptions& opts) {
  ReconstructedTrace rt(graph, opts);
  rt.grow(node_traces(col, graph.node_count()), kTimeNever, kTimeNever,
          ReconstructedTrace::Mode::kFinal);
  return rt;
}

}  // namespace microscope::trace
