#include "trace/align.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>
#include <vector>

#include "common/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/tracing.hpp"

// The alignment passes here are the per-record hot path of the whole
// pipeline, so they run on structure-of-arrays data: per-entry timestamp
// and IPID lanes are expanded once (prepare pass) and every per-link
// packet stream is one set of contiguous {entry, ts, ipid} arrays. Real
// traces average barely more than one entry per batch record, so the
// prepare pass is written for that regime: expansion branches to plain
// stores for one-entry batches, and a node that sends to a single peer
// whose batches tile its entry range exactly (the canonical collector
// layout) gets a zero-copy stream view — identity entry map, lanes
// aliasing the node's expanded tx arrays — instead of a materialized
// copy. On top of that layout two data-parallel fast paths run behind the
// common/simd.hpp dispatch:
//
//  * a 16-lane zip block that consumes a run of head-of-line matches
//    against the stream of the previous match in one step (IPID equality
//    and both timing bounds as branchless lane compares), guarded by
//    "no other live stream's head IPID occurs in the block" (and, for the
//    internal pass, "no other head can expire inside the block") so no
//    candidate, tie-break, or stat could have differed from the scalar
//    walk. Attempts are run-gated: interleaved traffic can never zip, so
//    a failed attempt backs off until the same stream has matched a few
//    entries in a row again (a pure cost heuristic — whether a zip is
//    *attempted* never changes what is matched);
//  * a head-register path that keeps every stream's head IPID/timestamp in
//    fixed 16-lane arrays and finds candidate streams with one vector
//    compare instead of a per-stream loop.
//
// Both are byte-identical to the scalar reference by construction: the
// guards make the fast path bail to the reference logic whenever any
// deviation were possible, candidate lanes are visited in ascending stream
// order (std::countr_zero) so tie-breaks resolve identically, and the
// drop-inference scan uses a sorted-window search only when the stream's
// timestamps are nondecreasing (chaos traces with regressions take the
// exact replica of the original scan). The ablation modes (use_timing /
// use_order off) and nodes with more than 16 live streams always take the
// reference path. tests/test_parallel.cpp asserts scalar-vs-SIMD
// byte-identity end to end; the CI feature matrix runs the full suite both
// ways.
//
// Streams, lanes and cursors persist across extend() calls, and each call
// walks only the rx entries settled since the previous one. Indices are
// absolute (see NodeTrace::rx_base); the per-pass cursors below work on
// pointers rebased to the cursor position at the start of the pass, so
// the hot loops are unchanged by eviction.
namespace microscope::trace {
namespace {

using collector::BatchRecord;
using collector::NodeTrace;

/// After a zip block fails (or the active stream changes), require this
/// many consecutive same-stream matches before attempting another block.
/// Purely a cost knob: it only decides when the (always-guarded) zip is
/// tried, never what matches.
constexpr std::uint32_t kZipMinRun = 4;

/// One outgoing packet stream of a (tx node, peer) pair: tx entry index,
/// tx batch timestamp, and IPID per packet, in FIFO order, addressed by
/// stream position. The link pass (run by the downstream node) and the
/// internal pass (run by the owner) each walk it through their own cursor,
/// so the per-node shards cannot race.
///
/// An identity stream — the only stream of a node whose batches tile its
/// entry range exactly — stores nothing: position k is tx entry k and the
/// ts/ipid lanes are NodeAlignment::tx_entry_ts / NodeTrace::tx_ipids.
/// Otherwise positions [base, n) live in the *_store lanes.
struct TxStream {
  NodeId up{kInvalidNode};    // tx-side owner
  NodeId peer{kInvalidNode};  // destination the entries were sent to
  bool identity{true};
  bool sorted{true};  // ts nondecreasing over every position so far
  TimeNs last_ts{std::numeric_limits<TimeNs>::min()};
  std::uint32_t n{0};
  std::uint32_t base{0};
  std::vector<std::uint32_t> entries_store;
  std::vector<TimeNs> ts_store;
  std::vector<std::uint16_t> ipids_store;
  std::uint32_t link_head{0};
  std::uint32_t int_head{0};
  // Committed cursor values, restored by Aligner::rollback().
  std::uint32_t link_head0{0};
  std::uint32_t int_head0{0};

  std::uint32_t entry(std::uint32_t p) const {
    return identity ? p : entries_store[p - base];
  }
  TimeNs ts_at(std::uint32_t p, const NodeAlignment& a) const {
    return identity ? a.tx_ts(p) : ts_store[p - base];
  }
};

/// Flat per-pass cursor over one stream: the lane pointers, sizes, and
/// consumption head in one cache line, so the hot loops never chase a
/// TxStream* indirection. Positions are relative to the stream position
/// the cursor started at. `drop_flags` / `read_by` point at the upstream's
/// tx_dropped_downstream / tx_read_by lanes, indexed by entry - lane_base
/// (link pass only).
struct Ref {
  const std::uint16_t* ipids{nullptr};
  const TimeNs* ts{nullptr};
  const std::uint32_t* entries{nullptr};  // nullptr: identity from entry0
  std::uint8_t* drop_flags{nullptr};
  std::uint32_t* read_by{nullptr};
  std::uint32_t lane_base{0};
  std::uint32_t entry0{0};
  std::uint32_t head{0};
  std::uint32_t size{0};
  NodeId up{kInvalidNode};
  std::uint8_t sorted{1};

  bool exhausted() const { return head >= size; }
  std::uint32_t entry_at(std::uint32_t k) const {
    return entries ? entries[k] : entry0 + k;
  }
  std::uint32_t head_entry() const { return entry_at(head); }
};

Ref make_ref(const TxStream& s, std::uint32_t from, const NodeAlignment& ua,
             const NodeTrace& ut) {
  Ref r;
  if (s.identity) {
    r.ipids = ut.tx_ipids.data() + (from - ut.tx_base);
    r.ts = ua.tx_entry_ts.data() + (from - ua.tx_base);
    r.entry0 = from;
  } else {
    r.ipids = s.ipids_store.data() + (from - s.base);
    r.ts = s.ts_store.data() + (from - s.base);
    r.entries = s.entries_store.data() + (from - s.base);
  }
  r.size = s.n - from;
  r.up = s.up;
  r.sorted = s.sorted ? 1 : 0;
  return r;
}

/// Fixed-width register of every stream's head-of-line IPID and timestamp,
/// padded to simd::kLanes so the mask kernels read whole vectors.
/// Exhausted lanes carry ts = kTimeNever (rejected by every timing bound)
/// and are cleared from `live`; lanes beyond the stream count stay dead.
struct Heads {
  alignas(32) std::uint16_t ipid[simd::kLanes];
  alignas(32) TimeNs ts[simd::kLanes];
  std::uint32_t live{0};

  void init(const Ref* refs, std::size_t count) {
    std::fill_n(ipid, simd::kLanes, std::uint16_t{0});
    std::fill_n(ts, simd::kLanes, kTimeNever);
    live = 0;
    for (std::size_t s = 0; s < count; ++s) refresh(refs, s);
  }
  void refresh(const Ref* refs, std::size_t s) {
    const Ref& r = refs[s];
    if (r.head >= r.size) {
      ts[s] = kTimeNever;
      live &= ~(1u << s);
    } else {
      ipid[s] = r.ipids[r.head];
      ts[s] = r.ts[r.head];
      live |= 1u << s;
    }
  }
};

/// Owned, erasable copy of a stream for the no-order ablation (matching
/// without the FIFO discipline consumes entries from the middle).
struct OwnedLanes {
  NodeId up{kInvalidNode};
  Ref src;
  std::vector<std::uint32_t> entries;
  std::vector<TimeNs> ts;
  std::vector<std::uint16_t> ipids;
};

OwnedLanes materialize(const Ref& r) {
  OwnedLanes o;
  o.up = r.up;
  o.src = r;
  o.entries.resize(r.size);
  for (std::uint32_t k = 0; k < r.size; ++k) o.entries[k] = r.entry_at(k);
  o.ts.assign(r.ts, r.ts + r.size);
  o.ipids.assign(r.ipids, r.ipids + r.size);
  return o;
}

/// Advance batch cursor `b` (absolute; recs[0] is batch `batch_base`)
/// past every batch recorded at or before `visible`, growing `entry_end`
/// to cover their entries. `all_entries` is the trace's entry end, taken
/// whole when everything is visible.
void scan_visible(const BatchRecord* recs, std::uint32_t batch_base,
                  std::uint32_t batch_end, std::uint32_t all_entries,
                  TimeNs visible, std::uint32_t& b, std::uint32_t& entry_end) {
  if (visible == kTimeNever) {
    b = batch_end;
    entry_end = std::max(entry_end, all_entries);
    return;
  }
  for (; b < batch_end && recs[b - batch_base].ts <= visible; ++b) {
    const BatchRecord& r = recs[b - batch_base];
    entry_end = std::max(entry_end, r.begin + r.count);
  }
}

/// Drop the first `count` elements of a lane.
template <typename T>
void erase_front(std::vector<T>& v, std::size_t count) {
  v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(count));
}

}  // namespace

NodeTraces node_traces(const collector::Collector& col,
                       std::size_t node_count) {
  NodeTraces out(node_count, nullptr);
  for (NodeId id = 0; id < node_count; ++id)
    if (col.has_node(id)) out[id] = &col.node(id);
  return out;
}

/// Per-node cursors and streams, persistent across calls.
struct NodeCursor {
  bool started{false};       // cursors adopted the records' front
  std::uint32_t rx_seen{0};  // absolute rx batches expanded
  std::uint32_t tx_seen{0};  // absolute tx batches expanded
  std::uint32_t tx_next{0};  // entry a canonical next tx batch begins at
  bool canonical{true};
  bool rx_sorted{true};  // rx timestamps nondecreasing so far
  TimeNs rx_last{std::numeric_limits<TimeNs>::min()};
  std::uint32_t rx_done{0};  // rx entries aligned for good
  std::uint32_t rx_from{0};  // the last call's rx range
  std::uint32_t rx_to{0};
  std::uint32_t rx_cut{0};  // eviction: first rx entry still live
  std::uint32_t tx_cut{0};  // eviction: first tx entry still live
  std::vector<TxStream> streams;  // outgoing, first-appearance order
  std::vector<TxRef> drops;       // flagged by the last call
  AlignStats stats;               // the last call's
};

struct Aligner::State {
  std::vector<NodeCursor> nodes;
  bool speculating{false};
};

Aligner::Aligner(std::shared_ptr<const GraphView> graph, AlignOptions opts)
    : graph_(std::move(graph)),
      opts_(opts),
      out_(graph_->node_count()),
      st_(std::make_unique<State>()) {
  st_->nodes.resize(graph_->node_count());
}

Aligner::~Aligner() = default;
Aligner::Aligner(Aligner&&) noexcept = default;
Aligner& Aligner::operator=(Aligner&&) noexcept = default;

std::uint32_t Aligner::rx_begin(NodeId d) const { return st_->nodes[d].rx_from; }
std::uint32_t Aligner::rx_done(NodeId d) const { return st_->nodes[d].rx_to; }

std::vector<TxRef> Aligner::new_drops() const {
  std::vector<TxRef> out;
  for (const NodeCursor& c : st_->nodes)
    out.insert(out.end(), c.drops.begin(), c.drops.end());
  return out;
}

void Aligner::extend(const NodeTraces& recs, TimeNs settle, TimeNs visible,
                     ThreadPool* pool, const ParallelOptions& par) {
  rollback();
  run(recs, settle, visible, false, pool, par);
}

void Aligner::speculate(const NodeTraces& recs, TimeNs until,
                        ThreadPool* pool, const ParallelOptions& par) {
  rollback();
  for (NodeCursor& c : st_->nodes) {
    for (TxStream& s : c.streams) {
      s.link_head0 = s.link_head;
      s.int_head0 = s.int_head;
    }
  }
  st_->speculating = true;
  // Everything visible is aligned: until + 1 settles entries read at
  // `until` itself.
  run(recs, until == kTimeNever ? until : until + 1, until, true, pool, par);
}

void Aligner::rollback() {
  if (!st_->speculating) return;
  st_->speculating = false;
  for (NodeId id = 0; id < st_->nodes.size(); ++id) {
    NodeCursor& c = st_->nodes[id];
    c.drops.clear();
    NodeAlignment& a = out_[id];
    for (std::uint32_t j = c.rx_done; j < c.rx_to; ++j) {
      a.rx_origin[j - a.rx_base] = TxRef{};
      a.rx_to_tx[j - a.rx_base] = kNoEntry;
    }
    c.rx_from = c.rx_to = c.rx_done;
    for (TxStream& s : c.streams) {
      for (std::uint32_t p = s.link_head0; p < s.link_head; ++p) {
        const std::uint32_t e = s.entry(p) - a.tx_base;
        a.tx_dropped_downstream[e] = 0;
        a.tx_read_by[e] = kNoEntry;
      }
      for (std::uint32_t p = s.int_head0; p < s.int_head; ++p)
        a.tx_to_rx[s.entry(p) - a.tx_base] = kNoEntry;
      s.link_head = s.link_head0;
      s.int_head = s.int_head0;
    }
  }
}

void Aligner::run(const NodeTraces& recs, TimeNs settle, TimeNs visible,
                  bool spec, ThreadPool* pool, const ParallelOptions& par) {
  obs::TraceSpan span("trace", "align");
  const std::size_t n = graph_->node_count();
  span.set_items(n);
  const AlignOptions& opts = opts_;
  std::vector<NodeCursor>& cur_of = st_->nodes;
  const auto has = [&](NodeId id) {
    return id < recs.size() && recs[id] != nullptr;
  };

  // Pass 0: expand records written at or before `visible` into the
  // entry->batch maps, SoA timestamp lanes, and outgoing streams; pick the
  // rx range this call aligns.
  auto pass0 = [&](NodeId id) {
    NodeCursor& c = cur_of[id];
    c.drops.clear();
    c.stats = AlignStats{};
    c.rx_from = c.rx_to = c.rx_done;
    if (graph_->kinds[id] == NodeKind::kSink || !has(id)) return;
    const NodeTrace& t = *recs[id];
    NodeAlignment& a = out_[id];
    // A node's first records need not have index 0 (a streaming store
    // numbers from its last renumbering): start every cursor there.
    if (!c.started) {
      c.started = true;
      a.rx_base = c.rx_done = c.rx_from = c.rx_to = c.rx_cut = t.rx_base;
      a.tx_base = c.tx_next = c.tx_cut = t.tx_base;
      c.rx_seen = t.rx_batch_base;
      c.tx_seen = t.tx_batch_base;
    }

    // rx side.
    {
      const BatchRecord* brec = t.rx_batches.data();
      const std::uint32_t bbase = t.rx_batch_base;
      const std::uint32_t rx_base = a.rx_base;
      std::uint32_t b = c.rx_seen;
      std::uint32_t new_end = a.rx_end();
      scan_visible(brec, bbase, t.rx_batch_end(),
                   t.rx_base + static_cast<std::uint32_t>(t.rx_ipids.size()),
                   visible, b, new_end);
      const std::size_t sz = new_end - rx_base;
      a.rx_batch_of.resize(sz, kNoEntry);
      a.rx_entry_ts.resize(sz, 0);
      a.rx_origin.resize(sz, TxRef{});
      a.rx_to_tx.resize(sz, kNoEntry);
      std::uint32_t* bo = a.rx_batch_of.data();
      TimeNs* ets = a.rx_entry_ts.data();
      bool sorted = c.rx_sorted;
      TimeNs prev = c.rx_last;
      for (std::uint32_t k = c.rx_seen; k < b; ++k) {
        const BatchRecord& r = brec[k - bbase];
        const TimeNs ts = r.ts;
        sorted &= ts >= prev;
        prev = ts;
        const std::uint32_t at = r.begin - rx_base;
        if (r.count == 1) {  // the overwhelmingly common case on real traces
          bo[at] = k;
          ets[at] = ts;
        } else {
          for (std::uint32_t i = 0; i < r.count; ++i) {
            bo[at + i] = k;
            ets[at + i] = ts;
          }
        }
      }
      c.rx_sorted = sorted;
      c.rx_last = prev;
      c.rx_seen = b;
    }

    // tx side: lanes plus streams keyed by peer in first-appearance order
    // (the order the internal pass discovers destinations in).
    {
      const BatchRecord* brec = t.tx_batches.data();
      const std::uint32_t bbase = t.tx_batch_base;
      const std::uint32_t tx_base = a.tx_base;
      std::uint32_t b = c.tx_seen;
      std::uint32_t new_end = a.tx_end();
      scan_visible(brec, bbase, t.tx_batch_end(),
                   t.tx_base + static_cast<std::uint32_t>(t.tx_ipids.size()),
                   visible, b, new_end);
      const std::uint32_t b0 = c.tx_seen;
      if (b == b0) return;
      const std::size_t sz = new_end - a.tx_base;
      a.tx_batch_of.resize(sz, kNoEntry);
      a.tx_entry_ts.resize(sz, 0);
      a.tx_to_rx.resize(sz, kNoEntry);
      a.tx_dropped_downstream.resize(sz, 0);
      a.tx_read_by.resize(sz, kNoEntry);
      std::uint32_t* bo = a.tx_batch_of.data();
      TimeNs* ets = a.tx_entry_ts.data();

      // Peer ids normally index the graph, but a trace may name peers
      // outside it (e.g. an egress the graph does not model); a linear
      // search over the handful of streams covers both.
      std::uint32_t tx_next = c.tx_next;
      bool canonical = c.canonical;
      std::size_t last = 0;
      auto slot_of = [&](NodeId peer) -> std::size_t {
        if (last < c.streams.size() && c.streams[last].peer == peer)
          return last;
        for (std::size_t i = 0; i < c.streams.size(); ++i)
          if (c.streams[i].peer == peer) return last = i;
        TxStream& s = c.streams.emplace_back();
        s.up = id;
        s.peer = peer;
        // Only a node's first stream can be an identity view.
        s.identity = c.streams.size() == 1 && canonical;
        if (s.identity) {
          s.n = s.link_head = s.int_head = s.link_head0 = s.int_head0 =
              tx_next;
        }
        return last = c.streams.size() - 1;
      };

      // Scan 1: entry lanes, stream discovery, per-stream counts, and the
      // canonical layout check.
      std::vector<std::uint32_t> added(c.streams.size(), 0);
      bool sorted = true;
      TimeNs prev = c.streams.empty() ? std::numeric_limits<TimeNs>::min()
                                      : c.streams.front().last_ts;
      for (std::uint32_t k = b0; k < b; ++k) {
        const BatchRecord& r = brec[k - bbase];
        const TimeNs ts = r.ts;
        if (r.count != 0) {
          const std::uint32_t at = r.begin - tx_base;
          bo[at] = k;
          ets[at] = ts;
          for (std::uint32_t i = 1; i < r.count; ++i) {
            bo[at + i] = k;
            ets[at + i] = ts;
          }
        }
        sorted &= ts >= prev;
        prev = ts;
        const std::size_t sl = slot_of(r.peer);
        if (sl >= added.size()) added.resize(sl + 1, 0);
        added[sl] += r.count;
        canonical &= r.begin == tx_next && c.streams.size() == 1;
        tx_next = r.begin + r.count;
      }
      c.canonical = canonical;
      c.tx_next = tx_next;

      // The canonical single-peer layout: the identity view just grows.
      if (canonical) {
        TxStream& s = c.streams.front();
        s.sorted &= sorted;
        s.last_ts = prev;
        s.n = tx_next;
        c.tx_seen = b;
        return;
      }

      // An identity stream that stopped being one (a second peer or a gap
      // in the layout) materializes its live positions once.
      TxStream& first = c.streams.front();
      if (first.identity && !canonical) {
        const std::uint32_t lo = std::min(first.link_head, first.int_head);
        first.identity = false;
        first.base = lo;
        for (std::uint32_t p = lo; p < first.n; ++p) {
          first.entries_store.push_back(p);
          first.ts_store.push_back(a.tx_ts(p));
          first.ipids_store.push_back(t.tx_ipid(p));
        }
      }

      // Scan 2: append positions to each stream. Raw write cursors per
      // stream keep the inner loop at three stores for the dominant
      // one-entry batches.
      struct Fill {
        std::uint32_t* e;
        TimeNs* ts;
        std::uint16_t* id;
      };
      std::vector<Fill> fills(c.streams.size());
      for (std::size_t i = 0; i < c.streams.size(); ++i) {
        TxStream& s = c.streams[i];
        if (s.identity) continue;
        const std::size_t at = s.entries_store.size();
        s.entries_store.resize(at + added[i]);
        s.ts_store.resize(at + added[i]);
        s.ipids_store.resize(at + added[i]);
        fills[i] = Fill{s.entries_store.data() + at, s.ts_store.data() + at,
                        s.ipids_store.data() + at};
        s.n += added[i];
      }
      const std::uint16_t* ipids = t.tx_ipids.data();
      const std::uint32_t ipid_base = t.tx_base;
      last = 0;
      for (std::uint32_t k = b0; k < b; ++k) {
        const BatchRecord& r = brec[k - bbase];
        const std::size_t sl = slot_of(r.peer);
        TxStream& s = c.streams[sl];
        if (r.ts < s.last_ts) s.sorted = false;
        s.last_ts = r.ts;
        if (s.identity) {
          s.n = r.begin + r.count;
          continue;
        }
        Fill& f = fills[sl];
        const std::uint32_t at = r.begin - ipid_base;
        if (r.count == 1) {
          *f.e++ = r.begin;
          *f.ts++ = r.ts;
          *f.id++ = ipids[at];
        } else {
          for (std::uint32_t i = 0; i < r.count; ++i) {
            *f.e++ = r.begin + i;
            *f.ts++ = r.ts;
            *f.id++ = ipids[at + i];
          }
        }
      }
      c.tx_seen = b;
    }
  };

  // The rx entries of d this call aligns: from the committed cursor up to
  // the first entry read at or after `settle`.
  auto pick_range = [&](NodeId d) {
    NodeCursor& c = cur_of[d];
    const NodeAlignment& a = out_[d];
    std::uint32_t j = c.rx_done;
    const std::uint32_t end = a.rx_end();
    while (j < end && a.rx_ts(j) < settle) ++j;
    c.rx_to = j;
  };

  // Pass 1: link alignment (downstream rx entries <- upstream tx streams).
  // Writes land only on out[d], on d's cursor over each upstream stream
  // headed to d, and on out[u] tx lane elements of those streams — owned
  // by this node, so per-node sharding is race-free.
  auto pass1 = [&](NodeId d) {
    if (graph_->kinds[d] != NodeKind::kNf || !has(d)) return;
    NodeCursor& dc = cur_of[d];
    pick_range(d);
    AlignStats& local = dc.stats;
    const NodeTrace& dt = *recs[d];
    NodeAlignment& da = out_[d];

    const std::uint32_t j0 = dc.rx_from;
    const std::uint32_t n_rx = dc.rx_to - j0;
    const std::uint16_t* rx_ipid = dt.rx_ipids.data() + (j0 - dt.rx_base);
    const TimeNs* rx_ts = da.rx_entry_ts.data() + (j0 - da.rx_base);
    TxRef* origin = da.rx_origin.data() + (j0 - da.rx_base);

    // Cursors over the upstream streams headed here, in graph order. An
    // upstream that never sent to d contributes no stream — an empty
    // stream can never be a candidate, so skipping it is equivalent.
    std::vector<Ref> cur;
    std::vector<TxStream*> owners;
    for (NodeId u : graph_->upstreams[d]) {
      if (!has(u)) continue;
      for (TxStream& s : cur_of[u].streams) {
        if (s.peer != d) continue;
        Ref r = make_ref(s, s.link_head, out_[u], *recs[u]);
        r.drop_flags = out_[u].tx_dropped_downstream.data();
        r.read_by = out_[u].tx_read_by.data();
        r.lane_base = out_[u].tx_base;
        cur.push_back(r);
        owners.push_back(&s);
      }
    }
    Ref* refs = cur.data();
    const std::size_t S = cur.size();

    auto consume = [&](Ref& st, std::uint32_t k, std::uint32_t j) {
      const std::uint32_t e = st.entry_at(k);
      origin[j] = TxRef{st.up, e};
      st.read_by[e - st.lane_base] = j0 + j;
    };
    auto flag_drop = [&](Ref& st, std::uint32_t k) {
      const std::uint32_t e = st.entry_at(k);
      st.drop_flags[e - st.lane_base] = 1;
      dc.drops.push_back(TxRef{st.up, e});
      ++local.queue_drops_inferred;
    };

    // The no-order ablation consumes entries from the middle of a stream,
    // so it runs on private erasable copies; everything below it shares
    // none of the fast-path machinery.
    if (!opts.use_order) {
      std::vector<OwnedLanes> own;
      for (const Ref& r : cur) own.push_back(materialize(r));
      for (std::uint32_t j = 0; j < n_rx; ++j) {
        const std::uint16_t ipid = rx_ipid[j];
        const TimeNs read_ts = rx_ts[j];
        int best = -1;
        TimeNs best_ts = kTimeNever;
        std::size_t best_pos = 0;
        int candidates = 0;
        for (std::size_t s = 0; s < own.size(); ++s) {
          const OwnedLanes& o = own[s];
          for (std::size_t k = 0; k < o.entries.size(); ++k) {
            if (o.ipids[k] != ipid) continue;
            const TimeNs tx_ts = o.ts[k];
            if (opts.use_timing) {
              if (tx_ts > read_ts + opts.slack) continue;
              if (read_ts - tx_ts > opts.max_link_delay) continue;
            }
            ++candidates;
            if (tx_ts < best_ts ||
                (tx_ts == best_ts && best >= 0 &&
                 o.up < own[static_cast<std::size_t>(best)].up)) {
              best = static_cast<int>(s);
              best_ts = tx_ts;
              best_pos = k;
            }
            break;  // first unconsumed match per stream
          }
        }
        if (best >= 0) {
          // Without the order discipline we cannot infer drops from
          // skips; just consume the matched entry.
          OwnedLanes& o = own[static_cast<std::size_t>(best)];
          if (candidates > 1) ++local.link_ambiguous;
          const std::uint32_t e = o.entries[best_pos];
          origin[j] = TxRef{o.up, e};
          o.src.read_by[e - o.src.lane_base] = j0 + j;
          const auto at = static_cast<std::ptrdiff_t>(best_pos);
          o.entries.erase(o.entries.begin() + at);
          o.ts.erase(o.ts.begin() + at);
          o.ipids.erase(o.ipids.begin() + at);
          ++local.link_matched;
        } else {
          ++local.link_unmatched;
        }
      }
      // Remaining unconsumed upstream entries: dropped if their deadline
      // has passed relative to the node's last read.
      const TimeNs last_read =
          dt.rx_batches.empty() ? 0 : dt.rx_batches.back().ts;
      for (const OwnedLanes& o : own) {
        for (std::size_t k = 0; k < o.entries.size(); ++k) {
          if (last_read - o.ts[k] > opts.max_link_delay) {
            const std::uint32_t e = o.entries[k];
            o.src.drop_flags[e - o.src.lane_base] = 1;
            dc.drops.push_back(TxRef{o.up, e});
            ++local.queue_drops_inferred;
          }
        }
      }
      for (TxStream* s : owners) s->link_head = s->n;
      return;
    }

    // No head-of-line candidate for entry j: per-link FIFO means that if
    // this rx entry matches a *later* entry of some stream, every entry
    // the match skips over was dropped at this node's input queue (it
    // entered the queue earlier yet was never read). Scan ahead within the
    // time bound and take the match with the fewest skips. On a sorted
    // stream the original forward scan — skip entries older than the link
    // delay, stop at the first entry beyond read_ts + slack — is exactly
    // the first IPID hit inside a binary-searched window; streams with
    // timestamp regressions take the literal scan. Returns the matched
    // stream index, or S.
    auto scan_ahead = [&](std::uint32_t j, std::uint16_t ipid,
                          TimeNs read_ts) -> std::size_t {
      std::size_t best_stream = S;
      std::size_t best_pos = 0;
      std::size_t best_skips = static_cast<std::size_t>(-1);
      for (std::size_t s = 0; s < S; ++s) {
        const Ref& st = refs[s];
        const std::size_t sz = st.size;
        std::size_t k;
        if (st.sorted) {
          const TimeNs* tsd = st.ts;
          const std::size_t lo = static_cast<std::size_t>(
              std::lower_bound(tsd + st.head, tsd + sz,
                               read_ts - opts.max_link_delay) -
              tsd);
          const std::size_t hi = static_cast<std::size_t>(
              std::upper_bound(tsd + lo, tsd + sz, read_ts + opts.slack) -
              tsd);
          k = simd::find_first_equal(st.ipids, lo, hi, ipid);
          if (k >= hi) continue;
        } else {
          k = sz;
          for (std::size_t i = st.head; i < sz; ++i) {
            const TimeNs tx_ts = st.ts[i];
            if (tx_ts > read_ts + opts.slack) break;  // not yet arrived
            if (read_ts - tx_ts > opts.max_link_delay) continue;
            if (st.ipids[i] != ipid) continue;
            k = i;
            break;  // first in-window match per stream is the FIFO-legal one
          }
          if (k >= sz) continue;
        }
        const std::size_t skips = k - st.head;
        if (skips < best_skips) {
          best_skips = skips;
          best_stream = s;
          best_pos = k;
        }
      }
      if (best_stream < S) {
        Ref& st = refs[best_stream];
        for (std::size_t k = st.head; k < best_pos; ++k)
          flag_drop(st, static_cast<std::uint32_t>(k));
        consume(st, static_cast<std::uint32_t>(best_pos), j);
        st.head = static_cast<std::uint32_t>(best_pos) + 1;
        ++local.link_matched;
        ++local.link_ambiguous;  // resolved beyond head-of-line
      } else {
        ++local.link_unmatched;
      }
      return best_stream;
    };

    const bool fast = opts.use_timing && S >= 1 && S <= simd::kLanes;

    if (fast) {
      Heads h;
      h.init(refs, S);
      std::size_t active = 0;  // stream of the last match: run heuristic
      std::uint32_t run = kZipMinRun;  // allow an attempt at stream start
      std::uint32_t j = 0;
      while (j < n_rx) {
        // Zip block: 16 consecutive rx entries that are all head-of-line
        // matches of the active stream. No other live stream's head IPID
        // occurs in the block, so no other candidate (and no ambiguity)
        // was possible at any of the 16 entries; exhausted lanes cannot
        // be candidates at all.
        if (run >= kZipMinRun) {
          Ref& ac = refs[active];
          if (j + simd::kLanes <= n_rx &&
              ac.head + simd::kLanes <= ac.size &&
              simd::match_block(rx_ipid + j, ac.ipids + ac.head, rx_ts + j,
                                ac.ts + ac.head, opts.max_link_delay,
                                opts.slack)) {
            bool clean = true;
            std::uint32_t others = h.live & ~(1u << active);
            while (others) {
              const unsigned o = std::countr_zero(others);
              others &= others - 1;
              if (simd::match_mask(rx_ipid + j, h.ipid[o]) != 0) {
                clean = false;
                break;
              }
            }
            if (clean) {
              for (std::uint32_t k = 0; k < simd::kLanes; ++k)
                consume(ac, ac.head + k, j + k);
              ac.head += simd::kLanes;
              h.refresh(refs, active);
              local.link_matched += simd::kLanes;
              j += simd::kLanes;
              continue;
            }
          }
          run = 1;  // impossible or failed: back off until a fresh run
        }
        // Head-register path: one vector compare finds every stream whose
        // head-of-line IPID matches; timing and tie-breaks then run over
        // the (few) candidate lanes in ascending stream order, exactly as
        // the scalar reference would.
        const std::uint16_t ipid = rx_ipid[j];
        const TimeNs read_ts = rx_ts[j];
        std::uint32_t m = simd::match_mask(h.ipid, ipid) & h.live;
        int best = -1;
        TimeNs best_ts = kTimeNever;
        int candidates = 0;
        while (m) {
          const unsigned s = std::countr_zero(m);
          m &= m - 1;
          const TimeNs tx_ts = h.ts[s];
          if (tx_ts > read_ts + opts.slack) continue;
          if (read_ts - tx_ts > opts.max_link_delay) continue;
          ++candidates;
          if (tx_ts < best_ts ||
              (tx_ts == best_ts && best >= 0 &&
               refs[s].up < refs[static_cast<std::size_t>(best)].up)) {
            best = static_cast<int>(s);
            best_ts = tx_ts;
          }
        }
        if (best >= 0) {
          if (candidates > 1) ++local.link_ambiguous;
          Ref& st = refs[static_cast<std::size_t>(best)];
          consume(st, st.head, j);
          ++st.head;
          h.refresh(refs, static_cast<std::size_t>(best));
          ++local.link_matched;
          run = (static_cast<std::size_t>(best) == active) ? run + 1 : 1;
          active = static_cast<std::size_t>(best);
          ++j;
          continue;
        }
        const std::size_t hit = scan_ahead(j, ipid, read_ts);
        if (hit < S) {
          h.refresh(refs, hit);
          active = hit;
          run = 1;
        }
        ++j;
      }
    } else {
      // Scalar reference: the no-timing ablation, more streams than head
      // lanes, or no streams at all.
      for (std::uint32_t j = 0; j < n_rx; ++j) {
        const std::uint16_t ipid = rx_ipid[j];
        const TimeNs read_ts = rx_ts[j];

        // Candidate upstreams: head-of-line entries with the right IPID
        // inside the delay bound (side channels 1-3). The ablation knob
        // disables the timing bound (side channel 2).
        int best = -1;
        TimeNs best_ts = kTimeNever;
        int candidates = 0;
        for (std::size_t s = 0; s < S; ++s) {
          const Ref& st = refs[s];
          if (st.exhausted()) continue;
          if (st.ipids[st.head] != ipid) continue;
          const TimeNs tx_ts = st.ts[st.head];
          if (opts.use_timing) {
            if (tx_ts > read_ts + opts.slack) continue;
            if (read_ts - tx_ts > opts.max_link_delay) continue;
          }
          ++candidates;
          if (tx_ts < best_ts ||
              (tx_ts == best_ts && best >= 0 &&
               st.up < refs[static_cast<std::size_t>(best)].up)) {
            best = static_cast<int>(s);
            best_ts = tx_ts;
          }
        }
        if (best >= 0) {
          if (candidates > 1) ++local.link_ambiguous;
          Ref& st = refs[static_cast<std::size_t>(best)];
          consume(st, st.head, j);
          ++st.head;
          ++local.link_matched;
          continue;
        }
        if (!opts.use_timing) {
          // Drop inference below needs both FIFO order and timing bounds.
          ++local.link_unmatched;
          continue;
        }
        scan_ahead(j, ipid, read_ts);
      }
    }
    for (std::size_t s = 0; s < S; ++s) owners[s]->link_head += refs[s].head;
  };

  // Pass 2: internal alignment (rx entries -> this node's tx streams).
  auto pass2 = [&](NodeId d) {
    if (graph_->kinds[d] != NodeKind::kNf || !has(d)) return;
    NodeCursor& dc = cur_of[d];
    AlignStats& local = dc.stats;
    const NodeTrace& dt = *recs[d];
    NodeAlignment& da = out_[d];

    // Output streams keyed by destination in first-appearance order, each
    // walked through the internal cursor.
    std::vector<Ref> cur;
    cur.reserve(dc.streams.size());
    for (const TxStream& s : dc.streams)
      cur.push_back(make_ref(s, s.int_head, da, dt));
    Ref* refs = cur.data();

    const std::uint32_t i0 = dc.rx_from;
    const std::uint32_t n_rx = dc.rx_to - i0;
    const std::uint16_t* rx_ipid = dt.rx_ipids.data() + (i0 - dt.rx_base);
    const TimeNs* rx_ts = da.rx_entry_ts.data() + (i0 - da.rx_base);
    std::uint32_t* rx_to_tx = da.rx_to_tx.data() + (i0 - da.rx_base);
    std::uint32_t* tx_to_rx = da.tx_to_rx.data();
    const std::uint32_t tx_base = da.tx_base;
    const std::size_t S = cur.size();

    auto apply_match = [&](std::uint32_t i, std::size_t s) {
      Ref& st = refs[s];
      const std::uint32_t e = st.head_entry();
      rx_to_tx[i] = e;
      tx_to_rx[e - tx_base] = i0 + i;
      ++st.head;
      ++local.internal_matched;
    };

    // Expired head entries (tx earlier than any remaining read can
    // explain) are permanently unclaimable: per-node reads are
    // time-ordered, so read_ts only grows. They occur when the tx entry's
    // rx record is missing — a partial trace (e.g. an evicted stream
    // prefix) or a lost record — and leaving one at the head would wedge
    // the whole output stream into policy drops.
    auto advance_expired = [&](std::size_t s, TimeNs read_ts) {
      Ref& st = refs[s];
      while (st.head < st.size && st.ts[st.head] + opts.slack < read_ts) {
        ++st.head;
        ++local.internal_expired;
      }
    };

    if (S >= 1 && S <= simd::kLanes) {
      Heads h;
      h.init(refs, S);
      // The zip block needs monotone read timestamps (its no-expiry guard
      // is evaluated at the block's last read time).
      const bool zip_ok = dc.rx_sorted;
      std::size_t active = 0;
      std::uint32_t run = kZipMinRun;
      std::uint32_t i = 0;
      while (i < n_rx) {
        // Zip block: 16 consecutive rx entries that are all head-of-line
        // matches of the active stream, with no other live stream's head
        // IPID in the block (no other candidate possible) and no other
        // head expiring inside it (no expiry advance or stat possible).
        if (zip_ok && run >= kZipMinRun) {
          Ref& ac = refs[active];
          if (i + simd::kLanes <= n_rx &&
              ac.head + simd::kLanes <= ac.size &&
              simd::match_block(rx_ipid + i, ac.ipids + ac.head, rx_ts + i,
                                ac.ts + ac.head, opts.slack,
                                opts.max_nf_delay)) {
            const TimeNs block_last_read = rx_ts[i + simd::kLanes - 1];
            bool clean =
                (simd::mask_less(h.ts, block_last_read - opts.slack) &
                 h.live & ~(1u << active)) == 0;
            if (clean) {
              std::uint32_t others = h.live & ~(1u << active);
              while (others) {
                const unsigned o = std::countr_zero(others);
                others &= others - 1;
                if (simd::match_mask(rx_ipid + i, h.ipid[o]) != 0) {
                  clean = false;
                  break;
                }
              }
            }
            if (clean) {
              for (std::uint32_t k = 0; k < simd::kLanes; ++k) {
                const std::uint32_t e = ac.entry_at(ac.head + k);
                rx_to_tx[i + k] = e;
                tx_to_rx[e - tx_base] = i0 + i + k;
              }
              ac.head += simd::kLanes;
              h.refresh(refs, active);
              local.internal_matched += simd::kLanes;
              i += simd::kLanes;
              continue;
            }
          }
          run = 1;
        }
        // Head-register path.
        const std::uint16_t ipid = rx_ipid[i];
        const TimeNs read_ts = rx_ts[i];
        std::uint32_t em =
            simd::mask_less(h.ts, read_ts - opts.slack) & h.live;
        while (em) {
          const unsigned s = std::countr_zero(em);
          em &= em - 1;
          advance_expired(s, read_ts);
          h.refresh(refs, s);
        }
        std::uint32_t m = simd::match_mask(h.ipid, ipid) & h.live;
        int best = -1;
        TimeNs best_ts = kTimeNever;
        int candidates = 0;
        while (m) {
          const unsigned s = std::countr_zero(m);
          m &= m - 1;
          const TimeNs tx_ts = h.ts[s];
          if (tx_ts - read_ts > opts.max_nf_delay) continue;
          ++candidates;
          if (tx_ts < best_ts) {
            best = static_cast<int>(s);
            best_ts = tx_ts;
          }
        }
        if (best >= 0) {
          if (candidates > 1) ++local.internal_ambiguous;
          apply_match(i, static_cast<std::size_t>(best));
          h.refresh(refs, static_cast<std::size_t>(best));
          run = (static_cast<std::size_t>(best) == active) ? run + 1 : 1;
          active = static_cast<std::size_t>(best);
        } else {
          // The NF consumed the packet without emitting it: policy drop.
          ++local.policy_drops_inferred;
        }
        ++i;
      }
    } else {
      // Scalar reference (no streams, or more streams than head lanes).
      for (std::uint32_t i = 0; i < n_rx; ++i) {
        const std::uint16_t ipid = rx_ipid[i];
        const TimeNs read_ts = rx_ts[i];
        int best = -1;
        TimeNs best_ts = kTimeNever;
        int candidates = 0;
        for (std::size_t s = 0; s < S; ++s) {
          advance_expired(s, read_ts);
          const Ref& st = refs[s];
          if (st.exhausted()) continue;
          if (st.ipids[st.head] != ipid) continue;
          const TimeNs tx_ts = st.ts[st.head];
          if (tx_ts - read_ts > opts.max_nf_delay) continue;
          ++candidates;
          if (tx_ts < best_ts) {
            best = static_cast<int>(s);
            best_ts = tx_ts;
          }
        }
        if (best >= 0) {
          if (candidates > 1) ++local.internal_ambiguous;
          apply_match(i, static_cast<std::size_t>(best));
        } else {
          // The NF consumed the packet without emitting it: policy drop.
          ++local.policy_drops_inferred;
        }
      }
    }
    for (std::size_t s = 0; s < S; ++s) dc.streams[s].int_head += refs[s].head;
    if (!spec) dc.rx_done = dc.rx_to;
  };

  // Pass barriers: pass 1 reads pass 0's stream arrays and timestamp
  // lanes of upstream nodes; pass 2 walks streams pass 1 also read (both
  // through private cursors).
  obs::Registry& reg = obs::Registry::global();
  const std::size_t grain = chunk_grain(par, n);
  auto over_nodes = [&](auto&& body) {
    parallel_for_over(pool, n,
                      [&](std::size_t b, std::size_t e) {
                        for (std::size_t id = b; id < e; ++id)
                          body(static_cast<NodeId>(id));
                      },
                      grain);
  };
  {
    obs::ScopedTimer t(reg.histogram("trace.align.prepare_ns"));
    over_nodes(pass0);
  }
  {
    obs::ScopedTimer t(reg.histogram("trace.align.link_pass_ns"));
    over_nodes(pass1);
  }
  {
    obs::ScopedTimer t(reg.histogram("trace.align.internal_pass_ns"));
    over_nodes(pass2);
  }

  if (spec) return;  // speculative work is redone for good later
  AlignStats total;
  for (const NodeCursor& c : cur_of) total += c.stats;
  stats_ += total;
  // Registry mirror of AlignStats: link_ambiguous doubles as the
  // IPID-collision resolution count (matches that needed the order/time
  // side channels to disambiguate).
  reg.counter("trace.align.link_matched").add(total.link_matched);
  reg.counter("trace.align.link_ambiguous").add(total.link_ambiguous);
  reg.counter("trace.align.link_unmatched").add(total.link_unmatched);
  reg.counter("trace.align.queue_drops_inferred")
      .add(total.queue_drops_inferred);
  reg.counter("trace.align.internal_matched").add(total.internal_matched);
  reg.counter("trace.align.internal_ambiguous").add(total.internal_ambiguous);
  reg.counter("trace.align.internal_expired").add(total.internal_expired);
  reg.counter("trace.align.policy_drops_inferred")
      .add(total.policy_drops_inferred);
}

void Aligner::finish(const NodeTraces& recs) {
  rollback();
  std::uint64_t flagged = 0;
  for (NodeId d = 0; d < graph_->node_count(); ++d) {
    NodeCursor& dc = st_->nodes[d];
    dc.drops.clear();
    if (graph_->kinds[d] != NodeKind::kNf || d >= recs.size() || !recs[d])
      continue;
    // Remaining unconsumed upstream entries: dropped if their deadline has
    // passed relative to the node's last read (otherwise still in flight).
    const NodeTrace& dt = *recs[d];
    const TimeNs last_read =
        dt.rx_batches.empty() ? 0 : dt.rx_batches.back().ts;
    for (NodeId u : graph_->upstreams[d]) {
      if (u >= recs.size() || !recs[u]) continue;
      NodeAlignment& ua = out_[u];
      for (TxStream& s : st_->nodes[u].streams) {
        if (s.peer != d) continue;
        for (; s.link_head < s.n; ++s.link_head) {
          if (last_read - s.ts_at(s.link_head, ua) > opts_.max_link_delay) {
            const std::uint32_t e = s.entry(s.link_head);
            ua.tx_dropped_downstream[e - ua.tx_base] = 1;
            dc.drops.push_back(TxRef{u, e});
            ++flagged;
          }
        }
      }
    }
  }
  stats_.queue_drops_inferred += flagged;
  obs::Registry::global()
      .counter("trace.align.queue_drops_inferred")
      .add(flagged);
}

void Aligner::evict_before(TimeNs horizon) {
  rollback();
  for (NodeId id = 0; id < st_->nodes.size(); ++id) {
    NodeCursor& c = st_->nodes[id];
    NodeAlignment& a = out_[id];
    c.drops.clear();
    while (c.rx_cut < c.rx_done && a.rx_ts(c.rx_cut) < horizon) ++c.rx_cut;
    while (c.tx_cut < a.tx_end() && a.tx_ts(c.tx_cut) < horizon) ++c.tx_cut;
    for (TxStream& s : c.streams) {
      auto past_cut = [&](std::uint32_t& head) {
        if (s.identity) {
          head = std::max(head, std::min(c.tx_cut, s.n));
        } else {
          while (head < s.n && s.entry(head) < c.tx_cut) ++head;
        }
      };
      past_cut(s.link_head);
      past_cut(s.int_head);
      s.link_head0 = s.link_head;
      s.int_head0 = s.int_head;
      if (!s.identity) {
        const std::uint32_t lo = std::min(s.link_head, s.int_head);
        if (lo - s.base > s.n - lo) {
          erase_front(s.entries_store, lo - s.base);
          erase_front(s.ts_store, lo - s.base);
          erase_front(s.ipids_store, lo - s.base);
          s.base = lo;
        }
      }
    }
    if (c.rx_cut - a.rx_base > a.rx_end() - c.rx_cut) {
      const std::size_t k = c.rx_cut - a.rx_base;
      erase_front(a.rx_origin, k);
      erase_front(a.rx_to_tx, k);
      erase_front(a.rx_batch_of, k);
      erase_front(a.rx_entry_ts, k);
      a.rx_base = c.rx_cut;
    }
    // Identity streams read the tx lanes from their cursors on.
    std::uint32_t tx_lo = c.tx_cut;
    for (const TxStream& s : c.streams)
      if (s.identity) tx_lo = std::min({tx_lo, s.link_head, s.int_head});
    if (tx_lo - a.tx_base > a.tx_end() - tx_lo) {
      const std::size_t k = tx_lo - a.tx_base;
      erase_front(a.tx_to_rx, k);
      erase_front(a.tx_dropped_downstream, k);
      erase_front(a.tx_read_by, k);
      erase_front(a.tx_batch_of, k);
      erase_front(a.tx_entry_ts, k);
      a.tx_base = tx_lo;
    }
  }
}

std::vector<NodeAlignment> align_all(const collector::Collector& col,
                                     const GraphView& graph,
                                     const AlignOptions& opts,
                                     AlignStats* stats, ThreadPool* pool,
                                     const ParallelOptions& par) {
  Aligner al(std::make_shared<const GraphView>(graph), opts);
  const NodeTraces recs = node_traces(col, graph.node_count());
  al.extend(recs, kTimeNever, kTimeNever, pool, par);
  al.finish(recs);
  if (stats) *stats = al.stats();
  return al.alignments();
}

}  // namespace microscope::trace
