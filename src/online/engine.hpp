// Streaming diagnosis engine (online mode).
//
// Incrementally ingests collector record streams — direct hook calls, raw
// wire bytes, or an external-drain RingCollector — segments them into fixed
// time windows, and when a window closes (watermark coverage, see
// window.hpp) grows one persistent reconstruction by the records the
// window settled and diagnoses exactly as the offline pipeline would: one
// StreamStore, one ReconstructedTrace, one WindowManager, one ingestion
// thread.
//
// Per window close (DESIGN.md §7): the reconstruction settles every record
// read before the window end (alignment, timelines, and every journey that
// can no longer change), provisionally aligns the tail up to end + slack
// and walks the packets in flight at the window end, diagnoses the victims
// anchored in the window, and rolls the provisional work back. Each close
// therefore aligns and walks only the records it newly settles plus that
// tail, whatever the history.
//
// Equivalence guarantee: for every closed window, the emitted diagnoses are
// byte-identical to running the offline Diagnoser over the full trace with
// the same options and keeping the victims anchored inside that window
// (modulo victim.journey, a reconstruction-instance-local id), in the same
// order. This holds for any window size, drain chunk size, and thread
// count, provided
//   slack   >= max in-flight time of a packet (queueing + propagation —
//              this also bounds the delivery tail past a victim anchor), and
//   history >= diagnosis lookback (max_depth recursions x max_lookback
//              plus propagation and journey length) plus slack,
// because then every record either side's diagnosis of those victims can
// touch is settled identically, and every analysis stage below is
// deterministic with canonical tie-breaking.
//
// Memory is bounded: records and reconstruction state are evicted as soon
// as the last window that may need them closes, so the retained span never
// exceeds history + window + 2*slack (plus the not-yet-closed tail of the
// stream, and reconstruction state awaiting an amortized compaction).
//
// Record, batch and journey indices are 32-bit and keep growing with the
// stream. When fewer than kIndexHeadroom remain, a window close renumbers
// the retained records and rebuilds the reconstruction from them — one
// close that costs what every close cost before the reconstruction
// persisted — so the engine runs indefinitely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "collector/ring.hpp"
#include "collector/wire.hpp"
#include "core/diagnosis.hpp"
#include "core/provenance.hpp"
#include "online/aggregator.hpp"
#include "online/stream_store.hpp"
#include "online/window.hpp"
#include "trace/graph.hpp"
#include "trace/reconstruct.hpp"

namespace microscope::obs {
class IntrospectionHub;
}

namespace microscope::online {

/// Diagnoser options tuned for streaming: the offline default anchors a
/// latency victim at the first hop whose local latency is abnormal vs the
/// *whole-trace* per-hop statistics — a global quantity no online engine
/// can know. Disabling the stddev test (k = inf) anchors at the journey's
/// max-latency hop, a pure per-journey function, which makes per-window
/// output independent of what else is in the trace. Use the same options
/// offline when comparing.
core::DiagnoserOptions streaming_diagnoser_defaults();

struct OnlineOptions {
  /// Window core length.
  DurationNs window_ns = 10_ms;
  /// Watermark slack past a window's end before it may close (covers
  /// propagation + queueing of packets anchored inside the core).
  DurationNs slack_ns = 2_ms;
  /// Records older than window_start - history are evicted; 0 derives a
  /// bound from the diagnoser's recursion depth and period lookback.
  DurationNs history_ns = 0;
  /// Force-close a window when the global watermark runs this far past its
  /// due point while some node's stream is stalled. 0 = wait forever.
  DurationNs idle_timeout_ns = 0;
  /// Latency victims: delivered packets with e2e latency above this.
  DurationNs latency_threshold = 1_ms;
  bool diagnose_latency = true;
  bool diagnose_drops = false;
  /// Backpressure: when the store holds this many batches, further
  /// ingestion is dropped (and counted) instead of growing memory.
  /// 0 = unlimited.
  std::size_t max_retained_batches = 0;
  /// Record full attribution provenance per diagnosis into
  /// WindowResult::provenances (for invariant auditing — e.g. the chaos
  /// suite's conservation check). Capture rides the same diagnose_all
  /// pass as plain runs; it only adds the provenance records themselves.
  bool capture_provenance = false;
  core::DiagnoserOptions diagnoser = streaming_diagnoser_defaults();
  trace::ReconstructOptions reconstruct{};
  StreamingAggregatorOptions aggregator{};
  /// Node display names for the introspection hub's /explain renderings
  /// (missing entries fall back to "node<N>").
  std::vector<std::string> node_names{};
  /// Live introspection hub (obs/introspect.hpp). When set, every closed
  /// window is published as a /windows board note, and diagnosed windows
  /// additionally publish rendered --explain output (attribution tree +
  /// provenance JSON) for their top victims, so provenance is captured
  /// as with capture_provenance.
  std::shared_ptr<obs::IntrospectionHub> introspection{};
  /// Max victims rendered per window for /explain, ranked by descending
  /// total attribution score (/explain?top=k serves a prefix of these).
  std::size_t explain_top_max = 8;
  /// Wire decode validation for feed_bytes/drain_ring ingestion. Defaults
  /// to lenient raw decode with the timestamp check off (the ring is a
  /// trusted in-process stream); tailing a file from another process is
  /// where kStrict or a timestamp tolerance earns its keep. The framing is
  /// switched per-source via set_wire_framing (a v2 trace header does it).
  collector::DecodeOptions decode{};
};

/// Effective history horizon: the given history_ns, or (when 0) the
/// worst-case lookback of a recursive diagnosis anchored at the window
/// start — each of the max_depth levels can walk one queuing period
/// (<= max_lookback) plus a propagation hop, and the victim's own journey
/// spans at most slack back to its source record.
DurationNs derive_history(const OnlineOptions& opts);

/// One closed window's diagnosis output.
struct WindowResult {
  std::int64_t index{0};
  TimeNs start{0};
  TimeNs end{0};  // exclusive
  bool idle_forced{false};
  /// Journeys this close built or rebuilt: the ones it settled plus the
  /// provisional tail (0 when skipped empty).
  std::size_t journeys{0};
  /// Diagnoses of victims anchored in [start, end), in offline victim
  /// order. victim.journey is reconstruction-local bookkeeping.
  std::vector<core::Diagnosis> diagnoses;
  /// Parallel to `diagnoses` when OnlineOptions::capture_provenance is
  /// set or an introspection hub is attached; empty otherwise.
  std::vector<core::Provenance> provenances;
};

struct OnlineStats {
  std::uint64_t batches_ingested{0};
  std::uint64_t packets_ingested{0};
  /// Batches older than the newest closed window (only possible after a
  /// forced close or with out-of-order streams) — dropped, never diagnosed.
  std::uint64_t late_dropped_batches{0};
  /// Batches dropped by the max_retained_batches backpressure policy.
  std::uint64_t backpressure_dropped_batches{0};
  /// Producer-side ring overruns observed via RingCollector::dropped_records.
  std::uint64_t ring_dropped_records{0};
  /// Records rejected by wire decode validation (sum over the per-category
  /// counters in decode_stats()); only byte-fed ingestion can raise it.
  std::uint64_t wire_decode_dropped{0};
  std::uint64_t windows_closed{0};
  std::uint64_t windows_idle_forced{0};
  /// Closed windows whose slice held no records (no diagnosis run).
  std::uint64_t windows_skipped_empty{0};
  /// Times the retained records were renumbered and the reconstruction
  /// rebuilt because the 32-bit indices ran low.
  std::uint64_t index_renumbers{0};
  std::size_t retained_batches{0};
  std::size_t retained_bytes{0};
  DurationNs retained_span_ns{0};
};

class OnlineEngine {
 public:
  /// A window close renumbers once fewer indices than this remain below
  /// trace::kNoEntry — far more than one close's worth of records.
  static constexpr std::uint32_t kIndexHeadroom = 1u << 28;

  OnlineEngine(trace::GraphView graph, std::vector<RatePerNs> peak_rates,
               OnlineOptions opts = {});

  /// Declare a node before feeding its records (mirrors Collector).
  void register_node(NodeId id, bool full_flow);

  // --- ingestion (any mix; per-node streams must be time-ordered) -------
  void on_rx(NodeId id, TimeNs ts, std::span<const Packet> batch);
  void on_tx(NodeId id, NodeId peer, TimeNs ts,
             std::span<const Packet> batch);

  /// Feed raw wire-format bytes (chunk boundaries arbitrary; partial
  /// records are buffered). Bytes are validated per OnlineOptions::decode:
  /// lenient faults are counted (decode_stats()) and resynced past; strict
  /// faults throw collector::DecodeError.
  void feed_bytes(std::span<const std::byte> bytes);

  /// Select the wire framing for subsequent feed_bytes data (a v2 trace
  /// file header switches to kFramed). Only legal while no partial record
  /// is buffered (throws std::logic_error otherwise).
  void set_wire_framing(collector::WireFraming framing);

  /// Fault accounting of the byte-fed ingestion path.
  const collector::DecodeStats& decode_stats() const {
    return decoder_.stats();
  }

  /// Drain up to `max_bytes` from an external-drain RingCollector and
  /// ingest them; also snapshots the ring's producer-side drop counter
  /// into stats(). Returns bytes drained.
  std::size_t drain_ring(collector::RingCollector& ring,
                         std::size_t max_bytes = 1 << 16);

  // --- window lifecycle -------------------------------------------------
  /// Close and diagnose every window whose watermark coverage (or idle
  /// timeout) allows it. Cheap when nothing is closable.
  std::vector<WindowResult> poll();

  /// End of stream: finalizes the wire decoder (a buffered partial record
  /// becomes a truncated_tail fault), then closes every remaining window
  /// that could contain a victim, regardless of watermarks.
  std::vector<WindowResult> finish();

  /// Number records and journeys from `origin` instead of 0, now and
  /// after every renumbering: lets a test run the engine at the top of the
  /// 32-bit index range. Renumbers the retained records at once.
  void set_index_origin(std::uint32_t origin);

  /// Stats snapshot (retained_* recomputed at call time).
  OnlineStats stats() const;

  const StreamingAggregator& aggregator() const { return agg_; }
  const WindowManager& windows() const { return wm_; }
  /// Effective history (after derivation when options.history_ns == 0).
  DurationNs history_ns() const { return history_; }

 private:
  void ingest(collector::Direction dir, NodeId node, NodeId peer, TimeNs ts,
              std::span<const Packet> pkts);
  std::vector<WindowResult> close_ready(bool finishing);
  /// Settle the reconstruction through the window's end, reconstruct the
  /// slack tail provisionally, and diagnose the victims anchored inside
  /// `b` (skips the work when no record lies in its reach).
  WindowResult diagnose_window(const WindowBounds& b);
  /// Renumber the retained records from index_origin_ and start a fresh
  /// reconstruction over them.
  void renumber();
  /// Publish a closed window onto the introspection hub: a /windows board
  /// note always, plus rendered /explain entries when the window carries
  /// provenances. No-op without a hub. Called once per closed window —
  /// including skipped-empty ones, so the board has no gaps.
  void publish(const WindowResult& res) const;

  std::vector<RatePerNs> peak_rates_;
  OnlineOptions opts_;
  DurationNs history_;
  StreamStore store_;
  trace::ReconstructedTrace rt_;
  std::uint32_t index_origin_{0};
  /// Victims of settled journeys anchored past the window they settled
  /// in, waiting for their own window.
  std::vector<core::Victim> carried_;
  WindowManager wm_;
  StreamingAggregator agg_;
  collector::WireCallbackDecoder decoder_;
  OnlineStats stats_;
  /// Highest window index announced with a "window.open" trace instant.
  std::int64_t trace_opened_through_{-1};
};

}  // namespace microscope::online
