// Pipeline ledger: end-to-end and per-layer cost of the Microscope
// pipeline on fixed workloads (see BENCHMARK.json for why each).
//
//   ledger selftest
//       Check the ledger's own arithmetic (ledger_math.hpp) on synthetic
//       timelines; exit 1 on any mismatch.
//   ledger gen --workload W --seed N --dir D
//       Simulate the workload's scenarios (a few independent ones, seeded
//       from N) and write everything the measured process may read into
//       D/<k>/: the trace file, the injection log for the oracle, and the
//       sequential offline reference output, two scenarios at a time. Runs
//       in its own process so the simulator never counts toward peak RSS.
//   ledger run --workload W --dir D --seconds S --trace 0|1 [--spans F]
//       Repeat the workload's pipeline over every scenario for S seconds
//       (at least three repetitions untraced, two traced), check every
//       pass against the reference and print one JSON line. A repetition
//       starts only if it is expected to end within S. --trace 0 reports
//       end-to-end metrics; --trace 1 records a span around every pipeline
//       call on alternate repetitions and reports per-layer metrics derived
//       from those spans (plus the tracing overhead), writing the spans to
//       F.
//
// The measured process drives only public entry points —
// collector::load_trace, trace::reconstruct, core::Diagnoser,
// autofocus::flatten_diagnoses/aggregate_patterns, and an
// online::OnlineEngine fed by online::TraceFileTailer — and times the calls
// itself.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/simd.hpp"
#include "ledger_math.hpp"

using namespace microscope;

namespace {

// ------------------------------------------------------------ workloads --

struct Workload {
  const char* name;
  /// Tail a save_trace_stream file into one OnlineEngine (else offline).
  bool follow;
  /// Analysis pool threads on the offline path (0 = sequential).
  unsigned threads;
  /// Traffic per scenario; per-layer numbers compare only at this size.
  DurationNs traffic;
  /// Independent scenarios per run (scenario seeds derived from --seed),
  /// pooled so that one scenario's injection luck does not dominate.
  int scenarios;
};

constexpr Workload kWorkloads[] = {
    {"fig10_offline", false, 2, 500_ms, 6},
    {"fig10_follow", true, 0, 100_ms, 4},
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  throw std::invalid_argument("unknown workload: " + name);
}

eval::ExperimentConfig experiment_config(const Workload& w,
                                         std::uint64_t seed) {
  eval::ExperimentConfig cfg = bench::accuracy_config(seed);
  cfg.traffic.duration = w.traffic;
  return cfg;
}

constexpr DurationNs kThreshold = bench::kVictimLatencyThreshold;
/// Traffic of the short stream an offline workload's traced run tails to
/// probe the online layer it otherwise bypasses.
constexpr DurationNs kProbeTraffic = 40_ms;

/// Offline analysis options; the follow workload's reference uses the
/// engine's own defaults so online and offline are comparable.
struct Analysis {
  trace::ReconstructOptions reconstruct;
  core::DiagnoserOptions diagnoser;
};

online::OnlineOptions follow_options() {
  online::OnlineOptions o;
  o.latency_threshold = kThreshold;
  return o;
}

Analysis analysis_options(const Workload& w, const eval::ExperimentConfig& cfg,
                          unsigned threads) {
  Analysis a;
  if (w.follow) {
    const online::OnlineOptions o = follow_options();
    a.reconstruct = o.reconstruct;
    a.diagnoser = o.diagnoser;
  } else {
    a.reconstruct.prop_delay = cfg.topo.prop_delay;
  }
  a.reconstruct.parallel.num_threads = threads;
  a.diagnoser.parallel.num_threads = threads;
  return a;
}

/// The static facts an operator has without the trace: the DAG, the
/// calibrated peak rates and the NF catalog. Built from the topology
/// options alone; no traffic is simulated.
struct Statics {
  trace::GraphView graph;
  std::vector<RatePerNs> rates;
  autofocus::NfCatalog catalog;
};

Statics build_statics(const eval::ExperimentConfig& cfg) {
  sim::Simulator sim;
  eval::Fig10 net = eval::build_fig10(sim, nullptr, cfg.topo);
  return {trace::graph_view(*net.topo), net.topo->peak_rates(),
          eval::make_catalog(*net.topo)};
}

// --------------------------------------------------------- fingerprints --

struct Hasher {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }
  void put_flow(const FiveTuple& f) {
    put(f.src_ip);
    put(f.dst_ip);
    put(f.src_port);
    put(f.dst_port);
    put(f.proto);
  }
};

/// Identity of a victim, ignoring victim.journey (reconstruction-instance
/// local bookkeeping, normalised away exactly as tests/test_online.cpp
/// does).
std::uint64_t victim_key(const core::Victim& v) {
  Hasher h;
  h.put(v.node);
  h.put(v.time);
  h.put(v.kind);
  h.put(v.hop_latency);
  h.put(v.e2e_latency);
  h.put_flow(v.flow);
  return h.h;
}

/// Every field of a diagnosis (scores bit for bit), journey normalised.
std::uint64_t diagnosis_hash(const core::Diagnosis& d) {
  Hasher h;
  h.put(victim_key(d.victim));
  h.put(d.relations.size());
  for (const core::CausalRelation& r : d.relations) {
    h.put(r.culprit.node);
    h.put(r.culprit.kind);
    h.put(r.score);
    h.put(r.culprit_t0);
    h.put(r.culprit_t1);
    h.put(r.depth);
    h.put(r.flows.size());
    for (const core::FlowWeight& f : r.flows) {
      h.put_flow(f.flow);
      h.put(f.weight);
    }
  }
  return h.h;
}

// -------------------------------------------------------------- files --

std::string trace_path(const std::string& dir) { return dir + "/trace.bin"; }
std::string probe_path(const std::string& dir) { return dir + "/probe.bin"; }
std::string meta_path(const std::string& dir) { return dir + "/meta.txt"; }
std::string reference_path(const std::string& dir) {
  return dir + "/reference.txt";
}
std::string injections_path(const std::string& dir) {
  return dir + "/injections.txt";
}

using Meta = std::map<std::string, std::string>;

Meta read_meta(const std::string& dir) {
  std::ifstream in(meta_path(dir));
  if (!in) throw std::runtime_error("missing " + meta_path(dir));
  Meta m;
  std::string k, v;
  while (in >> k && std::getline(in >> std::ws, v)) m[k] = v;
  return m;
}

std::uint64_t meta_u64(const Meta& m, const std::string& k) {
  const auto it = m.find(k);
  if (it == m.end()) throw std::runtime_error("meta lacks " + k);
  return std::stoull(it->second);
}

struct RefVictim {
  std::uint64_t key{0};
  std::uint64_t hash{0};
  TimeNs time{0};
};

std::vector<RefVictim> read_reference(const std::string& dir) {
  std::ifstream in(reference_path(dir));
  if (!in) throw std::runtime_error("missing " + reference_path(dir));
  std::vector<RefVictim> out;
  RefVictim r;
  while (in >> r.key >> r.hash >> r.time) out.push_back(r);
  return out;
}

void write_injections(const nf::InjectionLog& log, const std::string& path) {
  std::ofstream out(path);
  for (const nf::Injection& i : log.all()) {
    out << static_cast<int>(i.type) << ' ' << i.target << ' ' << i.t0 << ' '
        << i.t1 << ' ' << (i.flow ? 1 : 0);
    if (i.flow)
      out << ' ' << i.flow->src_ip << ' ' << i.flow->dst_ip << ' '
          << i.flow->src_port << ' ' << i.flow->dst_port << ' '
          << static_cast<int>(i.flow->proto);
    out << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

nf::InjectionLog read_injections(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing " + path);
  nf::InjectionLog log;
  int type, has_flow;
  NodeId target;
  TimeNs t0, t1;
  while (in >> type >> target >> t0 >> t1 >> has_flow) {
    std::optional<FiveTuple> flow;
    if (has_flow) {
      FiveTuple f;
      unsigned proto;
      in >> f.src_ip >> f.dst_ip >> f.src_port >> f.dst_port >> proto;
      f.proto = static_cast<std::uint8_t>(proto);
      flow = f;
    }
    log.add(static_cast<nf::FaultType>(type), target, t0, t1, flow);
  }
  return log;
}

/// Records (rx + tx batches), rx packets and the data-time span of a
/// loaded trace.
struct TraceShape {
  std::uint64_t records{0};
  std::uint64_t rx_batches{0};
  std::uint64_t rx_packets{0};
  TimeNs first{0};
  TimeNs last{0};
};

TraceShape trace_shape(const collector::Collector& col) {
  TraceShape s;
  bool any = false;
  const auto see = [&](TimeNs t) {
    s.first = any ? std::min(s.first, t) : t;
    s.last = any ? std::max(s.last, t) : t;
    any = true;
  };
  for (NodeId id = 0; id < col.node_count(); ++id) {
    if (!col.has_node(id)) continue;
    const collector::NodeTrace& n = col.node(id);
    s.records += n.rx_batches.size() + n.tx_batches.size();
    s.rx_batches += n.rx_batches.size();
    s.rx_packets += n.rx_packet_count();
    if (!n.rx_batches.empty()) {
      see(n.rx_batches.front().ts);
      see(n.rx_batches.back().ts);
    }
    if (!n.tx_batches.empty()) {
      see(n.tx_batches.front().ts);
      see(n.tx_batches.back().ts);
    }
  }
  return s;
}

// ----------------------------------------------------------------- gen --

/// Scenario `k` of a run: its own directory and its own scenario seed
/// (distinct across runs for any k < kMaxScenarios).
constexpr std::uint64_t kMaxScenarios = 16;
std::string scenario_dir(const std::string& dir, int k) {
  return dir + "/" + std::to_string(k);
}

/// What one generated scenario holds, for the generator's summary line.
struct GenSummary {
  std::uint64_t records{0};
  std::uint64_t victims{0};
  std::int64_t traffic_ns{0};
};

GenSummary gen_scenario(const Workload& w, std::uint64_t seed,
                        const std::string& dir, bool with_probe) {
  std::filesystem::create_directories(dir);
  const eval::ExperimentConfig cfg = experiment_config(w, seed);
  {
    const eval::Experiment ex = eval::run_experiment(cfg);
    if (w.follow)
      collector::save_trace_stream(*ex.collector, trace_path(dir));
    else
      collector::save_trace(*ex.collector, trace_path(dir));
    write_injections(ex.injections, injections_path(dir));
  }  // the simulation is gone; the reference sees only the saved file

  const collector::Collector col = collector::load_trace(trace_path(dir));
  const Statics st = build_statics(cfg);
  const Analysis a = analysis_options(w, cfg, 0);
  const trace::ReconstructedTrace rt =
      trace::reconstruct(col, st.graph, a.reconstruct);
  const core::Diagnoser diag(rt, st.rates, a.diagnoser);
  const std::vector<core::Diagnosis> diags =
      diag.diagnose_all(diag.latency_victims_by_threshold(kThreshold));

  std::ofstream ref(reference_path(dir));
  for (const core::Diagnosis& d : diags)
    ref << victim_key(d.victim) << ' ' << diagnosis_hash(d) << ' '
        << d.victim.time << '\n';
  if (!ref) throw std::runtime_error("cannot write " + reference_path(dir));

  const TraceShape shape = trace_shape(col);
  std::ofstream meta(meta_path(dir));
  meta << "workload " << w.name << "\nseed " << seed
       << "\ntraffic_ns " << (shape.last - shape.first)
       << "\nrecords " << shape.records << "\nref_journeys "
       << rt.journeys().size() << '\n';
  if (with_probe && !w.follow) {
    // A short stream of the same scenario for the traced run's probe of
    // the online layer.
    eval::ExperimentConfig pcfg = cfg;
    pcfg.traffic.duration = kProbeTraffic;
    collector::save_trace_stream(*eval::run_experiment(pcfg).collector,
                                 probe_path(dir));
    const collector::Collector pcol = collector::load_trace(probe_path(dir));
    meta << "probe_records " << trace_shape(pcol).records
         << "\nprobe_journeys "
         << trace::reconstruct(pcol, st.graph, follow_options().reconstruct)
                .journeys()
                .size()
         << '\n';
  }
  if (!meta) throw std::runtime_error("cannot write " + meta_path(dir));
  return {shape.records, diags.size(), shape.last - shape.first};
}

int cmd_gen(const Workload& w, std::uint64_t seed, const std::string& dir) {
  // Scenarios are independent simulations: two at a time.
  std::vector<GenSummary> out(static_cast<std::size_t>(w.scenarios));
  std::atomic<int> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  const auto worker = [&] {
    for (int k; (k = next++) < w.scenarios;) {
      try {
        out[static_cast<std::size_t>(k)] = gen_scenario(
            w, seed * kMaxScenarios + static_cast<std::uint64_t>(k),
            scenario_dir(dir, k), k == 0);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        error = std::current_exception();
      }
    }
  };
  std::thread helper(worker);
  worker();
  helper.join();
  if (error) std::rethrow_exception(error);

  GenSummary total;
  for (const GenSummary& g : out) {
    total.records += g.records;
    total.victims += g.victims;
    total.traffic_ns += g.traffic_ns;
  }
  std::cout << "{\"scenarios\": " << w.scenarios
            << ", \"records\": " << total.records
            << ", \"victims\": " << total.victims << ", \"traffic_ms\": "
            << static_cast<double>(total.traffic_ns) / 1e6 << "}\n";
  return 0;
}

// ------------------------------------------------------------- measure --

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// In-memory span log of the traced repetitions; a no-op when off.
class Tracer {
 public:
  bool on{false};
  int run{0};
  std::vector<ledger::Span> spans;

  int open(const char* name, std::int64_t start) {
    if (!on) return -1;
    spans.push_back({name, start, start, -1, run, -1, 0});
    return static_cast<int>(spans.size()) - 1;
  }
  void close(int idx, std::int64_t end) {
    if (idx >= 0) spans[idx].end_ns = end;
  }
  void add(const char* name, std::int64_t start, std::int64_t end, int parent,
           std::int64_t window = -1, std::uint64_t items = 0) {
    if (on) spans.push_back({name, start, end, parent, run, window, items});
  }
};

/// Registry values the per-layer metrics difference across a stream pass
/// (a counter's value, or a histogram's sum).
struct RegistryProbe {
  std::map<std::string, double> v;

  static RegistryProbe take() {
    static const char* const kNames[] = {
        "collector.rx_batches",        "collector.tx_batches",
        "collector.rx_packets",        "trace.reconstruct.total_ns",
        "core.diagnose.total_ns",      "trace.align.link_matched",
        "trace.align.link_ambiguous",  "trace.align.link_unmatched",
        "trace.align.queue_drops_inferred"};
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    RegistryProbe p;
    for (const char* n : kNames) {
      const obs::MetricSnapshot* m = snap.find(n);
      p.v[n] = !m ? 0.0
               : m->kind == obs::MetricKind::kHistogram
                   ? static_cast<double>(m->hist.sum)
                   : m->value;
    }
    return p;
  }
  double since(const RegistryProbe& before, const std::string& n) const {
    return v.at(n) - before.v.at(n);
  }
};

double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

/// One scenario's inputs, as the measured process sees them.
struct Scenario {
  std::string dir;
  Meta meta;
  std::vector<RefVictim> ref;
  /// Heap-held: the oracle keeps a pointer to it across moves.
  std::unique_ptr<nf::InjectionLog> log;
  std::optional<eval::Oracle> oracle;
  std::int64_t traffic_ns{0};
  std::uint64_t records{0};
};

struct Context {
  const Workload* w{nullptr};
  Statics st;
  Analysis analysis;
  std::vector<Scenario> sc;
};

/// Outcome of one scenario within one repetition.
struct Pass {
  std::int64_t wall_ns{0};  // first record handed over .. last result
  /// Offline set-up; follow mode samples its set-up separately.
  double setup_s{0};
  std::vector<ledger::WindowCall> calls;  // per closed window
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> errors;
  std::uint64_t rank1_hits{0};
  std::uint64_t rank1_samples{0};
  /// Per-layer values (traced repetitions only).
  std::map<std::string, double> layer;
};

/// Compare a pass's diagnoses with the reference: a victim fails when its
/// diagnosis is missing, differs, or has no reference counterpart.
/// `all_fail` (nonzero drop counters) fails every
/// reference victim.
void grade(const Scenario& s, const std::vector<core::Diagnosis>& got,
           bool all_fail, Pass& p) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> a, b;
  for (const RefVictim& r : s.ref) a.emplace_back(r.key, r.hash);
  for (const core::Diagnosis& d : got)
    b.emplace_back(victim_key(d.victim), diagnosis_hash(d));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::size_t i = 0, j = 0, matched = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++matched, ++i, ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  std::uint64_t failed = std::max(a.size(), b.size()) - matched;
  if (all_fail) failed = a.size();
  failed = std::min<std::uint64_t>(failed, a.size());
  if (failed > 0)
    p.errors.push_back(std::to_string(failed) + " of " +
                       std::to_string(a.size()) +
                       " victims differ from the reference");
  p.attempted += a.size();
  p.failed += failed;
}

/// rank1_frac's counts: oracle-attributable victims, and those whose
/// rank-1 culprit is the injected cause.
void rank1(const Scenario& s, const std::vector<core::Diagnosis>& got,
           Pass& p) {
  for (const core::Diagnosis& d : got) {
    const auto exp = s.oracle->expected_for(d.victim.time);
    if (!exp) continue;
    ++p.rank1_samples;
    p.rank1_hits += eval::microscope_rank(d, *exp) == 1;
  }
}

void victim_layer(Pass& p, const std::vector<core::Diagnosis>& diags) {
  std::uint64_t rels = 0;
  for (const core::Diagnosis& d : diags) rels += d.relations.size();
  p.layer["core.victims"] = static_cast<double>(diags.size());
  p.layer["core.relations_per_victim"] =
      ratio(static_cast<double>(rels), static_cast<double>(diags.size()));
}

/// Share of a pass spent in the ledger's own glue (outside every timed
/// pipeline call).
void glue_layer(Pass& p, const Tracer& tr, int top) {
  if (top < 0) return;
  p.layer["ledger.self_frac"] =
      ratio(static_cast<double>(ledger::self_time(tr.spans, top)),
            static_cast<double>(tr.spans[top].duration()));
}

/// One pass of a save_trace_stream file through a fresh OnlineEngine at
/// its defaults, fed by one closed-loop TraceFileTailer: the next chunk
/// goes in as soon as the engine has accepted (and polled) the previous
/// one.
struct Stream {
  std::vector<online::WindowResult> windows;
  std::vector<ledger::WindowCall> calls;    // per closed window
  std::vector<ledger::Weighted> per_window;  // call ms / windows returned
  std::int64_t first_ns{0};  // first record handed to the engine
  std::int64_t last_ns{0};   // finish() returned
  std::int64_t pump_ns{0};
  std::int64_t close_ns{0};  // in poll() and finish()
  std::size_t retained_bytes{0};
  DurationNs retained_span{0};
  online::OnlineStats stats;
  RegistryProbe before, after;

  std::uint64_t dropped() const {
    return stats.late_dropped_batches + stats.backpressure_dropped_batches +
           stats.wire_decode_dropped;
  }
};

/// A fresh engine at its defaults with a tailer past the file's header.
struct Follower {
  online::OnlineEngine eng;
  online::TraceFileTailer tail;

  Follower(const Statics& st, const std::string& path)
      : eng(st.graph, st.rates, follow_options()), tail(path, eng) {
    while (!tail.header_parsed())
      if (tail.pump(64) == 0) throw std::runtime_error("no trace header");
  }
};

/// One follow-mode set-up: the static facts, engine construction and the
/// tailer's header parse (destruction is not timed).
double follow_setup_s(const Context& c) {
  const std::int64_t t0 = now_ns();
  const Statics st = build_statics(experiment_config(*c.w, 0));
  const Follower f(st, trace_path(c.sc.front().dir));
  return static_cast<double>(now_ns() - t0) / 1e9;
}

Stream stream_file(const Context& c, const std::string& path, Tracer& tr,
                   int parent) {
  constexpr std::size_t kChunk = 1 << 16;
  Stream s;
  const std::int64_t t0 = now_ns();
  Follower f(c.st, path);
  online::OnlineEngine& eng = f.eng;
  tr.add("engine_setup", t0, now_ns(), parent);
  if (tr.on) s.before = RegistryProbe::take();

  const auto returned = [&](std::vector<online::WindowResult> ws,
                            std::int64_t a, std::int64_t b, const char* name) {
    const double ms = static_cast<double>(b - a) / 1e6;
    s.close_ns += b - a;
    std::uint64_t victims = 0;
    for (const online::WindowResult& w : ws) victims += w.diagnoses.size();
    tr.add(name, a, b, parent, ws.empty() ? -1 : ws.front().index, victims);
    if (ws.empty()) return;
    for (online::WindowResult& w : ws) {
      s.calls.push_back({w.index, ms, w.diagnoses.size()});
      s.per_window.push_back({ms / static_cast<double>(ws.size()), 1});
      s.windows.push_back(std::move(w));
    }
    if (tr.on) {
      const online::OnlineStats st = eng.stats();
      s.retained_bytes = std::max(s.retained_bytes, st.retained_bytes);
      s.retained_span = std::max(s.retained_span, st.retained_span_ns);
    }
  };
  s.first_ns = now_ns();
  for (;;) {
    const std::int64_t a = now_ns();
    const std::size_t n = f.tail.pump(kChunk);
    const std::int64_t b = now_ns();
    s.pump_ns += b - a;
    tr.add("pump", a, b, parent);
    if (n == 0) break;
    auto ws = eng.poll();
    returned(std::move(ws), b, now_ns(), "poll");
  }
  const std::int64_t a = now_ns();
  auto ws = eng.finish();
  s.last_ns = now_ns();
  returned(std::move(ws), a, s.last_ns, "finish");
  s.stats = eng.stats();
  if (tr.on) s.after = RegistryProbe::take();
  return s;
}

/// online.* of one stream pass over `records` records whose offline
/// reconstruction has `journeys` journeys.
void online_layer(const Stream& s, std::uint64_t records,
                  std::uint64_t journeys, Pass& p) {
  std::uint64_t rebuilt = 0;
  for (const online::WindowResult& w : s.windows) rebuilt += w.journeys;
  const double recon_ns = s.after.since(s.before, "trace.reconstruct.total_ns");
  const double diag_ns = s.after.since(s.before, "core.diagnose.total_ns");
  auto& L = p.layer;
  L["online.pump_ns_per_record"] =
      ratio(static_cast<double>(s.pump_ns), static_cast<double>(records));
  L["online.poll_ms_p50"] = ledger::weighted_percentile(s.per_window, 0.5).value;
  L["online.poll_ms_p99"] =
      ledger::weighted_percentile(s.per_window, 0.99).value;
  L["online.rework_ratio"] =
      ratio(static_cast<double>(rebuilt), static_cast<double>(journeys));
  L["online.retained_bytes_max"] = static_cast<double>(s.retained_bytes);
  L["online.retained_span_ms_max"] = static_cast<double>(s.retained_span) / 1e6;
  L["online.close_unattributed_frac"] =
      1.0 - ratio(recon_ns + diag_ns, static_cast<double>(s.close_ns));
  L["online.count_inflation"] =
      ratio(s.after.since(s.before, "collector.rx_batches") +
                s.after.since(s.before, "collector.tx_batches"),
            static_cast<double>(s.stats.batches_ingested));
  L["online.windows_closed"] = static_cast<double>(s.stats.windows_closed);
  L["online.windows_skipped_empty"] =
      static_cast<double>(s.stats.windows_skipped_empty);
  L["online.dropped_batches"] = static_cast<double>(s.dropped());
}

// Layer probes: a traced repetition also times, on the workload's own data,
// the entry points of the layers its pipeline bypasses, so every per-layer
// metric is measured on every workload. Probes run after the pipeline,
// outside its "pass" span, and never in untraced repetitions.

void autofocus_layer(Pass& p, std::int64_t flatten_ns,
                     std::int64_t aggregate_ns, std::size_t relations,
                     std::size_t patterns) {
  auto& L = p.layer;
  L["autofocus.flatten_ms"] = static_cast<double>(flatten_ns) / 1e6;
  L["autofocus.aggregate_us_per_relation"] =
      ratio(static_cast<double>(aggregate_ns) / 1e3,
            static_cast<double>(relations));
  L["autofocus.relations"] = static_cast<double>(relations);
  L["autofocus.patterns"] = static_cast<double>(patterns);
}

/// autofocus.* over a pass's diagnoses.
void autofocus_probe(const Context& c, const std::vector<core::Diagnosis>& diags,
                     Tracer& tr, Pass& p) {
  const std::int64_t t0 = now_ns();
  const int top = tr.open("probe", t0);
  const auto recs = autofocus::flatten_diagnoses(diags);
  const std::int64_t t1 = now_ns();
  const auto pats = autofocus::aggregate_patterns(recs, c.st.catalog, {});
  const std::int64_t t2 = now_ns();
  tr.close(top, t2);
  tr.add("flatten", t0, t1, top);
  tr.add("aggregate", t1, t2, top);
  autofocus_layer(p, t1 - t0, t2 - t1, recs.size(), pats.size());
}

Pass offline_pass(const Context& c, const Scenario& sc, Tracer& tr,
                  bool score) {
  Pass p;
  const std::int64_t t0 = now_ns();
  const int top = tr.open("pass", t0);
  const Statics st = build_statics(experiment_config(*c.w, 0));
  const std::int64_t ts = now_ns();
  const collector::Collector col = collector::load_trace(trace_path(sc.dir));
  const std::int64_t t1 = now_ns();
  const trace::ReconstructedTrace rt =
      trace::reconstruct(col, st.graph, c.analysis.reconstruct);
  const std::int64_t t2 = now_ns();
  const core::Diagnoser diag(rt, st.rates, c.analysis.diagnoser);
  const std::int64_t t3 = now_ns();
  const std::vector<core::Victim> victims =
      diag.latency_victims_by_threshold(kThreshold);
  const std::int64_t t4 = now_ns();
  const std::vector<core::Diagnosis> diags = diag.diagnose_all(victims);
  const std::int64_t t5 = now_ns();
  tr.close(top, t5);
  tr.add("statics", t0, ts, top);
  tr.add("load_trace", ts, t1, top);
  tr.add("reconstruct", t1, t2, top);
  tr.add("diagnoser_ctor", t2, t3, top);
  tr.add("latency_victims", t3, t4, top);
  tr.add("diagnose_all", t4, t5, top);

  p.setup_s = static_cast<double>((t1 - t0) + (t3 - t2)) / 1e9;
  p.wall_ns = (t2 - t1) + (t5 - t3);
  // Offline, the whole trace is one window and every verdict becomes
  // visible when the batch returns its results.
  const double ms = static_cast<double>(p.wall_ns) / 1e6;
  p.calls.push_back({0, ms, diags.size()});

  grade(sc, diags, false, p);
  if (score) rank1(sc, diags, p);
  if (!tr.on) return p;

  const TraceShape shape = trace_shape(col);
  const trace::AlignStats& as = rt.align_stats();
  auto& L = p.layer;
  L["collector.load_s"] = static_cast<double>(t1 - ts) / 1e9;
  L["trace.reconstruct_ns_per_record"] =
      ratio(static_cast<double>(t2 - t1), static_cast<double>(shape.records));
  L["trace.reconstruct_share"] =
      ratio(static_cast<double>(t2 - t1), static_cast<double>(p.wall_ns));
  L["trace.journeys"] = static_cast<double>(rt.journeys().size());
  L["trace.link_ambiguous_frac"] = ratio(static_cast<double>(as.link_ambiguous),
                                         static_cast<double>(as.link_matched));
  L["trace.link_unmatched"] = static_cast<double>(as.link_unmatched);
  L["trace.queue_drops_inferred"] = static_cast<double>(as.queue_drops_inferred);
  L["trace.avg_batch_pkts"] = ratio(static_cast<double>(shape.rx_packets),
                                    static_cast<double>(shape.rx_batches));
  L["core.victim_select_ms"] = static_cast<double>(t4 - t3) / 1e6;
  L["core.diagnose_us_per_victim"] = ratio(static_cast<double>(t5 - t4) / 1e3,
                                           static_cast<double>(diags.size()));
  victim_layer(p, diags);
  autofocus_probe(c, diags, tr, p);
  glue_layer(p, tr, top);

  // The online layer, probed on a short stream of the first scenario.
  if (!sc.meta.count("probe_records")) return p;
  const int probe = tr.open("probe", now_ns());
  const Stream s = stream_file(c, probe_path(sc.dir), tr, probe);
  tr.close(probe, s.last_ns);
  online_layer(s, meta_u64(sc.meta, "probe_records"),
               meta_u64(sc.meta, "probe_journeys"), p);
  return p;
}

Pass follow_pass(const Context& c, const Scenario& sc, Tracer& tr,
                 bool score) {
  Pass p;
  const int top = tr.open("pass", now_ns());
  Stream s = stream_file(c, trace_path(sc.dir), tr, top);
  tr.close(top, s.last_ns);
  p.wall_ns = s.last_ns - s.first_ns;
  p.calls = std::move(s.calls);

  // Correctness: no drops, consecutive windows, every reference victim in
  // exactly one closed window, diagnoses identical to the reference.
  if (s.dropped() > 0)
    p.errors.push_back("engine dropped " + std::to_string(s.dropped()) +
                       " batches");
  std::vector<core::Diagnosis> diags;
  for (std::size_t i = 0; i < s.windows.size(); ++i) {
    if (i > 0 && s.windows[i].index != s.windows[i - 1].index + 1)
      p.errors.push_back("closed windows are not consecutive");
    for (const core::Diagnosis& d : s.windows[i].diagnoses) diags.push_back(d);
  }
  std::uint64_t uncovered = 0;
  for (const RefVictim& r : sc.ref) {
    std::size_t hits = 0;
    for (const online::WindowResult& w : s.windows)
      hits += r.time >= w.start && r.time < w.end;
    uncovered += hits != 1;
  }
  if (uncovered > 0)
    p.errors.push_back(std::to_string(uncovered) +
                       " reference victims not in exactly one window");
  grade(sc, diags, s.dropped() > 0, p);
  // A victim outside every window is usually also missing from the output;
  // count it once.
  p.failed = std::min(p.attempted, std::max(p.failed, uncovered));
  if (score) rank1(sc, diags, p);
  if (!tr.on) return p;

  online_layer(s, sc.records, meta_u64(sc.meta, "ref_journeys"), p);
  const double recon_ns = s.after.since(s.before, "trace.reconstruct.total_ns");
  const double diag_ns = s.after.since(s.before, "core.diagnose.total_ns");
  std::uint64_t journeys = 0;
  for (const online::WindowResult& w : s.windows) journeys += w.journeys;
  auto& L = p.layer;
  L["trace.reconstruct_ns_per_record"] =
      ratio(recon_ns, static_cast<double>(sc.records));
  L["trace.reconstruct_share"] = ratio(recon_ns, static_cast<double>(s.close_ns));
  L["trace.journeys"] = static_cast<double>(journeys);
  L["trace.link_ambiguous_frac"] =
      ratio(s.after.since(s.before, "trace.align.link_ambiguous"),
            s.after.since(s.before, "trace.align.link_matched"));
  L["trace.link_unmatched"] = s.after.since(s.before, "trace.align.link_unmatched");
  L["trace.queue_drops_inferred"] =
      s.after.since(s.before, "trace.align.queue_drops_inferred");
  L["trace.avg_batch_pkts"] =
      ratio(s.after.since(s.before, "collector.rx_packets"),
            s.after.since(s.before, "collector.rx_batches"));
  L["core.diagnose_us_per_victim"] =
      ratio(diag_ns / 1e3, static_cast<double>(diags.size()));
  victim_layer(p, diags);
  glue_layer(p, tr, top);

  // Probes: the collector's load_trace of the same file and offline victim
  // selection over it (both happen inside poll() in follow mode), then
  // autofocus over the follow diagnoses.
  const std::int64_t t0 = now_ns();
  const int probe = tr.open("probe", t0);
  const collector::Collector col = collector::load_trace(trace_path(sc.dir));
  const std::int64_t t1 = now_ns();
  const trace::ReconstructedTrace rt =
      trace::reconstruct(col, c.st.graph, c.analysis.reconstruct);
  const core::Diagnoser diag(rt, c.st.rates, c.analysis.diagnoser);
  const std::int64_t t2 = now_ns();
  const auto victims = diag.latency_victims_by_threshold(kThreshold);
  const std::int64_t t3 = now_ns();
  tr.close(probe, t3);
  tr.add("load_trace", t0, t1, probe);
  tr.add("reconstruct", t1, t2, probe);
  tr.add("latency_victims", t2, t3, probe);
  L["collector.load_s"] = static_cast<double>(t1 - t0) / 1e9;
  L["core.victim_select_ms"] = static_cast<double>(t3 - t2) / 1e6;
  autofocus_probe(c, diags, tr, p);
  return p;
}

/// Every per-layer metric, in BENCHMARK.json order.
const char* const kLayerMetrics[] = {
    "collector.load_s",
    "online.pump_ns_per_record",
    "online.poll_ms_p50",
    "online.poll_ms_p99",
    "online.rework_ratio",
    "online.retained_bytes_max",
    "online.retained_span_ms_max",
    "online.close_unattributed_frac",
    "online.count_inflation",
    "online.windows_closed",
    "online.windows_skipped_empty",
    "online.dropped_batches",
    "trace.reconstruct_ns_per_record",
    "trace.reconstruct_share",
    "trace.journeys",
    "trace.link_ambiguous_frac",
    "trace.link_unmatched",
    "trace.queue_drops_inferred",
    "trace.avg_batch_pkts",
    "core.victim_select_ms",
    "core.diagnose_us_per_victim",
    "core.victims",
    "core.relations_per_victim",
    "autofocus.flatten_ms",
    "autofocus.aggregate_us_per_relation",
    "autofocus.relations",
    "autofocus.patterns",
    "ledger.self_frac",
};

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

/// Shortest text that reads back as exactly `v`.
std::string json_num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

void write_spans(const std::vector<ledger::Span>& spans,
                 const std::string& path) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const ledger::Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"run\": " << s.run
        << ", \"window\": " << s.window << ", \"victims\": " << s.items
        << ", \"self_ns\": " << ledger::self_time(spans, i) << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

Scenario load_scenario(const Workload& w, const std::string& dir) {
  Scenario s;
  s.dir = dir;
  s.meta = read_meta(dir);
  if (s.meta.at("workload") != w.name)
    throw std::runtime_error("inputs in " + dir + " are not for " + w.name);
  s.ref = read_reference(dir);
  s.log = std::make_unique<nf::InjectionLog>(
      read_injections(injections_path(dir)));
  s.oracle.emplace(*s.log);
  s.traffic_ns = static_cast<std::int64_t>(meta_u64(s.meta, "traffic_ns"));
  s.records = meta_u64(s.meta, "records");
  return s;
}

/// Every repetition of one scenario, traced and untraced kept apart.
struct Timings {
  std::vector<double> wall_ns;
  std::vector<std::vector<ledger::WindowCall>> calls;
};

/// What the repetitions of all scenarios add up to. Each scenario's wall
/// time is its median over repetitions, and the real-time factor is their
/// sum over the scenarios' traffic. Each closed window's call time is its
/// median over repetitions, so one slow repetition does not decide a
/// verdict; verdict_p50 and verdict_p75 are taken over these window times
/// pooled across scenarios, one sample per closed window (p75 is the
/// highest quartile with at least ten windows beyond it at the follow
/// workload's size). Offline, a scenario is one window: its batch time.
///
/// Reported for information only, pooled across scenarios: the
/// victim-weighted p50 and p99. In Fig. 10 traffic one injection's window
/// holds most of a scenario's victims, so these follow that one call and
/// the injection's size from seed to seed; the p99 also sits on the
/// end-of-stream finish() call in some scenarios and on a poll() in others.
struct Summary {
  std::size_t reps{0};
  double rtf{0};
  double p50_ms{0};
  double p75_ms{0};
  std::size_t windows{0};
  ledger::Percentile p50_victims;
  ledger::Percentile p99_victims;
};

Summary summarize(const std::vector<Timings>& t,
                  const std::vector<Scenario>& sc) {
  Summary s;
  double wall = 0;
  std::int64_t traffic = 0;
  std::vector<ledger::Weighted> verdicts;
  std::vector<double> windows;
  for (std::size_t k = 0; k < t.size(); ++k) {
    s.reps = t[k].wall_ns.size();
    wall += ledger::median(t[k].wall_ns);
    traffic += sc[k].traffic_ns;
    for (const ledger::Weighted& w : ledger::window_medians(t[k].calls)) {
      verdicts.push_back(w);
      windows.push_back(w.value);
    }
  }
  s.rtf = ledger::realtime_factor(static_cast<std::int64_t>(wall), traffic);
  s.p50_ms = ledger::quantile(windows, 0.50);
  s.p75_ms = ledger::quantile(windows, 0.75);
  s.windows = windows.size();
  s.p50_victims = ledger::weighted_percentile(verdicts, 0.50);
  s.p99_victims = ledger::weighted_percentile(verdicts, 0.99);
  return s;
}

int cmd_run(const Workload& w, const std::string& dir, double seconds,
            bool traced, const std::string& spans_path) {
  Context c;
  c.w = &w;
  const eval::ExperimentConfig cfg = experiment_config(w, 0);
  c.st = build_statics(cfg);
  c.analysis = analysis_options(w, cfg, w.threads);
  for (int k = 0; k < w.scenarios; ++k)
    c.sc.push_back(load_scenario(w, scenario_dir(dir, k)));

  // Every repetition passes over all scenarios in turn. Untraced runs start
  // another repetition while one as long as the last would still end within
  // `seconds` (at least three, so every median has a middle); traced
  // runs alternate untraced and traced repetitions (at least one of each)
  // so the tracing overhead is measured in the same process.
  const std::size_t min_reps = traced ? 2 : 3;
  std::vector<double> setup;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  Tracer tr;
  std::vector<Timings> plain(c.sc.size()), with_spans(c.sc.size());
  std::map<std::string, std::vector<double>> layer;
  std::uint64_t attempted = 0, failed = 0, hits = 0, scored = 0;
  std::size_t reps = 0;
  std::int64_t last_rep_ns = 0;
  for (; reps < 200 &&
         (reps < min_reps || now_ns() + last_rep_ns <= deadline);
       ++reps) {
    const std::int64_t rep_start = now_ns();
    tr.on = traced && reps % 2 == 1;
    tr.run = static_cast<int>(reps);
    for (std::size_t k = 0; k < c.sc.size(); ++k) {
      const Scenario& sc = c.sc[k];
      const bool score = reps == 0;
      // Follow-mode set-up is tens of microseconds and follows the host's
      // load of the moment; sample it many times before every untraced
      // pass so its median spans the whole run.
      if (w.follow && !traced)
        for (int i = 0; i < 25; ++i) setup.push_back(follow_setup_s(c));
      Pass p = w.follow ? follow_pass(c, sc, tr, score)
                        : offline_pass(c, sc, tr, score);
      Timings& t = (tr.on ? with_spans : plain)[k];
      t.wall_ns.push_back(static_cast<double>(p.wall_ns));
      t.calls.push_back(std::move(p.calls));
      if (!w.follow && !tr.on) setup.push_back(p.setup_s);
      attempted += p.attempted;
      failed += p.failed;
      hits += p.rank1_hits;
      scored += p.rank1_samples;
      for (const std::string& e : p.errors)
        std::cerr << "ledger: " << w.name << ": " << sc.dir << ": " << e << "\n";
      for (const auto& [name, v] : p.layer) layer[name].push_back(v);
    }
    last_rep_ns = now_ns() - rep_start;
  }
  const Summary s = summarize(plain, c.sc);

  if (!traced && s.p99_victims.beyond < 10)
    std::cerr << "ledger: " << w.name << ": verdict p99 has only "
              << s.p99_victims.beyond << " victims beyond it\n";

  std::ostringstream m;
  std::ostringstream n;  // sample counts
  if (!traced) {
    m << "\"realtime_factor\": " << json_num(s.rtf)
      << ", \"verdict_p50_ms\": " << json_num(s.p50_ms)
      << ", \"verdict_p75_ms\": " << json_num(s.p75_ms)
      << ", \"setup_s\": " << json_num(ledger::median(setup))
      << ", \"peak_rss_mb\": " << json_num(peak_rss_mb())
      << ", \"rank1_frac\": "
      << json_num(ratio(static_cast<double>(hits), static_cast<double>(scored)));
    n << "\"realtime_factor\": " << s.reps
      << ", \"verdict_p50_ms\": " << s.windows
      << ", \"verdict_p75_ms\": " << s.windows
      << ", \"verdict_p50_victim_weighted_ms\": "
      << json_num(s.p50_victims.value)
      << ", \"verdict_p99_victim_weighted_ms\": "
      << json_num(s.p99_victims.value)
      << ", \"verdict_victims\": " << s.p99_victims.samples
      << ", \"verdict_p99_beyond\": " << s.p99_victims.beyond
      << ", \"setup_s\": " << setup.size() << ", \"peak_rss_mb\": 1"
      << ", \"rank1_frac\": " << scored;
  } else {
    const double rtf_traced = summarize(with_spans, c.sc).rtf;
    const char* sep = "";
    for (const char* k : kLayerMetrics) {
      const auto it = layer.find(k);
      if (it == layer.end())
        throw std::logic_error(std::string("no value for ") + k);
      m << sep << '"' << k << "\": " << json_num(ledger::median(it->second));
      sep = ", ";
    }
    m << ", \"tracing.overhead_frac\": "
      << json_num(ratio(rtf_traced, s.rtf) - 1);
    n << "\"traced_reps\": " << with_spans.front().wall_ns.size()
      << ", \"untraced_reps\": " << s.reps
      << ", \"traced_realtime_factor\": " << json_num(rtf_traced);
    if (!spans_path.empty()) write_spans(tr.spans, spans_path);
  }

  std::cout << "{\"workload\": \"" << w.name << "\", \"build_type\": \""
            << LEDGER_BUILD_TYPE << "\", \"simd\": \"" << simd::caps_string()
            << "\", \"scenarios\": " << w.scenarios << ", \"reps\": " << reps
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << m.str() << "}, \"samples\": {" << n.str()
            << "}}\n";
  return failed == 0 ? 0 : 3;
}

// ------------------------------------------------------------ selftest --

int cmd_selftest() {
  int bad = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "selftest: " << what << "\n";
      ++bad;
    }
  };
  using ledger::Weighted;

  // Percentiles: 1000 unit samples 1..1000 -> p99 is 990 with 10 beyond;
  // 999 samples leave only 9 beyond.
  std::vector<Weighted> xs;
  for (int i = 1000; i >= 1; --i) xs.push_back({static_cast<double>(i), 1});
  const auto p99 = ledger::weighted_percentile(xs, 0.99);
  expect(p99.value == 990 && p99.samples == 1000 && p99.beyond == 10,
         "p99 of 1..1000 is 990 with 10 beyond");
  expect(ledger::weighted_percentile(xs, 0.50).value == 500, "p50 of 1..1000");
  xs.pop_back();
  expect(ledger::weighted_percentile(xs, 0.99).beyond == 9,
         "999 samples leave 9 beyond p99");
  expect(ledger::weighted_percentile({}, 0.5).samples == 0, "empty");

  // Victim weighting: a 2 ms call returning 90 victims and a 50 ms call
  // returning 10 -> p50 2 ms, p99 50 ms; unweighted calls would give 50 ms
  // at p50 already. A call returning no victim has no weight.
  const std::vector<Weighted> calls{{2.0, 90}, {50.0, 10}, {900.0, 0}};
  expect(ledger::weighted_percentile(calls, 0.50).value == 2.0,
         "victim-weighted p50");
  expect(ledger::weighted_percentile(calls, 0.90).value == 2.0,
         "victim-weighted p90 stays inside the heavy call");
  expect(ledger::weighted_percentile(calls, 0.91).value == 50.0,
         "victim-weighted p91 moves to the light call");
  expect(ledger::weighted_percentile(calls, 0.99).value == 50.0,
         "zero-victim call never selected");

  // Window medians: window 0 took 5, 1 and 3 ms in three repetitions and
  // window 1 took 9 and 7 ms (absent from the third) -> 3 ms and 8 ms,
  // sorted by window and weighted by the window's victims.
  const auto wm = ledger::window_medians(
      {{{1, 9.0, 4}, {0, 5.0, 2}}, {{0, 1.0, 2}, {1, 7.0, 4}}, {{0, 3.0, 2}}});
  expect(wm.size() == 2 && wm[0].value == 3.0 && wm[0].weight == 2 &&
             wm[1].value == 8.0 && wm[1].weight == 4,
         "per-window medians over repetitions");

  // Self time: parent [0,100) with children [10,30), [20,40) (overlap
  // counted once), [90,120) (clipped at 100) and a grandchild that must not
  // count against the parent -> 100 - 30 - 10 = 60.
  std::vector<ledger::Span> spans{
      {"rep", 0, 100, -1, 0, -1},   {"a", 10, 30, 0, 0, -1},
      {"b", 20, 40, 0, 0, -1},      {"c", 90, 120, 0, 0, -1},
      {"a.child", 12, 28, 1, 0, -1}};
  expect(ledger::self_time(spans, 0) == 60, "self time of the parent");
  expect(ledger::self_time(spans, 1) == 4, "self time of a child");
  expect(ledger::self_time(spans, 4) == 16, "leaf self time is its span");

  // Real-time factor: 3 s of wall time over 200 ms of traffic is 15.
  expect(ledger::realtime_factor(3'000'000'000, 200'000'000) == 15.0,
         "realtime factor");
  expect(ledger::realtime_factor(1, 0) == 0.0, "no traffic");
  expect(ledger::median({3, 1, 2}) == 2 && ledger::median({4, 1, 2, 3}) == 2.5,
         "median");
  // Quantiles interpolate between order statistics: p75 of 1..5 is 4, of
  // 10, 20, 30, 40 is 32.5; p0 and p100 are the extremes.
  expect(ledger::quantile({5, 1, 4, 2, 3}, 0.75) == 4.0 &&
             ledger::quantile({40, 10, 30, 20}, 0.75) == 32.5 &&
             ledger::quantile({2, 9}, 0.0) == 2.0 &&
             ledger::quantile({2, 9}, 1.0) == 9.0 &&
             ledger::quantile({}, 0.5) == 0.0,
         "interpolated quantiles");

  std::cout << (bad ? "selftest: FAILED\n" : "selftest: ok\n");
  return bad ? 1 : 0;
}

// ---------------------------------------------------------------- main --

std::string arg(int argc, char** argv, const std::string& flag,
                const std::string& dflt = "") {
  for (int i = 2; i + 1 < argc; ++i)
    if (argv[i] == flag) return argv[i + 1];
  if (dflt.empty()) throw std::invalid_argument("missing " + flag);
  return dflt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "selftest") return cmd_selftest();
    if (cmd == "gen")
      return cmd_gen(find_workload(arg(argc, argv, "--workload")),
                     std::stoull(arg(argc, argv, "--seed")),
                     arg(argc, argv, "--dir"));
    if (cmd == "run")
      return cmd_run(find_workload(arg(argc, argv, "--workload")),
                     arg(argc, argv, "--dir"),
                     std::stod(arg(argc, argv, "--seconds")),
                     arg(argc, argv, "--trace", "0") == "1",
                     arg(argc, argv, "--spans", "-") == "-"
                         ? ""
                         : arg(argc, argv, "--spans"));
    std::cerr << "usage: ledger selftest | gen --workload W --seed N --dir D"
                 " | run --workload W --dir D --seconds S --trace 0|1"
                 " [--spans FILE]\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "ledger: " << e.what() << "\n";
    return 2;
  }
}
