// §5 offline cost: trace reconstruction throughput.
//
// Reconstruction (IPID alignment + journey assembly) is the offline front
// half of diagnosis; this measures its packet throughput on a Fig. 10
// trace, plus the alignment-only cost, one victim's diagnosis, and the
// diagnosis of every victim of an injected interrupt (victims sharing
// queuing periods).
#include "bench_main.hpp"

#include <optional>

#include "microscope/microscope.hpp"

using namespace microscope;

namespace {

struct Fixture {
  sim::Simulator sim;
  collector::Collector col;
  eval::Fig10 net;
  trace::GraphView graph;
  std::size_t packets{0};

  Fixture() : net(eval::build_fig10(sim, &col)) {
    nf::CaidaLikeOptions topts;
    topts.duration = 100_ms;
    topts.rate_mpps = 1.2;
    topts.num_flows = 2000;
    auto traffic = nf::generate_caida_like(topts);
    packets = traffic.size();
    net.topo->source(net.source).load(std::move(traffic));
    sim.run_until(150_ms);
    graph = trace::graph_view(*net.topo);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_AlignAll(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    trace::AlignStats stats;
    const auto a = trace::align_all(f.col, f.graph, {}, &stats);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.packets));
}
BENCHMARK(BM_AlignAll)->Unit(benchmark::kMillisecond);

void BM_FullReconstruct(benchmark::State& state) {
  Fixture& f = fixture();
  trace::ReconstructOptions ropt;
  ropt.prop_delay = 1_us;
  std::size_t journeys = 0;
  for (auto _ : state) {
    const auto rt = trace::reconstruct(f.col, f.graph, ropt);
    journeys = rt.journeys().size();
    benchmark::DoNotOptimize(&rt);
  }
  state.counters["journeys"] = static_cast<double>(journeys);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.packets));
}
BENCHMARK(BM_FullReconstruct)->Unit(benchmark::kMillisecond);

void BM_DiagnoseOneVictim(benchmark::State& state) {
  Fixture& f = fixture();
  trace::ReconstructOptions ropt;
  ropt.prop_delay = 1_us;
  static const auto rt = trace::reconstruct(f.col, f.graph, ropt);
  static const core::Diagnoser diag(rt, f.net.topo->peak_rates());
  static const auto victims = diag.latency_victims_by_percentile(99.0);
  if (victims.empty()) {
    state.SkipWithError("no victims");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto d = diag.diagnose(victims[i % victims.size()]);
    benchmark::DoNotOptimize(&d);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiagnoseOneVictim)->Unit(benchmark::kMicrosecond);

/// Fig. 10 at 1.2 Mpps with an 800 us interrupt at a NAT: its latency
/// victims pile up in a few long queuing periods downstream.
struct BurstFixture {
  sim::Simulator sim;
  collector::Collector col;
  eval::Fig10 net;
  std::optional<trace::ReconstructedTrace> rt;
  std::vector<core::Victim> victims;

  BurstFixture() : net(eval::build_fig10(sim, &col)) {
    nf::CaidaLikeOptions topts;
    topts.duration = 60_ms;
    topts.rate_mpps = 1.2;
    topts.num_flows = 2000;
    net.topo->source(net.source).load(nf::generate_caida_like(topts));
    nf::InjectionLog log;
    nf::schedule_interrupt(sim, net.topo->nf(net.nats[0]), 20_ms, 800_us,
                           log);
    sim.run_until(80_ms);
    trace::ReconstructOptions ropt;
    ropt.prop_delay = net.topo->options().prop_delay;
    rt.emplace(trace::reconstruct(col, trace::graph_view(*net.topo), ropt));
    victims = core::Diagnoser(*rt, net.topo->peak_rates())
                  .latency_victims_by_threshold(100_us);
  }
};

void BM_DiagnoseAllBurst(benchmark::State& state) {
  static BurstFixture f;
  if (f.victims.empty()) {
    state.SkipWithError("no victims");
    return;
  }
  const core::Diagnoser diag(*f.rt, f.net.topo->peak_rates());
  for (auto _ : state) {
    const auto ds = diag.diagnose_all(f.victims);
    benchmark::DoNotOptimize(ds.data());
  }
  state.counters["victims"] = static_cast<double>(f.victims.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.victims.size()));
}
BENCHMARK(BM_DiagnoseAllBurst)->Unit(benchmark::kMillisecond);

}  // namespace

MICROSCOPE_BENCH_MAIN("overhead_reconstruction");
