// perfbench_trace_place: the traced run of the `place` workload.
//
//   perfbench_trace_place --seed N --threads T --out FILE --spans FILE
//                         [--scale N]
//
// Rebuilds PufferFlow::run() (src/core/flow.cpp, run_internal without a
// snapshot, round callback or progress hook) from the same public calls
// in the same order, with a span around each call, and follows it with
// evaluate_routability(). It runs once at T threads and once at 1 thread
// and reports each run's final position_checksum; run.py fails the traced
// run unless both equal the untraced PufferFlow::run() checksum.
//
// Coupling: this file calls EPlaceEngine, PaddingEngine,
// CongestionEstimator::estimate_incremental, compute_overflow,
// discretize_padding, IncrementalLegalizer (the cross-run legalizer
// ledger), check_legality and evaluate_routability directly. When the
// flow's call sequence changes, or one of these functions is removed or
// renamed, this file must be updated to match flow.cpp; until then
// only the traced place run fails (its checksum check or its build).
// It is a separate CMake target so the timed workloads keep building.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/logger.h"
#include "common/parallel.h"
#include "io/checkpoint.h"

namespace perfbench {
namespace {

using puffer::Design;

// One traced flow + evaluation route on a private copy of `base`.
std::string traced_flow(const Design& base, int threads, Tracer* tr) {
  puffer::par::set_num_threads(threads);
  Design design = base;
  const puffer::PufferConfig config;
  const double t0 = now_s();
  const int root = tr->open("place@" + std::to_string(threads));

  // PufferFlow's constructor builds the legalizer.
  puffer::IncrementalLegalizer legalizer(config.legal);
  {
    ScopedSpan s(tr, "gp.initial_place");
    puffer::initial_place(design, config.init);
  }
  // The flow's long-lived objects, in PufferFlow's construction order.
  int span = tr->open("gp.construct");
  puffer::EPlaceEngine engine(design, config.gp);
  tr->close(span);
  span = tr->open("padding.construct");
  puffer::PaddingEngine padder(design, engine.movable_cells(), config.padding);
  tr->close(span);
  span = tr->open("congestion.construct");
  puffer::CongestionEstimator estimator(design, config.congestion);
  tr->close(span);

  while (true) {
    {
      ScopedSpan s(tr, "gp.run_to_overflow");
      engine.run_to_overflow(config.padding.tau);
    }
    bool trigger = false;
    {
      ScopedSpan s(tr, "padding.should_trigger");
      trigger = padder.should_trigger(engine.density_overflow());
    }
    if (!trigger) break;
    puffer::CongestionResult congestion;
    {
      ScopedSpan s(tr, "congestion.estimate_incremental");
      congestion = estimator.estimate_incremental();
    }
    {
      ScopedSpan s(tr, "congestion.compute_overflow");
      (void)puffer::compute_overflow(congestion.maps);
    }
    {
      ScopedSpan s(tr, "padding.update");
      const std::vector<double>& pad = padder.update(congestion);
      ScopedSpan s2(tr, "gp.set_padding");
      engine.set_padding(pad);
    }
    for (int k = 0; k < config.padding.spacing_iters; ++k) {
      ScopedSpan s(tr, "gp.step");
      if (!engine.step()) break;
    }
    ScopedSpan s(tr, "gp.sync_to_design");
    engine.sync_to_design();
  }
  {
    ScopedSpan s(tr, "gp.run_to_overflow");
    engine.run_to_overflow(config.final_overflow);
  }

  std::vector<int> levels;
  {
    ScopedSpan s(tr, "legal.discretize_padding");
    std::vector<double> pad_by_cell(design.cells.size(), 0.0);
    const auto& movable = engine.movable_cells();
    for (std::size_t i = 0; i < movable.size(); ++i) {
      pad_by_cell[static_cast<std::size_t>(movable[i])] = padder.padding()[i];
    }
    levels = puffer::discretize_padding(design, pad_by_cell, config.discrete);
  }
  puffer::LegalizeResult legal;
  {
    ScopedSpan s(tr, "legal.legalize");
    legal = legalizer.legalize(design, levels);
  }
  puffer::LegalityReport report;
  {
    ScopedSpan s(tr, "legal.check_legality");
    report = puffer::check_legality(design);
  }
  puffer::RouteResult route;
  {
    ScopedSpan s(tr, "router.evaluate_routability");
    route = puffer::evaluate_routability(design, puffer::RouterConfig{},
                                         &estimator);
  }
  tr->close(root);
  const double wall = now_s() - t0;

  const puffer::GpKernelTimes& k = engine.kernel_times();
  const puffer::IncrementalStats& e = estimator.incremental_stats();
  const puffer::PaddingStageMetrics& p = padder.stage_metrics();
  return JsonObject()
      .num("threads", threads)
      .num("root", root)
      .num("wall_s", wall)
      .str("checksum", hex64(puffer::position_checksum(design)))
      .boolean("legal", report.legal)
      .num("wl_s", k.wirelength_s)
      .num("density_s", k.density_s)
      .num("poisson_s", k.poisson_s)
      .num("assemble_s", k.assemble_s)
      .num("nesterov_s", k.nesterov_s)
      .num("gradient_evals", k.gradient_evals)
      .num("iterations", k.iterations)
      .num("estimate_calls", e.calls)
      .num("dirty_nets", static_cast<double>(e.dirty_nets_total))
      .num("nets_examined", static_cast<double>(e.nets_total))
      .num("rsmt_hits", static_cast<double>(estimator.tree_cache().hits()))
      .num("rsmt_misses", static_cast<double>(estimator.tree_cache().misses()))
      .num("padding_rounds", padder.rounds())
      .num("padding_attempts", padder.attempts())
      .num("feature_s", p.feature_time_s)
      .num("dirty_gcells", static_cast<double>(p.dirty_gcells_total))
      .num("gcells", static_cast<double>(p.gcells_total))
      .num("incidence_hits", static_cast<double>(p.incidence_hits))
      .num("incidence_misses", static_cast<double>(p.incidence_misses))
      .num("rows_rebuilt", legal.rows_rebuilt)
      .num("rows_total", legal.rows_total)
      .num("placed", legal.placed)
      .num("total_displacement", legal.total_displacement)
      .num("failed_cells", legal.failed_cells)
      .raw("route", route_record(route))
      .dump();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::uint64_t seed = 1;
  int threads = 1, scale = 64;
  std::string out, spans;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    const char* v = argv[i + 1];
    if (a == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (a == "--threads") threads = std::max(1, std::atoi(v));
    else if (a == "--scale") scale = std::atoi(v);
    else if (a == "--out") out = v;
    else if (a == "--spans") spans = v;
  }
  if (out.empty() || spans.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_trace_place --seed N --threads T --out "
                 "FILE --spans FILE [--scale N]\n");
    return 2;
  }
  puffer::Logger::instance().set_level(puffer::LogLevel::kWarn);
  try {
    Tracer tracer;
    const double t0 = now_s();
    // Instance 0 of the workload seed, as `perfbench_run place` builds it.
    const Design base = make_instance("MEDIA_SUBSYS", scale, mix_seed(seed, 0));
    const double generate_s = now_s() - t0;

    std::vector<std::string> runs;
    runs.push_back(traced_flow(base, threads, &tracer));
    if (threads > 1) runs.push_back(traced_flow(base, 1, &tracer));
    const std::string record =
        JsonObject()
            .str("workload", "place")
            .num("generate_s", generate_s)
            .raw("runs", jarray(runs))
            .num("peak_rss_kb", static_cast<double>(vm_hwm_kb(0)))
            .raw("env", environment_json(threads))
            .dump();
    write_text_file(out, record + "\n");
    write_text_file(spans, tracer.to_json() + "\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace_place: %s\n", e.what());
    return 1;
  }
  return 0;
}
