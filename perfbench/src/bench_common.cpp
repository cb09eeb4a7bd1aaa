#include "bench_common.h"

#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common/simd.h"
#include "io/synthetic.h"

namespace perfbench {

using puffer::Design;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void rename_for_seed(Design* d, std::uint64_t seed) {
  for (std::size_t i = 0; i < d->cells.size(); ++i) {
    d->cells[i].name += "_" + hex64(mix_seed(seed, i)).substr(0, 8);
  }
  for (std::size_t j = 0; j < d->nets.size(); ++j) {
    d->nets[j].name +=
        "_" + hex64(mix_seed(seed, d->cells.size() + j)).substr(0, 8);
  }
}

Design make_instance(const std::string& bench, int scale, std::uint64_t seed) {
  Design d = puffer::generate_synthetic(puffer::table1_spec(bench, scale));
  rename_for_seed(&d, seed);
  return d;
}

std::vector<int> permutation(int n, std::uint64_t seed) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  for (int i = n; i > 1; --i) {
    const std::uint64_t r = mix_seed(seed, static_cast<std::uint64_t>(i)) %
                            static_cast<std::uint64_t>(i);
    std::swap(p[static_cast<std::size_t>(i - 1)], p[static_cast<std::size_t>(r)]);
  }
  return p;
}

long vm_hwm_kb(int pid) {
  const std::string path =
      pid > 0 ? "/proc/" + std::to_string(pid) + "/status" : "/proc/self/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return -1;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string jarray(const std::vector<std::string>& raw_items) {
  std::string out = "[";
  for (std::size_t i = 0; i < raw_items.size(); ++i) {
    if (i > 0) out += ",";
    out += raw_items[i];
  }
  return out + "]";
}

JsonObject& JsonObject::raw(const std::string& key,
                            const std::string& raw_value) {
  if (!body_.empty()) body_ += ",";
  body_ += jstr(key) + ":" + raw_value;
  return *this;
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

namespace {
thread_local std::vector<int> t_open_spans;
}

int Tracer::innermost() const {
  return t_open_spans.empty() ? -1 : t_open_spans.back();
}

int Tracer::open(const std::string& name, int parent) {
  SpanRecord s;
  s.parent = parent == kInnermost ? innermost() : parent;
  s.name = name;
  s.start_s = now_s();
  int id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    s.id = id;
    spans_.push_back(std::move(s));
  }
  t_open_spans.push_back(id);
  return id;
}

void Tracer::close(int id) {
  const double t = now_s();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_s = t;
  }
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
}

std::string Tracer::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> items;
  items.reserve(spans_.size());
  for (const SpanRecord& s : spans_) {
    items.push_back(JsonObject()
                        .num("id", s.id)
                        .num("parent", s.parent)
                        .str("name", s.name)
                        .num("start", s.start_s)
                        .num("end", s.end_s)
                        .dump());
  }
  return jarray(items);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const std::string& name, int parent)
    : tracer_(tracer) {
  if (tracer_) id_ = tracer_->open(name, parent);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_) tracer_->close(id_);
}

std::string flow_record(const puffer::FlowMetrics& m) {
  const puffer::GpKernelTimes& k = m.gp_kernels;
  const puffer::IncrementalStats& e = m.estimation;
  const puffer::PaddingStageMetrics& p = m.padding_stage;
  const puffer::LegalizeResult& l = m.legalize;
  return JsonObject()
      .num("initial_place_s", m.stages.get("initial_place"))
      .num("global_place_s", m.stages.get("global_place"))
      .num("legalize_stage_s", m.stages.get("legalize"))
      .num("wl_s", k.wirelength_s)
      .num("density_s", k.density_s)
      .num("poisson_s", k.poisson_s)
      .num("assemble_s", k.assemble_s)
      .num("nesterov_s", k.nesterov_s)
      .num("gradient_evals", k.gradient_evals)
      .num("iterations", k.iterations)
      .num("estimate_calls", e.calls)
      .num("estimate_s", e.incremental_time_s + e.full_time_s)
      .num("dirty_nets", static_cast<double>(e.dirty_nets_total))
      .num("nets_examined", static_cast<double>(e.nets_total))
      .num("rsmt_cache_hit_rate", m.rsmt_cache_hit_rate)
      .num("padding_rounds", m.padding_rounds)
      .num("padding_attempts", p.extracts)
      .num("feature_s", p.feature_time_s)
      .num("dirty_gcells", static_cast<double>(p.dirty_gcells_total))
      .num("gcells", static_cast<double>(p.gcells_total))
      .num("incidence_hits", static_cast<double>(p.incidence_hits))
      .num("incidence_misses", static_cast<double>(p.incidence_misses))
      .num("legalize_s", l.time_s)
      .num("rows_rebuilt", l.rows_rebuilt)
      .num("rows_total", l.rows_total)
      .num("placed", l.placed)
      .num("total_displacement", l.total_displacement)
      .num("failed_cells", l.failed_cells)
      .dump();
}

std::string route_record(const puffer::RouteResult& r) {
  return JsonObject()
      .num("route_s", r.route_time_s)
      .num("rrr_s", r.rrr_time_s)
      .num("segments", r.segments)
      .num("rerouted", r.rerouted)
      .num("rounds", r.rounds_used)
      .num("hof_pct", r.overflow.hof_pct)
      .num("vof_pct", r.overflow.vof_pct)
      .num("routed_wl", r.wirelength)
      .dump();
}

std::string environment_json(int threads) {
  const long llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  return JsonObject()
      .num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .num("threads", threads)
      .str("compiler", std::string("gcc ") + __VERSION__)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .boolean("simd_enabled", puffer::simd::enabled())
      .str("simd_isa", puffer::simd::active_isa())
      .num("llc_bytes", static_cast<double>(llc))
      .dump();
}

}  // namespace perfbench
