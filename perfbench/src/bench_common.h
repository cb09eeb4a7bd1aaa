// Shared pieces of the benchmark executables: workload inputs derived
// from the workload seed, a minimal JSON writer, an in-memory span
// recorder, and flow/route counter records.
//
// Everything here sits outside the placer: spans are recorded around
// calls into the placer's public API, never inside it.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/flow.h"
#include "netlist/design.h"

namespace perfbench {

double now_s();  // steady clock, seconds

// splitmix64 of (seed, salt): independent sub-seeds from one workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// A named Table I design at `scale` as an instance of the workload seed:
// the generated netlist (fixed per name and scale) with seed-dependent
// cell and net names. Names never enter the placer's arithmetic, so every
// instance places bit-identically; a netlist that changed with the seed
// would move GP's iteration count by +-15% and bury any timing bound
// (see perfbench/README.md).
puffer::Design make_instance(const std::string& bench, int scale,
                             std::uint64_t seed);

// Appends seed-dependent suffixes to every cell and net name.
void rename_for_seed(puffer::Design* d, std::uint64_t seed);

// A permutation of 0..n-1 drawn from `seed` (Fisher-Yates on splitmix64,
// independent of the standard library's distributions).
std::vector<int> permutation(int n, std::uint64_t seed);

// Peak resident set (VmHWM) of `pid` (0 = this process) in KiB, or -1.
long vm_hwm_kb(int pid);

std::string hex64(std::uint64_t v);

// --- JSON ---------------------------------------------------------------
std::string jnum(double v);  // round-trip precision; non-finite -> null
std::string jstr(const std::string& s);
std::string jarray(const std::vector<std::string>& raw_items);

class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& raw_value);
  JsonObject& num(const std::string& key, double v) {
    return raw(key, jnum(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, jstr(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void write_text_file(const std::string& path, const std::string& text);

// --- spans --------------------------------------------------------------
struct SpanRecord {
  int id = 0;
  int parent = -1;  // -1 = root
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
};

// Keeps spans in memory; written out once at exit. The parent of a new
// span is the innermost span still open on the calling thread.
class Tracer {
 public:
  static constexpr int kInnermost = -2;
  // `parent` overrides the thread's innermost open span (for a thread
  // whose spans belong under a span another thread opened).
  int open(const std::string& name, int parent = kInnermost);
  void close(int id);
  // Innermost span open on the calling thread, or -1.
  int innermost() const;
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name,
             int parent = Tracer::kInnermost);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

// --- records ------------------------------------------------------------
// Per-flow layer counters read from a finished flow's FlowMetrics.
std::string flow_record(const puffer::FlowMetrics& m);
// Evaluation-router counters and QoR.
std::string route_record(const puffer::RouteResult& r);

// Build and runtime environment of this process.
std::string environment_json(int threads);

}  // namespace perfbench
