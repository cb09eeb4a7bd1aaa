// perfbench_run: the timed workloads of the repository benchmark.
//
//   perfbench_run place   --seed N --seconds S --threads T --out FILE
//   perfbench_run explore --seed N --seconds S --threads T --out FILE
//   perfbench_run serve   --seed N --seconds S --threads T --out FILE
//                         --pufferd PATH
//
// Each workload builds its inputs from --seed, drives one shipped entry
// point through its public API for about --seconds seconds, checks the
// outputs, and writes raw measurements as one JSON object to --out
// (perfbench/run.py turns them into metrics). --spans FILE additionally
// records spans around the calls into the placer and writes them there
// at exit. --scale, --trials and --jobs shrink a workload for smoke tests;
// --instances sets how many design instances place / explore run at least.
#include <signal.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/logger.h"
#include "common/parallel.h"
#include "core/strategy_params.h"
#include "io/checkpoint.h"
#include "io/design_codec.h"
#include "io/net.h"
#include "io/synthetic.h"
#include "orchestrate/orchestrator.h"
#include "serve/client.h"
#include "serve/serve_protocol.h"

namespace perfbench {
namespace {

using puffer::Design;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int threads = 1;
  std::string out;
  std::string spans;
  std::string pufferd;
  int scale = 0;   // 0 = the workload's default
  int trials = 16;
  int jobs = 40;
  int instances = 2;  // place / explore: design instances at least run
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_run: %s\nusage: perfbench_run place|explore|serve "
               "--seed N --seconds S --threads T --out FILE [--spans FILE] "
               "[--pufferd PATH] [--scale N] [--trials N] [--jobs N] "
               "[--instances N]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage("missing workload");
  Options o;
  o.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(a + " needs a value");
    const char* v = argv[++i];
    if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(v);
    else if (a == "--threads") o.threads = std::max(1, std::atoi(v));
    else if (a == "--out") o.out = v;
    else if (a == "--spans") o.spans = v;
    else if (a == "--pufferd") o.pufferd = v;
    else if (a == "--scale") o.scale = std::atoi(v);
    else if (a == "--trials") o.trials = std::max(1, std::atoi(v));
    else if (a == "--jobs") o.jobs = std::max(1, std::atoi(v));
    else if (a == "--instances") o.instances = std::max(1, std::atoi(v));
    else usage("unknown option " + a);
  }
  if (o.out.empty()) usage("--out is required");
  return o;
}

double mean_of(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// Runs rep(0), rep(1), ... : at least `min_reps` times, then while one
// more repetition still fits in the time budget.
template <class Rep>
void repeat_for(double seconds, int min_reps, Rep rep) {
  std::vector<double> walls;
  const double start = now_s();
  for (int k = 0;; ++k) {
    const double t0 = now_s();
    rep(k);
    walls.push_back(now_s() - t0);
    if (k + 1 >= min_reps && now_s() - start + mean_of(walls) > seconds) {
      return;
    }
  }
}

// Set-up is repeated at least kSetupRepeats times and until kSetupSeconds
// of it have been timed (setup_s is the median), so that a set-up of a
// few milliseconds still gets enough samples for a steady median.
constexpr int kSetupRepeats = 5;
constexpr double kSetupSeconds = 1.5;

bool more_setup(const std::vector<double>& samples) {
  double sum = 0.0;
  for (const double x : samples) sum += x;
  return samples.size() < static_cast<std::size_t>(kSetupRepeats) ||
         sum < kSetupSeconds;
}

// Design instance k of the workload seed. Instance 0 is built repeatedly
// to time set-up; later instances are built untimed.
Design instance(const std::string& bench, int scale, std::uint64_t seed,
                int k, std::vector<double>* setup_samples) {
  const std::uint64_t s = mix_seed(seed, static_cast<std::uint64_t>(k));
  if (k > 0) return make_instance(bench, scale, s);
  Design d;
  while (more_setup(*setup_samples)) {
    const double t0 = now_s();
    d = make_instance(bench, scale, s);
    setup_samples->push_back(now_s() - t0);
  }
  return d;
}

std::string doubles(const std::vector<double>& v) {
  std::vector<std::string> items;
  for (const double x : v) items.push_back(jnum(x));
  return jarray(items);
}

// --- place: PufferFlow::run() + evaluate_routability() ----------------
JsonObject run_place(const Options& o) {
  const int scale = o.scale > 0 ? o.scale : 64;
  std::vector<double> setup;
  std::vector<std::string> reps;
  double cells = 0;
  repeat_for(o.seconds, o.instances, [&](int k) {
    Design d = instance("MEDIA_SUBSYS", scale, o.seed, k, &setup);
    cells = static_cast<double>(d.cells.size());
    const double t0 = now_s();
    puffer::PufferFlow pf(d, puffer::PufferConfig{});
    const puffer::FlowMetrics m = pf.run();
    const puffer::RouteResult r =
        puffer::evaluate_routability(d, puffer::RouterConfig{}, pf.estimator());
    const double wall = now_s() - t0;
    reps.push_back(JsonObject()
                       .num("instance", k)
                       .num("wall_s", wall)
                       .str("checksum", hex64(puffer::position_checksum(d)))
                       .boolean("legal", puffer::check_legality(d).legal)
                       .num("hpwl_legal", m.hpwl_legal)
                       .num("hof_pct", r.overflow.hof_pct)
                       .num("vof_pct", r.overflow.vof_pct)
                       .num("routed_wl", r.wirelength)
                       .dump());
  });
  JsonObject out;
  out.raw("setup_s", doubles(setup))
      .raw("reps", jarray(reps))
      .num("cells", cells);
  return out;
}

// --- explore: TrialOrchestrator over a benchmark-owned executor --------

// Delegates to LocalTrialExecutor, recording each batch's wall time; with
// a tracer it also records a span around each batch and keeps each
// trial's flow and route counters.
class RecordingExecutor : public puffer::TrialExecutor {
 public:
  RecordingExecutor(int concurrency, Tracer* tracer)
      : local_(concurrency), tracer_(tracer) {}
  void prepare(const puffer::TrialRunContext& ctx) override {
    local_.prepare(ctx);
  }
  void run_batch(const std::vector<puffer::TrialTask>& tasks,
                 const std::vector<int>& to_run,
                 std::vector<puffer::TrialResult>* results) override {
    const double t0 = now_s();
    {
      ScopedSpan span(tracer_, "orchestrate.run_batch");
      local_.run_batch(tasks, to_run, results);
    }
    batches.push_back(JsonObject()
                          .num("wall_s", now_s() - t0)
                          .num("trials", static_cast<double>(to_run.size()))
                          .dump());
    if (tracer_ == nullptr) return;
    for (const int i : to_run) {
      const puffer::TrialResult& t = (*results)[static_cast<std::size_t>(i)];
      trials.push_back(JsonObject()
                           .num("id", t.trial_id)
                           .num("wall_s", t.wall_s)
                           .boolean("pruned", t.pruned)
                           .num("loss", t.loss)
                           .raw("flow", flow_record(t.flow))
                           .raw("route", route_record(t.route))
                           .dump());
    }
  }
  int slots() const override { return local_.slots(); }

  std::vector<std::string> batches, trials;  // JSON records

 private:
  puffer::LocalTrialExecutor local_;
  Tracer* tracer_;
};

JsonObject run_explore(const Options& o, Tracer* tracer) {
  const int scale = o.scale > 0 ? o.scale : 256;
  puffer::OrchestratorConfig oc;
  oc.trials = o.trials;
  oc.concurrency = o.threads;
  oc.batch_size = 4;
  oc.prune.enabled = true;
  std::vector<double> setup;
  std::vector<std::string> reps, trial_records, batch_records;
  double cells = 0;
  repeat_for(o.seconds, o.instances, [&](int k) {
    Design d = instance("A53_ADB_WRAP", scale, o.seed, k, &setup);
    cells = static_cast<double>(d.cells.size());
    RecordingExecutor exec(o.threads, tracer);
    const double t0 = now_s();
    puffer::OrchestrationResult res;
    try {
      ScopedSpan span(tracer, "orchestrate.run");
      puffer::TrialOrchestrator orch(d, puffer::puffer_param_specs(),
                                     puffer::ExperimentConfig{}, oc);
      res = orch.run(exec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "explore: exploration threw: %s\n", e.what());
      reps.push_back(JsonObject().num("instance", k).boolean("threw", true).dump());
      return;
    }
    const double wall = now_s() - t0;
    if (tracer != nullptr && k == 0) {
      trial_records = exec.trials;
      batch_records = exec.batches;
    }
    const puffer::OrchestratorStageMetrics& s = res.stats;
    reps.push_back(
        JsonObject()
            .num("instance", k)
            .boolean("threw", false)
            .num("wall_s", wall)
            .num("best_loss", res.best_loss)
            .str("checksum", hex64(res.best_checksum))
            .boolean("legal",
                     res.best_checksum != 0 &&
                         (!res.best_metrics_valid || res.best_flow.legality.legal))
            .num("trials", o.trials)
            .num("trials_evaluated", res.trials_evaluated)
            .num("trials_run", s.trials_run)
            .num("trials_pruned", s.trials_pruned)
            .num("prefix_s", s.prefix_s)
            .num("scheduler_utilization", s.scheduler_utilization)
            .num("slots", exec.slots())
            .num("hpwl_legal", res.best_flow.hpwl_legal)
            .num("hof_pct", res.best_route.overflow.hof_pct)
            .num("vof_pct", res.best_route.overflow.vof_pct)
            .num("routed_wl", res.best_route.wirelength)
            .dump());
  });
  JsonObject out;
  out.raw("setup_s", doubles(setup))
      .raw("reps", jarray(reps))
      .raw("trials", jarray(trial_records))
      .raw("batches", jarray(batch_records))
      .num("cells", cells);
  return out;
}

// --- serve: a pufferd child process and a closed loop of clients ------

std::string fs_type_name(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  static const std::map<unsigned long, const char*> kNames = {
      {0xEF53UL, "ext4"},      {0x01021994UL, "tmpfs"},
      {0x794C7630UL, "overlay"}, {0x58465342UL, "xfs"},
      {0x9123683EUL, "btrfs"}, {0x6969UL, "nfs"},
      {0x2FC12FC1UL, "zfs"},   {0x01021997UL, "9p"},
      {0x65735546UL, "fuse"}};
  const auto it = kNames.find(static_cast<unsigned long>(st.f_type));
  if (it != kNames.end()) return it->second;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return buf;
}

// One pufferd child with a private, fresh spool directory. The
// destructor stops it (SIGTERM drains; nothing is in flight by then),
// waits for it and removes the spool.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::string& spool,
         const std::string& address, int threads, int max_running)
      : spool_(spool) {
    std::filesystem::remove_all(spool_);
    std::filesystem::create_directories(spool_);
    const std::vector<std::string> args = {
        exe,         "--listen",      address,
        "--spool",   spool_,          "--max-running",
        std::to_string(max_running),  "--max-queued",
        std::to_string(threads),      "--per-conn",
        "2",         "--quiet"};
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    std::vector<std::string> env_store;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "PUFFER_THREADS=", 15) != 0) env_store.emplace_back(*e);
    }
    env_store.push_back("PUFFER_THREADS=" + std::to_string(threads));
    std::vector<char*> envp;
    for (const std::string& e : env_store) envp.push_back(const_cast<char*>(e.c_str()));
    envp.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::execve(exe.c_str(), argv.data(), envp.data());
      ::_exit(127);
    }
    if (pid_ < 0) throw std::runtime_error("fork failed");
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    std::error_code ec;
    std::filesystem::remove_all(spool_, ec);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }

  // Returns once the daemon accepts connections on `address`. It probes
  // every 0.5 ms, so set-up follows the daemon's own start time; the
  // client library's connect retry would add steps of 100 ms.
  void wait_listening(const std::string& address, double timeout_s) {
    const double deadline = now_s() + timeout_s;
    for (;;) {
      try {
        ::close(puffer::connect_socket(address));
        return;
      } catch (const puffer::CheckpointError&) {
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("pufferd exited during start-up");
      }
      if (now_s() > deadline) {
        throw std::runtime_error("pufferd did not listen on " + address);
      }
      ::usleep(500);
    }
  }

 private:
  std::string spool_;
  int pid_ = -1;
};

// The serve job list: a fixed pool of `jobs` blocks (OR1200 and
// ASIC_ENTITY alternating, each with its own generator seed, so no two
// jobs share work), submitted in a seed-dependent order and renamed per
// seed. The work per pass is the same for every seed; the traffic order
// is not.
std::vector<Design> make_job_list(std::uint64_t seed, int jobs, int scale) {
  std::vector<Design> list;
  const std::vector<int> order = permutation(jobs, mix_seed(seed, 0));
  for (int i = 0; i < jobs; ++i) {
    const int p = order[static_cast<std::size_t>(i)];
    puffer::SyntheticSpec spec =
        puffer::table1_spec(p % 2 == 0 ? "OR1200" : "ASIC_ENTITY", scale);
    spec.seed = 1000 + static_cast<std::uint64_t>(p);
    list.push_back(puffer::generate_synthetic(spec));
    rename_for_seed(&list.back(), mix_seed(seed, 1 + static_cast<std::uint64_t>(i)));
  }
  return list;
}

struct JobOutcome {
  int index = 0, pass = 0, conn = 0;
  double t_start = 0, t_encoded = 0, t_acked = 0, t_done = 0, t_fetched = 0,
         t_decoded = 0;
  double run_s = 0.0;
  int state = -1;
  bool rejected = false;
  bool ok = false;
  int telemetry = 0;
  double job_bytes = 0, result_bytes = 0;
  std::uint64_t checksum = 0;
  double hpwl_legal = 0.0;
  std::string error;
  std::vector<double> x, y;  // kept for pass 0 only
};

void serve_one(puffer::ServeClient& client, const Design& design,
               JobOutcome* o, Tracer* tracer) {
  using puffer::ServeMsgType;
  ScopedSpan job_span(tracer, "serve.job");
  o->t_start = now_s();
  puffer::SubmitMsg msg;
  msg.job_name = design.name + "#" + std::to_string(o->index);
  {
    ScopedSpan s(tracer, "io.encode");
    msg.design_blob = puffer::encode_design(design);
  }
  o->t_encoded = now_s();
  o->job_bytes = static_cast<double>(msg.design_blob.size());
  puffer::ServeEvent ack;
  {
    ScopedSpan s(tracer, "serve.submit");
    ack = client.submit(msg);
  }
  o->t_acked = now_s();
  if (ack.type == ServeMsgType::kRejected) {
    o->rejected = true;
    o->error = std::string("rejected: ") +
               puffer::reject_reason_name(
                   static_cast<puffer::RejectReason>(ack.rejected.reason));
    return;
  }
  if (ack.type != ServeMsgType::kSubmitAck) {
    o->error = "submit: unexpected reply";
    return;
  }
  const std::uint64_t sid = ack.ack.session_id;
  puffer::SessionSummary summary;
  {
    ScopedSpan s(tracer, "serve.wait_done");
    const puffer::SnapshotMsg snap = client.subscribe(sid);
    o->telemetry = static_cast<int>(snap.history.size());
    if (snap.has_summary) {
      summary = snap.summary;
    } else {
      std::vector<puffer::TelemetryRound> rounds;
      summary = client.wait_done(sid, &rounds).summary;
      o->telemetry += static_cast<int>(rounds.size());
    }
  }
  o->t_done = now_s();
  o->state = summary.state;
  o->run_s = summary.runtime_s;
  if (summary.state != static_cast<std::uint8_t>(puffer::SessionState::kDone)) {
    o->error = "session ended " +
               std::string(puffer::session_state_name(
                   static_cast<puffer::SessionState>(summary.state))) +
               ": " + summary.message;
    return;
  }
  puffer::ServeEvent res;
  {
    ScopedSpan s(tracer, "serve.fetch");
    res = client.fetch(sid);
  }
  o->t_fetched = now_s();
  if (res.type != ServeMsgType::kResult ||
      res.result.x.size() != design.cells.size() ||
      res.result.y.size() != design.cells.size()) {
    o->error = "fetch: no result";
    return;
  }
  Design placed;
  {
    ScopedSpan s(tracer, "io.decode");
    placed = design;
    for (std::size_t i = 0; i < placed.cells.size(); ++i) {
      placed.cells[i].x = res.result.x[i];
      placed.cells[i].y = res.result.y[i];
    }
  }
  o->t_decoded = now_s();
  o->checksum = res.result.checksum;
  o->hpwl_legal = res.result.hpwl_legal;
  o->result_bytes = static_cast<double>(puffer::encode_result(res.result).size());
  const bool legal = puffer::check_legality(placed).legal;
  const bool same = puffer::position_checksum(placed) == res.result.checksum &&
                    res.result.checksum == summary.checksum;
  o->ok = legal && same;
  if (!o->ok) o->error = legal ? "checksum mismatch" : "illegal placement";
  if (o->pass == 0) {
    o->x = std::move(res.result.x);
    o->y = std::move(res.result.y);
  }
}

JsonObject run_serve(const Options& o, Tracer* tracer) {
  if (o.pufferd.empty()) usage("serve needs --pufferd");
  const int scale = o.scale > 0 ? o.scale : 256;
  const int max_running = std::max(1, o.threads / 2);
  const std::string address = "./pufferd.sock";
  std::vector<double> setup;
  std::vector<Design> jobs;
  std::unique_ptr<Daemon> daemon;
  std::string spool_fs;
  // Set-up: generate the job list and start a daemon until its hello,
  // repeated as more_setup() asks; the last daemon serves the job phase.
  std::vector<double> generate;
  for (int i = 0; more_setup(setup); ++i) {
    daemon.reset();
    const double t0 = now_s();
    jobs = make_job_list(o.seed, o.jobs, scale);
    generate.push_back(now_s() - t0);
    const std::string spool = "spool" + std::to_string(i);
    daemon = std::make_unique<Daemon>(o.pufferd, spool, address, o.threads,
                                      max_running);
    daemon->wait_listening(address, 10.0);
    { puffer::ServeClient hello(address, 10.0, "perfbench-setup"); }
    setup.push_back(now_s() - t0);
    spool_fs = fs_type_name(spool);
  }

  const int conns = o.threads;
  const int n = static_cast<int>(jobs.size());
  std::vector<std::vector<JobOutcome>> per_conn(static_cast<std::size_t>(conns));
  std::vector<double> connect_s(static_cast<std::size_t>(conns), 0.0);
  std::vector<std::string> conn_errors(static_cast<std::size_t>(conns));
  std::atomic<int> next{0};
  const int root_span = tracer != nullptr ? tracer->innermost() : -1;
  const double phase_start = now_s();
  std::vector<std::thread> clients;
  // Joins the client threads on every path out of the job phase.
  struct JoinAll {
    std::vector<std::thread>& threads;
    ~JoinAll() {
      for (std::thread& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } join_all{clients};
  for (int c = 0; c < conns; ++c) {
    clients.emplace_back([&, c] {
      try {
        ScopedSpan conn_span(tracer, "serve.connection", root_span);
        const double t0 = now_s();
        std::unique_ptr<puffer::ServeClient> client;
        {
          ScopedSpan s(tracer, "serve.connect");
          client = std::make_unique<puffer::ServeClient>(
              address, 10.0, "perfbench-" + std::to_string(c));
        }
        connect_s[static_cast<std::size_t>(c)] = now_s() - t0;
        for (;;) {
          const int k = next.fetch_add(1);
          if (k >= n && now_s() - phase_start >= o.seconds) return;
          JobOutcome out;
          out.index = k % n;
          out.pass = k / n;
          out.conn = c;
          per_conn[static_cast<std::size_t>(c)].push_back(std::move(out));
          serve_one(*client, jobs[static_cast<std::size_t>(k % n)],
                    &per_conn[static_cast<std::size_t>(c)].back(), tracer);
        }
      } catch (const std::exception& e) {
        conn_errors[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double phase_end = now_s();
  const long daemon_rss_kb = vm_hwm_kb(daemon->pid());
  daemon.reset();

  std::vector<JobOutcome> all;
  for (auto& v : per_conn) {
    for (JobOutcome& j : v) all.push_back(std::move(j));
  }
  std::vector<std::string> errors;
  for (const std::string& e : conn_errors) {
    if (!e.empty()) errors.push_back(jstr("connection: " + e));
  }
  std::vector<const JobOutcome*> pass0(static_cast<std::size_t>(n), nullptr);
  std::vector<std::string> job_records;
  for (const JobOutcome& j : all) {
    if (j.pass == 0) pass0[static_cast<std::size_t>(j.index)] = &j;
    job_records.push_back(JsonObject()
                              .num("index", j.index)
                              .num("pass", j.pass)
                              .num("conn", j.conn)
                              .num("t_start", j.t_start - phase_start)
                              .num("t_encoded", j.t_encoded - phase_start)
                              .num("t_acked", j.t_acked - phase_start)
                              .num("t_done", j.t_done - phase_start)
                              .num("t_fetched", j.t_fetched - phase_start)
                              .num("t_decoded", j.t_decoded - phase_start)
                              .num("run_s", j.run_s)
                              .num("state", j.state)
                              .boolean("rejected", j.rejected)
                              .boolean("ok", j.ok)
                              .str("error", j.error)
                              .num("telemetry", j.telemetry)
                              .num("job_bytes", j.job_bytes)
                              .num("result_bytes", j.result_bytes)
                              .str("checksum", hex64(j.checksum))
                              .num("hpwl_legal", j.hpwl_legal)
                              .dump());
  }

  // Evaluation-router QoR of the served placements (first pass), plus,
  // when tracing, the in-process replay that must match the daemon bit
  // for bit and supplies the per-layer flow counters.
  std::vector<std::string> routes, replays;
  std::vector<double> decode_s;
  for (int i = 0; i < n; ++i) {
    const JobOutcome* p = pass0[static_cast<std::size_t>(i)];
    if (p == nullptr || !p->ok) continue;
    Design placed = jobs[static_cast<std::size_t>(i)];
    for (std::size_t c = 0; c < placed.cells.size(); ++c) {
      placed.cells[c].x = p->x[c];
      placed.cells[c].y = p->y[c];
    }
    {
      ScopedSpan span(tracer, "router.evaluate_routability");
      routes.push_back(route_record(puffer::evaluate_routability(placed)));
    }
    if (tracer == nullptr) continue;
    const std::string blob = puffer::encode_design(jobs[static_cast<std::size_t>(i)]);
    const double t0 = now_s();
    Design replay = puffer::decode_design(blob);
    decode_s.push_back(now_s() - t0);
    puffer::PufferConfig cfg;
    cfg.num_threads = 0;
    puffer::par::WorkerLease lease(std::max(1, o.threads / max_running));
    puffer::PufferFlow flow(replay, cfg);
    const puffer::FlowMetrics m = flow.run();
    const bool match = puffer::position_checksum(replay) == p->checksum;
    replays.push_back(JsonObject()
                          .num("index", i)
                          .boolean("match", match)
                          .raw("flow", flow_record(m))
                          .dump());
  }

  JsonObject out;
  out.raw("setup_s", doubles(setup))
      .raw("generate_s", doubles(generate))
      .raw("jobs", jarray(job_records))
      .raw("errors", jarray(errors))
      .raw("connect_s", doubles(connect_s))
      .raw("routes", jarray(routes))
      .raw("replays", jarray(replays))
      .raw("decode_s", doubles(decode_s))
      .num("job_list", n)
      .num("phase_s", phase_end - phase_start)
      .num("daemon_rss_kb", static_cast<double>(daemon_rss_kb))
      .num("max_running", max_running)
      .num("connections", conns)
      .str("spool_fs", spool_fs);
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  puffer::Logger::instance().set_level(puffer::LogLevel::kWarn);
  puffer::par::set_num_threads(o.threads);
  std::unique_ptr<Tracer> tracer;
  if (!o.spans.empty()) tracer = std::make_unique<Tracer>();
  try {
    JsonObject out;
    const double t0 = now_s();
    if (o.workload == "place") {
      ScopedSpan root(tracer.get(), "place");
      out = run_place(o);
    } else if (o.workload == "explore") {
      ScopedSpan root(tracer.get(), "explore");
      out = run_explore(o, tracer.get());
    } else if (o.workload == "serve") {
      ScopedSpan root(tracer.get(), "serve");
      out = run_serve(o, tracer.get());
    } else {
      usage("unknown workload " + o.workload);
    }
    out.str("workload", o.workload)
        .num("seed", static_cast<double>(o.seed))
        .num("total_s", now_s() - t0)
        .num("peak_rss_kb", static_cast<double>(vm_hwm_kb(0)))
        .raw("env", environment_json(o.threads));
    write_text_file(o.out, out.dump() + "\n");
    if (tracer) write_text_file(o.spans, tracer->to_json() + "\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
