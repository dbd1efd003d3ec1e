// Shared helpers for the table/figure reproduction benches: the Table 1
// driver, a tiny CLI (--json-out / --trace-out / --trace-report), one-line
// JSON result records, and trace reporting for traced runs (see
// docs/observability.md).
#pragma once

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/stream_pipeline.hpp"
#include "sched/pipeline.hpp"
#include "trace/chrome_export.hpp"
#include "trace/critical_path.hpp"
#include "trace/phase_report.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace fxbench {

/// Options shared by all benches; populated by init().
struct Options {
  std::string json_out;      ///< --json-out FILE|-  : one-line JSON records
  std::string trace_out;     ///< --trace-out FILE   : chrome trace of the last traced run
  bool trace_report = false; ///< --trace-report     : print phase + critical-path reports
  std::string backend = "sim";  ///< --backend sim|threads|proc : execution engine
  std::string transport = "shm";  ///< --transport shm|tcp : proc-backend message fabric
  int threads = 0;           ///< --threads N        : logical processors (0 = bench default)
  std::string pinning;       ///< --pinning none|compact|scatter|numa ("" = config default)
  int metrics = -1;          ///< --metrics on|off (-1 = config default, which is on)
  std::string metrics_out;   ///< --metrics-out FILE : final metrics snapshot
                             ///<   (.json -> JSON, else Prometheus text)
  int obs_port = -1;         ///< --obs-port N : live HTTP endpoint (-1 = off)
  int flight_recorder = -1;  ///< --flight-recorder on|off (-1 = config default)
};

inline Options& options() {
  static Options opts;
  return opts;
}

/// Strict numeric flag parser: the whole string must be a base-10 integer
/// inside [lo, hi]. Anything else — empty, trailing junk, out of range,
/// or overflowing a long — prints an enumerated message and exits 2, the
/// shared loud-failure contract of the bench CLI (a `--threads 0x8`, `-4`
/// or `99999999999999999999` must never silently become a config value).
/// `what` names the expected kind in the message ("an integer", "a port").
inline long parse_int_flag(const char* flag, const std::string& v, long lo, long hi,
                           const char* what = "an integer") {
  errno = 0;
  char* end = nullptr;
  const long n = std::strtol(v.c_str(), &end, 10);
  const bool malformed = v.empty() || end != v.c_str() + v.size();
  if (malformed || errno == ERANGE || n < lo || n > hi) {
    std::fprintf(stderr, "%s must be %s in [%ld, %ld], got '%s'\n", flag, what, lo, hi,
                 v.c_str());
    std::exit(2);
  }
  return n;
}

/// Strict floating-point flag parser: the whole string must be a finite
/// number inside [lo, hi]; violations exit 2 with an enumerated message
/// (an `--arrival-rate inf` or `nan` would otherwise poison every derived
/// record downstream).
inline double parse_double_flag(const char* flag, const std::string& v, double lo,
                                double hi) {
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  const bool malformed = v.empty() || end != v.c_str() + v.size();
  if (malformed || errno == ERANGE || !std::isfinite(x) || x < lo || x > hi) {
    std::fprintf(stderr, "%s must be a number in [%g, %g], got '%s'\n", flag, lo, hi,
                 v.c_str());
    std::exit(2);
  }
  return x;
}

/// A bench's own integer flag: the value after the last `flag` in argv,
/// validated by parse_int_flag against [lo, hi], or `def` when the flag is
/// absent. A trailing `flag` with no value exits 2 like the shared flags.
inline long int_flag(int argc, char** argv, const char* flag, long def, long lo, long hi) {
  long v = def;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != flag) continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s requires an argument\n", flag);
      std::exit(2);
    }
    v = parse_int_flag(flag, argv[++i], lo, hi);
  }
  return v;
}

/// Parses the shared bench flags and returns the arguments it did not
/// consume, argv[0] first, so benches can parse their own flags (or hand
/// them to Google Benchmark) from the result. --help prints the shared
/// flag block and is passed on too. Call at the top of main().
inline std::vector<char*> init(int argc, char** argv) {
  Options& o = options();
  std::vector<char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        // Fail loudly, like the invalid --backend path: continuing with an
        // empty value would let automation record mislabeled runs.
        std::fprintf(stderr, "%s requires an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--json-out") {
      o.json_out = value("--json-out");
    } else if (a == "--trace-out") {
      o.trace_out = value("--trace-out");
    } else if (a == "--trace-report") {
      o.trace_report = true;
    } else if (a == "--backend") {
      o.backend = value("--backend");
      if (o.backend != "sim" && o.backend != "threads" && o.backend != "proc") {
        // Fail loudly: silently degrading to sim would let a typo in
        // automation produce sim-labeled records.
        std::fprintf(stderr, "--backend must be 'sim', 'threads' or 'proc', got '%s'\n",
                     o.backend.c_str());
        std::exit(2);
      }
    } else if (a == "--transport") {
      o.transport = value("--transport");
      if (o.transport != "shm" && o.transport != "tcp") {
        // Fail loudly, like --backend: a typo must not record tcp-labeled
        // runs that actually went over shared memory.
        std::fprintf(stderr, "--transport must be 'shm' or 'tcp', got '%s'\n",
                     o.transport.c_str());
        std::exit(2);
      }
    } else if (a == "--threads") {
      // 0 is not accepted even though it is the Options default: an explicit
      // `--threads 0` (or a negative/garbled count) is always a mistake that
      // must not silently fall back to the bench's own default.
      o.threads = static_cast<int>(parse_int_flag("--threads", value("--threads"), 1, 4096));
    } else if (a == "--pinning") {
      o.pinning = value("--pinning");
      fxpar::exec::PinPolicy parsed;
      if (!fxpar::exec::parse_pin_policy(o.pinning, parsed)) {
        // Fail loudly, like --backend: a typo must not record unpinned
        // runs labeled as pinned.
        std::fprintf(stderr,
                     "--pinning must be 'none', 'compact', 'scatter' or 'numa', got '%s'\n",
                     o.pinning.c_str());
        std::exit(2);
      }
    } else if (a == "--metrics") {
      const std::string v = value("--metrics");
      if (v == "on") {
        o.metrics = 1;
      } else if (v == "off") {
        o.metrics = 0;
      } else {
        std::fprintf(stderr, "--metrics must be 'on' or 'off', got '%s'\n", v.c_str());
        std::exit(2);
      }
    } else if (a == "--metrics-out") {
      o.metrics_out = value("--metrics-out");
    } else if (a == "--obs-port") {
      // Fail loudly, like --backend: a typo must not silently run the
      // bench without the endpoint automation is about to curl.
      o.obs_port = static_cast<int>(
          parse_int_flag("--obs-port", value("--obs-port"), 0, 65535, "a port"));
    } else if (a == "--flight-recorder") {
      const std::string v = value("--flight-recorder");
      if (v == "on") {
        o.flight_recorder = 1;
      } else if (v == "off") {
        o.flight_recorder = 0;
      } else {
        std::fprintf(stderr, "--flight-recorder must be 'on' or 'off', got '%s'\n", v.c_str());
        std::exit(2);
      }
    } else if (a == "--help" || a == "-h") {
      std::printf("common bench flags:\n"
                  "  --json-out FILE|-   append one-line JSON result records\n"
                  "  --trace-out FILE    write chrome://tracing / Perfetto JSON of the\n"
                  "                      last traced machine run\n"
                  "  --trace-report      print per-phase and critical-path reports\n"
                  "  --backend sim|threads|proc\n"
                  "                      execution engine (default sim; see docs/execution.md)\n"
                  "  --transport shm|tcp\n"
                  "                      proc-backend message fabric: shared-memory mailbox\n"
                  "                      rings or loopback TCP (default shm)\n"
                  "  --threads N         logical processor count override (threads and proc\n"
                  "                      backends run one OS thread/process per logical\n"
                  "                      processor)\n"
                  "  --pinning none|compact|scatter|numa\n"
                  "                      worker-thread placement policy (threads backend;\n"
                  "                      default none; see docs/performance.md)\n"
                  "  --metrics on|off    runtime metrics registry (default: on; 'off' removes\n"
                  "                      the counters entirely for overhead measurements)\n"
                  "  --metrics-out FILE  write the final metrics snapshot of the last\n"
                  "                      reported run (.json -> JSON, else Prometheus text)\n"
                  "  --obs-port N        serve /metrics, /healthz, /trace and /diagnostics\n"
                  "                      on 127.0.0.1:N during every run (0 = ephemeral;\n"
                  "                      see docs/observability.md)\n"
                  "  --flight-recorder on|off\n"
                  "                      bounded ring of recent runtime events, dumped at\n"
                  "                      /trace and in diagnostic bundles (default: off)\n");
      rest.push_back(argv[i]);
    } else {
      rest.push_back(argv[i]);
    }
  }
  return rest;
}

/// For benches that run on the simulator only: exits 2 with a message
/// naming `bench` when --backend selected another engine, instead of
/// silently printing simulated results under a threads/proc label.
inline void require_sim_backend(const char* bench, const char* why) {
  if (options().backend == "sim") return;
  std::fprintf(stderr, "%s: only --backend sim is supported (%s), got '%s'\n", bench, why,
               options().backend.c_str());
  std::exit(2);
}

/// Copy of `cfg` with the CLI's tuning flags applied (--pinning,
/// --metrics, --obs-port, --flight-recorder) but the backend/processor
/// count untouched, for benches that drive several backends from one
/// binary (bench_exec).
inline fxpar::machine::MachineConfig apply_tuning(fxpar::machine::MachineConfig cfg) {
  const Options& o = options();
  if (!o.pinning.empty()) {
    fxpar::exec::PinPolicy parsed;
    if (fxpar::exec::parse_pin_policy(o.pinning, parsed)) cfg.pinning = parsed;
  }
  if (o.metrics >= 0) cfg.metrics = o.metrics != 0;
  if (o.obs_port >= 0) cfg.obs_port = o.obs_port;
  if (o.flight_recorder >= 0) cfg.flight_recorder = o.flight_recorder != 0;
  return cfg;
}

/// Copy of `cfg` with the CLI's --backend / --threads selection applied.
/// Benches that support backend selection route their MachineConfig through
/// this before running.
inline fxpar::machine::MachineConfig apply_backend(fxpar::machine::MachineConfig cfg) {
  const Options& o = options();
  cfg.backend = (o.backend == "threads") ? fxpar::exec::BackendKind::Threads
               : (o.backend == "proc")   ? fxpar::exec::BackendKind::Proc
                                         : fxpar::exec::BackendKind::Sim;
  cfg.transport = (o.transport == "tcp") ? fxpar::exec::TransportKind::Tcp
                                         : fxpar::exec::TransportKind::Shm;
  if (o.threads > 0) cfg.num_procs = o.threads;
  return apply_tuning(std::move(cfg));
}

/// True when any tracing output was requested on the command line.
inline bool tracing_requested() {
  return options().trace_report || !options().trace_out.empty();
}

/// Copy of `cfg` with tracing enabled iff requested via the CLI.
inline fxpar::machine::MachineConfig maybe_traced(fxpar::machine::MachineConfig cfg) {
  if (tracing_requested()) cfg.trace = true;
  return cfg;
}

namespace detail {

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline std::ostream* json_stream() {
  const std::string& path = options().json_out;
  if (path.empty()) return nullptr;
  if (path == "-") return &std::cout;
  static std::ofstream file;
  static bool warned = false;
  if (!file.is_open()) file.open(path, std::ios::app);
  if (!file) {
    if (!warned) {
      warned = true;
      std::cerr << "--json-out: cannot write '" << path << "', records dropped\n";
    }
    return nullptr;
  }
  return &file;
}

/// Opens a record: `{"name":...,"params":{...}` — the params object is
/// left open for the caller to close with `}`.
inline void write_json_head(std::ostream& out, const std::string& name,
                            const std::vector<std::pair<std::string, std::string>>& params) {
  out << "{\"name\":\"" << json_escape(name) << "\",\"params\":{";
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i) out << ',';
    out << '"' << json_escape(params[i].first) << "\":\"" << json_escape(params[i].second)
        << '"';
  }
}

/// Writes `v` with `fmt`, or `null` when it is inf/nan: "%.9g" would emit a
/// bare `inf`/`nan` token, making the whole record unparseable JSON (the
/// perf-smoke CI reads these lines with a strict parser).
inline void write_json_number(std::ostream& out, double v, const char* fmt) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char num[64];
  std::snprintf(num, sizeof(num), fmt, v);
  out << num;
}

/// Process-wide memory-pressure counters: cumulative minor page faults and
/// peak resident set (KB on Linux, converted from bytes on macOS). Both -1
/// when the platform has no getrusage.
struct RusageNow {
  std::int64_t minflt = -1;
  std::int64_t maxrss_kb = -1;
};

inline RusageNow rusage_now() {
  RusageNow r;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    r.minflt = static_cast<std::int64_t>(ru.ru_minflt);
#if defined(__APPLE__)
    r.maxrss_kb = static_cast<std::int64_t>(ru.ru_maxrss) / 1024;
#else
    r.maxrss_kb = static_cast<std::int64_t>(ru.ru_maxrss);
#endif
  }
#endif
  return r;
}

}  // namespace detail

/// Wall-clock stopwatch for the *host* cost of a simulated run, as opposed
/// to the modeled machine time. Construct before Machine::run, read .ms()
/// after; the value lands in json_record's "host_ms" field.
class HostTimer {
 public:
  HostTimer() : start_(std::chrono::steady_clock::now()) {}

  double ms() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Appends one JSON line {"name":..., "params":{...}, "time_s":...,
/// "efficiency":..., "comm_bytes":...} to the --json-out sink. No-op when
/// --json-out was not given. `host_ms` >= 0 adds a "host_ms" field (host
/// wall-clock of the run, from HostTimer); nonzero plan-cache counters add
/// "plan_cache_hits"/"plan_cache_misses". Non-finite time_s/efficiency/
/// host_ms/wait_ms values are emitted as `null` so the line stays valid
/// JSON.
inline void json_record(const std::string& name,
                        const std::vector<std::pair<std::string, std::string>>& params,
                        double time_s, double efficiency, std::uint64_t comm_bytes,
                        double host_ms = -1.0, std::uint64_t plan_hits = 0,
                        std::uint64_t plan_misses = 0, const std::string& backend = "sim",
                        int threads = 0, double wait_ms = -1.0,
                        const std::string& pinning = std::string(),
                        const std::vector<int>& numa_nodes = std::vector<int>(),
                        const std::string& transport = std::string()) {
  std::ostream* out = detail::json_stream();
  if (!out) return;
  detail::write_json_head(*out, name, params);
  *out << "},\"time_s\":";
  detail::write_json_number(*out, time_s, "%.9g");
  *out << ",\"efficiency\":";
  detail::write_json_number(*out, efficiency, "%.6g");
  *out << ",\"comm_bytes\":" << comm_bytes;
  *out << ",\"backend\":\"" << detail::json_escape(backend) << '"';
  // Which message fabric a proc-backend run crossed: shm vs tcp records are
  // different experiments even at identical parameters.
  if (!transport.empty()) {
    *out << ",\"transport\":\"" << detail::json_escape(transport) << '"';
  }
  if (threads > 0) *out << ",\"threads\":" << threads;
  // A negative value means "not provided"; NaN means provided-but-broken
  // (it would fail the >= test), which must surface as null, not vanish.
  if (host_ms >= 0.0 || std::isnan(host_ms)) {
    *out << ",\"host_ms\":";
    detail::write_json_number(*out, host_ms, "%.6g");
  }
  if (wait_ms >= 0.0 || std::isnan(wait_ms)) {
    *out << ",\"wait_ms\":";
    detail::write_json_number(*out, wait_ms, "%.6g");
  }
  if (plan_hits + plan_misses > 0) {
    *out << ",\"plan_cache_hits\":" << plan_hits << ",\"plan_cache_misses\":" << plan_misses;
  }
  if (!pinning.empty()) *out << ",\"pinning\":\"" << detail::json_escape(pinning) << '"';
  if (!numa_nodes.empty()) {
    *out << ",\"numa_nodes\":[";
    for (std::size_t i = 0; i < numa_nodes.size(); ++i) {
      if (i) *out << ',';
      *out << numa_nodes[i];
    }
    *out << ']';
  }
  // Memory pressure of the whole bench process at record time. Cumulative
  // across runs in one binary — automation diffs consecutive records.
  // ("minor_faults", not the traditional "minflt": these lines must never
  // contain a bare "inf" substring, which the JSON-hygiene test greps for.)
  const detail::RusageNow ru = detail::rusage_now();
  *out << ",\"minor_faults\":" << ru.minflt << ",\"max_rss_kb\":" << ru.maxrss_kb;
  *out << "}\n";
  out->flush();
}

/// Convenience overload taking the machine counters directly. Records which
/// backend executed the run; on the real (threads / proc) backends it also
/// records the worker count and total real blocked time, on threads the
/// pinning policy, and on proc the transport the run crossed.
inline void json_record(const std::string& name,
                        const std::vector<std::pair<std::string, std::string>>& params,
                        const fxpar::machine::RunResult& res, double host_ms = -1.0) {
  const bool threaded = res.backend == "threads";
  const bool proc = res.backend == "proc";
  json_record(name, params, res.finish_time, res.efficiency(), res.bytes, host_ms,
              res.plan_cache_hits, res.plan_cache_misses, res.backend,
              threaded || proc ? static_cast<int>(res.clocks.size()) : 0,
              threaded || proc ? res.wait_ms : -1.0,
              threaded ? res.pinning : std::string(), res.numa_nodes,
              proc ? options().transport : std::string());
}

/// Record of a latency distribution measured outside any one Machine::run
/// (e.g. bench_exec --run-overhead): `quantiles` become numeric fields of
/// the record, such as {"p50_ms", 0.8}.
inline void json_quantiles_record(
    const std::string& name, const std::vector<std::pair<std::string, std::string>>& params,
    const std::string& backend, const std::string& transport,
    const std::vector<std::pair<std::string, double>>& quantiles) {
  std::ostream* out = detail::json_stream();
  if (!out) return;
  detail::write_json_head(*out, name, params);
  *out << "},\"backend\":\"" << detail::json_escape(backend) << '"';
  if (!transport.empty()) {
    *out << ",\"transport\":\"" << detail::json_escape(transport) << '"';
  }
  for (const auto& [key, v] : quantiles) {
    *out << ",\"" << detail::json_escape(key) << "\":";
    detail::write_json_number(*out, v, "%.6g");
  }
  *out << "}\n";
  out->flush();
}

/// Reports on a traced run according to the CLI options: prints the phase
/// and critical-path summaries under `label` (--trace-report) and writes the
/// chrome trace JSON (--trace-out; the last reported run wins). No-op for
/// untraced runs.
inline void report_trace(const fxpar::machine::RunResult& res, const std::string& label) {
  if (!res.trace) return;
  if (options().trace_report) {
    std::printf("--- trace report: %s ---\n", label.c_str());
    std::fputs(fxpar::trace::phase_report(*res.trace).to_string().c_str(), stdout);
    std::fputs(fxpar::trace::critical_path(*res.trace).to_string().c_str(), stdout);
  }
  if (!options().trace_out.empty()) {
    try {
      fxpar::trace::write_chrome_trace(*res.trace, options().trace_out);
    } catch (const std::exception& e) {
      std::cerr << "--trace-out: " << e.what() << '\n';
    }
  }
}

/// Writes the run's metrics snapshot to the --metrics-out sink (the last
/// reported run wins, mirroring --trace-out). The format follows the file
/// extension: `.json` gets the JSON object, anything else the Prometheus
/// text exposition; `-` prints the exposition to stdout. No-op when the
/// flag was not given or the run carried no snapshot (--metrics off).
inline void report_metrics(const fxpar::machine::RunResult& res) {
  const std::string& path = options().metrics_out;
  if (path.empty() || !res.metrics) return;
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  const std::string body = json ? res.metrics->to_json() : res.metrics->to_prometheus();
  if (path == "-") {
    std::fputs(body.c_str(), stdout);
    return;
  }
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    std::cerr << "--metrics-out: cannot write '" << path << "'\n";
    return;
  }
  file << body;
}

/// Runs the mapping algorithm's choice and the DP baseline for one stream
/// application, reproducing one row of Table 1. The throughput constraint
/// is expressed relative to the measured DP throughput (the paper's
/// absolute rates are Paragon-specific; the *relative* demand — e.g. Table 1
/// asks for 8/3.90 = 2.05x the DP rate for 256x256 FFT-Hist — is what the
/// experiment is about).
template <typename T>
void table1_row(const char* name, const char* size_desc,
                const fxpar::machine::MachineConfig& mcfg,
                const std::vector<fxpar::apps::PipelineStage<T>>& stages,
                const fxpar::sched::PipelineModel& model, int num_sets,
                double rel_constraint) {
  using fxpar::apps::run_stream_pipeline;
  namespace sched = fxpar::sched;

  const int S = static_cast<int>(stages.size());
  const auto run_cfg = maybe_traced(apply_backend(mcfg));
  const int procs = run_cfg.num_procs;
  const HostTimer dp_timer;
  const auto dp_stats = run_stream_pipeline<T>(
      run_cfg, stages, {{0, S - 1, procs, 1}}, num_sets);
  const double dp_host_ms = dp_timer.ms();
  const double dp_thr = dp_stats.steady_throughput();
  const double dp_lat = dp_stats.avg_latency();

  // Ask the mapping algorithms (refs [21][22]) for the latency-optimal
  // mapping meeting the throughput constraint. The model's absolute scale
  // differs from the machine's, so the constraint is translated through the
  // model's own DP throughput.
  const auto model_dp = sched::data_parallel_mapping(model, procs);
  const double model_constraint = rel_constraint * model_dp.throughput;
  auto mapping = sched::min_latency_mapping(model, procs, model_constraint);
  if (!mapping.feasible) {
    mapping = sched::max_throughput_mapping(model, procs);
  }
  const HostTimer best_timer;
  const auto best_stats =
      run_stream_pipeline<T>(run_cfg, stages, mapping.modules, num_sets);
  const double best_host_ms = best_timer.ms();

  std::printf("%-10s %-12s | %8.3f %8.4f | %6.2fx | %8.3f %8.4f | %5.2fx %+6.0f%% | %s\n",
              name, size_desc, dp_thr, dp_lat, rel_constraint,
              best_stats.steady_throughput(), best_stats.avg_latency(),
              best_stats.steady_throughput() / dp_thr,
              100.0 * (best_stats.avg_latency() - dp_lat) / dp_lat,
              mapping.to_string(model).c_str());

  const std::string base = std::string(name) + "/" + size_desc;
  json_record(base + "/dp",
              {{"app", name}, {"size", size_desc},
               {"procs", std::to_string(procs)},
               {"num_sets", std::to_string(num_sets)},
               {"mapping", "data-parallel"}},
              dp_stats.machine_result, dp_host_ms);
  json_record(base + "/mapped",
              {{"app", name}, {"size", size_desc},
               {"procs", std::to_string(procs)},
               {"num_sets", std::to_string(num_sets)},
               {"constraint", std::to_string(rel_constraint)},
               {"mapping", mapping.to_string(model)}},
              best_stats.machine_result, best_host_ms);
  report_trace(best_stats.machine_result, base);
  report_metrics(best_stats.machine_result);
}

}  // namespace fxbench
