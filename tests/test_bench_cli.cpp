// Tests for the shared bench CLI (bench/bench_common.hpp): flags with a
// missing or invalid argument must exit 2 (automation depends on loud
// failures, not silently mislabeled records), tuning flags must reach
// MachineConfig, and json_record must emit `null` for non-finite numbers so
// every line stays parseable JSON for the perf-smoke gate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "metrics/metrics.hpp"

namespace {

// Runs fxbench::init on a mutable copy of `args` (argv[0] included) and
// returns the arguments it left unconsumed.
std::vector<std::string> run_init(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  const std::vector<char*> rest = fxbench::init(static_cast<int>(argv.size()), argv.data());
  return {rest.begin(), rest.end()};
}

// bench_exec's --sets parse: fxbench::int_flag over [1, 100000], default 8.
long run_sets_flag(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  return fxbench::int_flag(static_cast<int>(argv.size()), argv.data(), "--sets", 8, 1, 100000);
}

// Saves and restores the global bench options around a test that parses.
struct OptionsGuard {
  fxbench::Options saved = fxbench::options();
  ~OptionsGuard() { fxbench::options() = saved; }
};

}  // namespace

// ---------------------------------------------------------------------------
// Missing / invalid arguments exit with status 2
// ---------------------------------------------------------------------------

TEST(BenchCliDeathTest, TrailingJsonOutExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--json-out"}); std::exit(0); },
              testing::ExitedWithCode(2), "--json-out requires an argument");
}

TEST(BenchCliDeathTest, TrailingTraceOutExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--trace-out"}); std::exit(0); },
              testing::ExitedWithCode(2), "--trace-out requires an argument");
}

TEST(BenchCliDeathTest, TrailingThreadsExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--threads"}); std::exit(0); },
              testing::ExitedWithCode(2), "--threads requires an argument");
}

TEST(BenchCliDeathTest, TrailingBackendExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--backend"}); std::exit(0); },
              testing::ExitedWithCode(2), "--backend requires an argument");
}

TEST(BenchCliDeathTest, InvalidBackendExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--backend", "cuda"}); std::exit(0); },
              testing::ExitedWithCode(2), "--backend must be 'sim', 'threads' or 'proc'");
}

TEST(BenchCliDeathTest, TrailingTransportExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--transport"}); std::exit(0); },
              testing::ExitedWithCode(2), "--transport requires an argument");
}

TEST(BenchCliDeathTest, InvalidTransportExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--transport", "rdma"}); std::exit(0); },
              testing::ExitedWithCode(2), "--transport must be 'shm' or 'tcp'");
}

TEST(BenchCliDeathTest, TrailingMetricsExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--metrics"}); std::exit(0); },
              testing::ExitedWithCode(2), "--metrics requires an argument");
}

TEST(BenchCliDeathTest, InvalidMetricsExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--metrics", "sometimes"}); std::exit(0); },
              testing::ExitedWithCode(2), "--metrics must be 'on' or 'off'");
}

TEST(BenchCliDeathTest, TrailingMetricsOutExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--metrics-out"}); std::exit(0); },
              testing::ExitedWithCode(2), "--metrics-out requires an argument");
}

TEST(BenchCliDeathTest, TrailingObsPortExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--obs-port"}); std::exit(0); },
              testing::ExitedWithCode(2), "--obs-port requires an argument");
}

TEST(BenchCliDeathTest, InvalidObsPortExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--obs-port", "http"}); std::exit(0); },
              testing::ExitedWithCode(2), "--obs-port must be a port");
  EXPECT_EXIT({ run_init({"bench", "--obs-port", "70000"}); std::exit(0); },
              testing::ExitedWithCode(2), "--obs-port must be a port");
}

TEST(BenchCliDeathTest, TrailingFlightRecorderExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--flight-recorder"}); std::exit(0); },
              testing::ExitedWithCode(2), "--flight-recorder requires an argument");
}

TEST(BenchCliDeathTest, InvalidFlightRecorderExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--flight-recorder", "always"}); std::exit(0); },
              testing::ExitedWithCode(2), "--flight-recorder must be 'on' or 'off'");
}

// ---------------------------------------------------------------------------
// Tuning flags reach MachineConfig
// ---------------------------------------------------------------------------

TEST(BenchCli, MetricsToggleAppliesToConfig) {
  OptionsGuard guard;

  // Default: the CLI does not override the config (metrics stay on).
  fxbench::options() = fxbench::Options{};
  auto cfg = fxpar::MachineConfig::paragon(4);
  ASSERT_TRUE(cfg.metrics);  // on by default
  EXPECT_TRUE(fxbench::apply_backend(cfg).metrics);

  fxbench::options() = fxbench::Options{};
  run_init({"bench", "--metrics", "off"});
  EXPECT_EQ(fxbench::options().metrics, 0);
  EXPECT_FALSE(fxbench::apply_backend(cfg).metrics);

  fxbench::options() = fxbench::Options{};
  cfg.metrics = false;
  run_init({"bench", "--metrics", "on"});
  EXPECT_EQ(fxbench::options().metrics, 1);
  EXPECT_TRUE(fxbench::apply_backend(cfg).metrics);
}

TEST(BenchCli, ObservabilityFlagsApplyToConfig) {
  OptionsGuard guard;

  // Default: no endpoint, recorder follows the config.
  fxbench::options() = fxbench::Options{};
  auto cfg = fxpar::MachineConfig::paragon(4);
  EXPECT_EQ(fxbench::apply_backend(cfg).obs_port, -1);
  EXPECT_FALSE(fxbench::apply_backend(cfg).flight_recorder);

  fxbench::options() = fxbench::Options{};
  run_init({"bench", "--obs-port", "18917", "--flight-recorder", "on"});
  EXPECT_EQ(fxbench::options().obs_port, 18917);
  EXPECT_EQ(fxbench::options().flight_recorder, 1);
  EXPECT_EQ(fxbench::apply_backend(cfg).obs_port, 18917);
  EXPECT_TRUE(fxbench::apply_backend(cfg).flight_recorder);

  fxbench::options() = fxbench::Options{};
  run_init({"bench", "--obs-port", "0", "--flight-recorder", "off"});
  EXPECT_EQ(fxbench::options().obs_port, 0);  // ephemeral port is a valid ask
  EXPECT_EQ(fxbench::options().flight_recorder, 0);
}

// Every common flag is consumed by init, so a bench that hands the rest to
// Google Benchmark (bench_micro) never passes it a flag it cannot parse.
TEST(BenchCli, InitLeavesOnlyUnconsumedArguments) {
  OptionsGuard guard;
  const std::vector<std::string> rest = run_init(
      {"bench_micro", "--json-out", "-", "--trace-out", "t.json", "--backend", "threads",
       "--transport", "tcp", "--threads", "4", "--pinning", "compact", "--metrics", "off",
       "--metrics-out", "m.prom", "--obs-port", "0", "--flight-recorder", "on",
       "--trace-report", "--redist-compare", "--benchmark_filter=x"});
  EXPECT_EQ(rest, (std::vector<std::string>{"bench_micro", "--redist-compare",
                                            "--benchmark_filter=x"}));
}

// ---------------------------------------------------------------------------
// report_metrics picks the format from the file extension
// ---------------------------------------------------------------------------

namespace {

// A RunResult carrying a one-counter snapshot, as if a run had completed.
fxpar::machine::RunResult result_with_snapshot() {
  fxpar::metrics::Registry reg(1);
  reg.counter("fxpar_demo_total")->add(0, 5);
  fxpar::machine::RunResult res;
  res.metrics = std::make_shared<const fxpar::metrics::Snapshot>(reg.snapshot());
  return res;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

TEST(BenchCli, ReportMetricsWritesPrometheusOrJsonByExtension) {
  OptionsGuard guard;
  const fxpar::machine::RunResult res = result_with_snapshot();

  // No sink configured: nothing to do (and nothing to crash on).
  fxbench::options() = fxbench::Options{};
  fxbench::report_metrics(res);
  fxbench::report_metrics(fxpar::machine::RunResult{});  // no snapshot either

  const std::string prom_path = testing::TempDir() + "fxpar_bench_cli_metrics.prom";
  fxbench::options().metrics_out = prom_path;
  fxbench::report_metrics(res);
  const std::string prom = slurp(prom_path);
  EXPECT_NE(prom.find("# TYPE fxpar_demo_total counter"), std::string::npos) << prom;
  EXPECT_NE(prom.find("fxpar_demo_total 5"), std::string::npos) << prom;

  const std::string json_path = testing::TempDir() + "fxpar_bench_cli_metrics.json";
  fxbench::options().metrics_out = json_path;
  fxbench::report_metrics(res);
  const std::string json = slurp(json_path);
  EXPECT_NE(json.find("\"fxpar_demo_total\""), std::string::npos) << json;
  EXPECT_EQ(json.find("# TYPE"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// json_record sanitizes non-finite numbers
// ---------------------------------------------------------------------------

// json_stream() opens its sink once per process, so every record test in
// this binary shares one file and reads back its own appended lines.
namespace {

std::string record_sink_path() {
  static const std::string path = testing::TempDir() + "fxpar_bench_cli_records.jsonl";
  return path;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

}  // namespace

TEST(BenchCli, JsonRecordEmitsNullForNonFiniteValues) {
  fxbench::options().json_out = record_sink_path();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  fxbench::json_record("sanitize/nonfinite", {{"case", "nonfinite"}}, inf, nan, 7,
                       /*host_ms=*/nan, 0, 0, "threads", 4, /*wait_ms=*/inf);

  const auto lines = read_lines(record_sink_path());
  ASSERT_FALSE(lines.empty());
  const std::string& rec = lines.back();
  ASSERT_NE(rec.find("\"name\":\"sanitize/nonfinite\""), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"time_s\":null"), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"efficiency\":null"), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"host_ms\":null"), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"wait_ms\":null"), std::string::npos) << rec;
  // No bare non-JSON tokens anywhere in the line.
  EXPECT_EQ(rec.find("inf"), std::string::npos) << rec;
  EXPECT_EQ(rec.find("nan"), std::string::npos) << rec;
  // The finite fields still round-trip.
  EXPECT_NE(rec.find("\"comm_bytes\":7"), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"threads\":4"), std::string::npos) << rec;
}

TEST(BenchCli, JsonRecordFiniteValuesAndOptionalFields) {
  fxbench::options().json_out = record_sink_path();
  // Optional fields left at their defaults are absent, not zero, so the
  // perf gate can tell "not provided" from a measured 0.
  fxbench::json_record("sanitize/finite", {{"case", "plain"}}, 1.5, 0.75, 10);

  const auto lines = read_lines(record_sink_path());
  ASSERT_FALSE(lines.empty());
  const std::string& rec = lines.back();
  ASSERT_NE(rec.find("\"name\":\"sanitize/finite\""), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"time_s\":1.5"), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"efficiency\":0.75"), std::string::npos) << rec;
  EXPECT_EQ(rec.find("\"threads\""), std::string::npos) << rec;
  EXPECT_EQ(rec.find("\"host_ms\""), std::string::npos) << rec;
  EXPECT_EQ(rec.find("\"wait_ms\""), std::string::npos) << rec;
  EXPECT_EQ(rec.find("null"), std::string::npos) << rec;
  // Every record carries the process memory-pressure counters.
  EXPECT_NE(rec.find("\"minor_faults\":"), std::string::npos) << rec;
  EXPECT_NE(rec.find("\"max_rss_kb\":"), std::string::npos) << rec;
}

// ---------------------------------------------------------------------------
// Numeric flag validation: zero, negative, malformed and overflowing values
// must die loudly instead of silently mislabeling a run
// ---------------------------------------------------------------------------

TEST(BenchCliDeathTest, ThreadsZeroExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--threads", "0"}); std::exit(0); },
              testing::ExitedWithCode(2),
              "--threads must be an integer in \\[1, 4096\\], got '0'");
}

TEST(BenchCliDeathTest, ThreadsNegativeExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--threads", "-4"}); std::exit(0); },
              testing::ExitedWithCode(2), "--threads must be an integer");
}

TEST(BenchCliDeathTest, ThreadsMalformedExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--threads", "abc"}); std::exit(0); },
              testing::ExitedWithCode(2), "--threads must be an integer");
}

TEST(BenchCliDeathTest, ThreadsTrailingJunkExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--threads", "4x"}); std::exit(0); },
              testing::ExitedWithCode(2), "--threads must be an integer");
}

TEST(BenchCliDeathTest, ThreadsOverflowExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--threads", "99999999999999999999"}); std::exit(0); },
              testing::ExitedWithCode(2), "--threads must be an integer");
}

TEST(BenchCliDeathTest, ObsPortOutOfRangeExitsTwo) {
  EXPECT_EXIT({ run_init({"bench", "--obs-port", "65536"}); std::exit(0); },
              testing::ExitedWithCode(2), "--obs-port must be a port");
}

// The serving bench's flags go through the same validators; exercise them
// directly so their contract is pinned without spawning the bench binary.

TEST(BenchCliDeathTest, ParseIntFlagRejectsBelowRange) {
  EXPECT_EXIT({ (void)fxbench::parse_int_flag("--streams", "0", 1, 1024); std::exit(0); },
              testing::ExitedWithCode(2),
              "--streams must be an integer in \\[1, 1024\\], got '0'");
}

TEST(BenchCliDeathTest, ParseDoubleFlagRejectsNegative) {
  EXPECT_EXIT(
      { (void)fxbench::parse_double_flag("--arrival-rate", "-1", 1e-9, 1e15); std::exit(0); },
      testing::ExitedWithCode(2), "--arrival-rate must be a number");
}

TEST(BenchCliDeathTest, ParseDoubleFlagRejectsNonFinite) {
  EXPECT_EXIT(
      { (void)fxbench::parse_double_flag("--duration", "inf", 1e-9, 1e9); std::exit(0); },
      testing::ExitedWithCode(2), "--duration must be a number");
}

TEST(BenchCliDeathTest, ParseDoubleFlagRejectsMalformed) {
  EXPECT_EXIT(
      { (void)fxbench::parse_double_flag("--duration", "1x2", 1e-9, 1e9); std::exit(0); },
      testing::ExitedWithCode(2), "--duration must be a number");
}

// bench_exec --sets used std::atoi: 0 or "abc" ended in std::terminate and
// -2 in std::length_error. It now goes through the shared validator.
TEST(BenchCliDeathTest, SetsZeroExitsTwo) {
  EXPECT_EXIT({ (void)run_sets_flag({"bench_exec", "--sets", "0"}); std::exit(0); },
              testing::ExitedWithCode(2),
              "--sets must be an integer in \\[1, 100000\\], got '0'");
}

TEST(BenchCliDeathTest, SetsMalformedExitsTwo) {
  EXPECT_EXIT({ (void)run_sets_flag({"bench_exec", "--sets", "abc"}); std::exit(0); },
              testing::ExitedWithCode(2), "--sets must be an integer");
}

TEST(BenchCliDeathTest, SetsNegativeExitsTwo) {
  EXPECT_EXIT({ (void)run_sets_flag({"bench_exec", "--sets", "-2"}); std::exit(0); },
              testing::ExitedWithCode(2), "--sets must be an integer");
}

TEST(BenchCliDeathTest, TrailingSetsExitsTwo) {
  EXPECT_EXIT({ (void)run_sets_flag({"bench_exec", "--sets"}); std::exit(0); },
              testing::ExitedWithCode(2), "--sets requires an argument");
}

TEST(BenchCli, SetsFlagDefaultsAndParses) {
  EXPECT_EQ(run_sets_flag({"bench_exec"}), 8);
  EXPECT_EQ(run_sets_flag({"bench_exec", "--threads", "4", "--sets", "100000"}), 100000);
}

// bench_fig7_barneshut reports modeled time and its force phase is not safe
// on the concurrent backends: any other --backend must exit 2, not print
// simulated numbers under a threads/proc label.
TEST(BenchCliDeathTest, SimOnlyBenchRejectsOtherBackends) {
  EXPECT_EXIT(
      {
        run_init({"bench_fig7_barneshut", "--backend", "threads"});
        fxbench::require_sim_backend("bench_fig7_barneshut", "modeled time");
        std::exit(0);
      },
      testing::ExitedWithCode(2),
      "bench_fig7_barneshut: only --backend sim is supported \\(modeled time\\), got 'threads'");
  EXPECT_EXIT(
      {
        run_init({"bench_fig7_barneshut", "--backend", "proc"});
        fxbench::require_sim_backend("bench_fig7_barneshut", "modeled time");
        std::exit(0);
      },
      testing::ExitedWithCode(2), "got 'proc'");
}

TEST(BenchCli, SimOnlyBenchAcceptsSim) {
  OptionsGuard guard;
  run_init({"bench_fig7_barneshut", "--backend", "sim"});
  fxbench::require_sim_backend("bench_fig7_barneshut", "modeled time");
  SUCCEED();
}

TEST(BenchCli, ParsersAcceptInRangeValues) {
  EXPECT_EQ(fxbench::parse_int_flag("--streams", "8", 1, 1024), 8);
  EXPECT_EQ(fxbench::parse_int_flag("--threads", "4096", 1, 4096), 4096);
  EXPECT_DOUBLE_EQ(fxbench::parse_double_flag("--duration", "2.5", 1e-9, 1e9), 2.5);
}
