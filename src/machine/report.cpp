#include "machine/report.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace fxpar::machine {

UtilizationSummary summarize(const RunResult& result) {
  UtilizationSummary s;
  s.makespan = result.finish_time;
  s.messages = result.messages;
  s.bytes = result.bytes;
  s.barriers = result.barriers;
  s.plan_cache_hits = result.plan_cache_hits;
  s.plan_cache_misses = result.plan_cache_misses;
  s.collective_plan_hits = result.collective_plan_hits;
  s.collective_plan_misses = result.collective_plan_misses;
  s.pool_spills = result.pool_spills;
  s.backend = result.backend;
  s.host_ms = result.host_ms;
  s.wait_ms = result.wait_ms;
  if (result.clocks.empty() || result.finish_time <= 0.0) {
    s.mean_busy_fraction = s.min_busy_fraction = s.max_busy_fraction = 0.0;
    return s;
  }
  double total = 0.0;
  s.min_busy_fraction = 2.0;
  s.max_busy_fraction = -1.0;
  for (std::size_t r = 0; r < result.clocks.size(); ++r) {
    const double f = result.clocks[r].busy / result.finish_time;
    total += f;
    if (f < s.min_busy_fraction) {
      s.min_busy_fraction = f;
      s.least_busy_proc = static_cast<int>(r);
    }
    if (f > s.max_busy_fraction) {
      s.max_busy_fraction = f;
      s.most_busy_proc = static_cast<int>(r);
    }
  }
  s.mean_busy_fraction = total / static_cast<double>(result.clocks.size());
  return s;
}

std::string utilization_report(const RunResult& result, int max_rows) {
  const UtilizationSummary s = summarize(result);
  max_rows = std::max(1, max_rows);  // a non-positive row budget means "one row"
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(4);
  oss << "machine utilization: makespan " << s.makespan << " s, mean busy "
      << static_cast<int>(100.0 * s.mean_busy_fraction + 0.5) << "%\n";
  const int P = static_cast<int>(result.clocks.size());
  if (P > 0 && s.makespan > 0.0) {
    const int group = std::max(1, (P + max_rows - 1) / max_rows);
    constexpr int kWidth = 40;
    for (int first = 0; first < P; first += group) {
      const int last = std::min(P, first + group);
      double busy = 0.0;
      for (int r = first; r < last; ++r) busy += result.clocks[static_cast<std::size_t>(r)].busy;
      const double frac = busy / (s.makespan * static_cast<double>(last - first));
      const int bar = static_cast<int>(std::lround(frac * kWidth));
      oss << "  proc";
      if (group == 1) {
        oss << " " << first << "      ";
      } else {
        oss << "s " << first << "-" << (last - 1) << "  ";
      }
      oss << "[";
      for (int i = 0; i < kWidth; ++i) oss << (i < bar ? '#' : '.');
      oss << "] " << static_cast<int>(100.0 * frac + 0.5) << "%\n";
    }
  }
  oss << "  messages " << s.messages << " (" << s.bytes << " bytes), barriers " << s.barriers
      << "\n";
  if (s.plan_cache_hits + s.plan_cache_misses > 0) {
    oss << "  redistribution plan cache: " << s.plan_cache_hits << " hits, "
        << s.plan_cache_misses << " misses\n";
  }
  if (s.collective_plan_hits + s.collective_plan_misses > 0) {
    oss << "  collective plan cache: " << s.collective_plan_hits << " hits, "
        << s.collective_plan_misses << " misses\n";
  }
  if (s.pool_spills > 0) {
    oss << "  payload pool: " << s.pool_spills << " cross-shard spills\n";
  }
  // Only the threaded backend's times are real; keep the simulator's
  // report unchanged (its makespan *is* the authoritative number).
  if (s.backend != "sim") {
    oss.precision(2);
    oss << "  backend " << s.backend << ": host " << s.host_ms << " ms, blocked "
        << s.wait_ms << " ms\n";
  }
  return oss.str();
}

std::string traffic_report(const RunResult& result, int max_cells) {
  std::ostringstream oss;
  const int P = static_cast<int>(result.clocks.size());
  if (result.traffic.empty() || P == 0) {
    return "communication matrix: not recorded "
           "(set MachineConfig::record_traffic = true before Machine::run)\n";
  }
  max_cells = std::max(1, max_cells);  // a non-positive budget means "one block"
  const int group = std::max(1, (P + max_cells - 1) / max_cells);
  const int cells = (P + group - 1) / group;
  // Aggregate into blocks.
  std::vector<std::uint64_t> blocks(static_cast<std::size_t>(cells) * cells, 0);
  std::uint64_t peak = 0;
  for (int s = 0; s < P; ++s) {
    for (int d = 0; d < P; ++d) {
      auto& cell = blocks[static_cast<std::size_t>(s / group) * cells +
                          static_cast<std::size_t>(d / group)];
      cell += result.traffic[static_cast<std::size_t>(s) * P + static_cast<std::size_t>(d)];
      peak = std::max(peak, cell);
    }
  }
  oss << "communication matrix (rows: sender blocks of " << group
      << ", cols: receivers; log scale, '9' = " << peak << " bytes)\n";
  for (int r = 0; r < cells; ++r) {
    oss << "  ";
    for (int c = 0; c < cells; ++c) {
      const std::uint64_t v = blocks[static_cast<std::size_t>(r) * cells + c];
      char ch = '.';
      if (v > 0 && peak > 0) {
        const double frac = std::log2(static_cast<double>(v) + 1.0) /
                            std::log2(static_cast<double>(peak) + 1.0);
        ch = static_cast<char>('0' + std::min(9, static_cast<int>(frac * 9.0 + 0.5)));
      }
      oss << ch;
    }
    oss << "\n";
  }
  return oss.str();
}

}  // namespace fxpar::machine
