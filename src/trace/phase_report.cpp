#include "trace/phase_report.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace fxpar::trace {

PhaseReport phase_report(const TraceRecorder& rec) {
  PhaseReport r;
  r.makespan = rec.finish_time();
  r.num_procs = rec.num_procs();
  for (const ProcTotals& t : rec.proc_totals()) {
    r.total_busy += t.busy;
    r.total_recv_wait += t.recv_wait;
    r.total_barrier_wait += t.barrier_wait;
    r.total_io_wait += t.io_wait;
  }

  std::map<std::string, PhaseStats> by_name;
  double depth1_active = 0.0;
  for (const Span& s : rec.spans()) {
    if (s.depth == 0) continue;  // the per-proc "program" root is the denominator
    PhaseStats& p = by_name[s.name];
    if (p.instances == 0) {
      p.name = s.name;
      p.category = s.category;
    }
    p.instances += 1;
    p.wall += s.duration();
    p.busy += s.busy;
    p.recv_wait += s.recv_wait;
    p.barrier_wait += s.barrier_wait;
    p.io_wait += s.io_wait;
    p.messages += s.messages;
    p.bytes += s.bytes;
    p.plan_hits += s.plan_hits;
    p.plan_misses += s.plan_misses;
    // Depth-1 spans inclusively contain everything deeper, so summing them
    // counts each unit of attributed activity exactly once.
    if (s.depth == 1) {
      depth1_active += s.busy + s.recv_wait + s.barrier_wait + s.io_wait;
    }
  }

  const double total_active =
      r.total_busy + r.total_recv_wait + r.total_barrier_wait + r.total_io_wait;
  r.attributed_fraction = total_active > 0.0 ? depth1_active / total_active : 1.0;

  r.phases.reserve(by_name.size());
  for (auto& [name, p] : by_name) r.phases.push_back(std::move(p));
  std::stable_sort(r.phases.begin(), r.phases.end(),
                   [](const PhaseStats& a, const PhaseStats& b) {
                     return a.active() > b.active();
                   });
  return r;
}

std::string PhaseReport::to_string(std::size_t max_phases) const {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(4);
  oss << "phase report: makespan " << makespan << " s on " << num_procs
      << " procs; attributed to named spans: "
      << static_cast<int>(100.0 * attributed_fraction + 0.5) << "%\n";
  oss << "  machine activity: busy " << total_busy << " s, recv wait " << total_recv_wait
      << " s, barrier wait " << total_barrier_wait << " s, io wait " << total_io_wait
      << " s (proc-seconds)\n";
  oss << "  phase                          inst     time(s)   busy%  recvw%  barrw%    iow%"
         "      bytes\n";
  std::size_t shown = 0;
  for (const PhaseStats& p : phases) {
    if (shown++ >= max_phases) {
      oss << "  ... (" << (phases.size() - max_phases) << " more)\n";
      break;
    }
    const double a = p.active();
    auto pct = [&](double x) { return a > 0.0 ? 100.0 * x / a : 0.0; };
    char line[200];
    std::snprintf(line, sizeof(line),
                  "  %-30s %4d %11.4f  %5.1f%%  %5.1f%%  %5.1f%%  %5.1f%% %10llu\n",
                  p.name.substr(0, 30).c_str(), p.instances, a, pct(p.busy),
                  pct(p.recv_wait), pct(p.barrier_wait), pct(p.io_wait),
                  static_cast<unsigned long long>(p.bytes));
    oss << line;
  }
  oss << "  (inclusive: nested spans also count toward their parents)\n";

  // Second table: plan-cache activity, only for phases that saw any —
  // these used to exist only at run level in utilization_report.
  bool header = false;
  shown = 0;
  for (const PhaseStats& p : phases) {
    if (p.plan_hits == 0 && p.plan_misses == 0) continue;
    if (shown++ >= max_phases) break;
    if (!header) {
      oss << "  phase                           plan_hit plan_miss\n";
      header = true;
    }
    char line[200];
    std::snprintf(line, sizeof(line), "  %-30s %9llu %9llu\n", p.name.substr(0, 30).c_str(),
                  static_cast<unsigned long long>(p.plan_hits),
                  static_cast<unsigned long long>(p.plan_misses));
    oss << line;
  }
  return oss.str();
}

}  // namespace fxpar::trace
