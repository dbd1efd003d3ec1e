#include "exec/topology.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>

#include <filesystem>
#endif

namespace fxpar::exec {

const char* pin_policy_name(PinPolicy p) noexcept {
  switch (p) {
    case PinPolicy::None: return "none";
    case PinPolicy::Compact: return "compact";
    case PinPolicy::Scatter: return "scatter";
    case PinPolicy::Numa: return "numa";
  }
  return "?";
}

bool parse_pin_policy(const std::string& name, PinPolicy& out) noexcept {
  if (name == "none") {
    out = PinPolicy::None;
  } else if (name == "compact") {
    out = PinPolicy::Compact;
  } else if (name == "scatter") {
    out = PinPolicy::Scatter;
  } else if (name == "numa") {
    out = PinPolicy::Numa;
  } else {
    return false;
  }
  return true;
}

std::vector<int> parse_cpulist(const std::string& s) {
  std::vector<int> cpus;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    // Trim whitespace (sysfs lines end in '\n').
    const auto b = item.find_first_not_of(" \t\n\r");
    if (b == std::string::npos) continue;
    const auto e = item.find_last_not_of(" \t\n\r");
    item = item.substr(b, e - b + 1);
    const auto dash = item.find('-');
    if (dash == std::string::npos) {
      cpus.push_back(std::stoi(item));
    } else {
      const int lo = std::stoi(item.substr(0, dash));
      const int hi = std::stoi(item.substr(dash + 1));
      for (int c = lo; c <= hi; ++c) cpus.push_back(c);
    }
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

namespace {

HostTopology flat_fallback() {
  HostTopology t;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  HostTopology::Node n;
  n.id = 0;
  n.cpus.resize(hw);
  for (unsigned c = 0; c < hw; ++c) n.cpus[c] = static_cast<int>(c);
  t.nodes.push_back(std::move(n));
  return t;
}

}  // namespace

HostTopology HostTopology::detect() {
  if (std::getenv("FX_NO_NUMA") != nullptr) return flat_fallback();
#ifdef __linux__
  HostTopology t;
  try {
    namespace fs = std::filesystem;
    const fs::path root("/sys/devices/system/node");
    if (!fs::exists(root)) return flat_fallback();
    for (const auto& entry : fs::directory_iterator(root)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("node", 0) != 0 || name.size() <= 4) continue;
      bool digits = true;
      for (std::size_t i = 4; i < name.size(); ++i) {
        if (name[i] < '0' || name[i] > '9') digits = false;
      }
      if (!digits) continue;
      std::ifstream cl(entry.path() / "cpulist");
      if (!cl) continue;
      std::string line;
      std::getline(cl, line);
      Node n;
      n.id = std::stoi(name.substr(4));
      n.cpus = parse_cpulist(line);
      if (!n.cpus.empty()) t.nodes.push_back(std::move(n));
    }
  } catch (...) {
    return flat_fallback();
  }
  if (t.nodes.empty()) return flat_fallback();
  std::sort(t.nodes.begin(), t.nodes.end(),
            [](const Node& a, const Node& b) { return a.id < b.id; });
  return t;
#else
  return flat_fallback();
#endif
}

HostTopology HostTopology::synthetic(int nnodes, int cpus_per_node) {
  HostTopology t;
  int cpu = 0;
  for (int nd = 0; nd < nnodes; ++nd) {
    Node n;
    n.id = nd;
    for (int c = 0; c < cpus_per_node; ++c) n.cpus.push_back(cpu++);
    t.nodes.push_back(std::move(n));
  }
  return t;
}

std::vector<WorkerPlacement> make_pin_plan(const HostTopology& topo, PinPolicy policy,
                                           int workers) {
  std::vector<WorkerPlacement> plan(static_cast<std::size_t>(std::max(workers, 0)));
  if (policy == PinPolicy::None || workers <= 0 || topo.num_cpus() == 0) return plan;

  // Flatten (cpu, node) pairs in the order the policy consumes them; a
  // worker w gets pair w % pairs.size() (wrap on oversubscription).
  std::vector<WorkerPlacement> order;
  order.reserve(static_cast<std::size_t>(topo.num_cpus()));
  switch (policy) {
    case PinPolicy::Compact:
      // Node 0's CPUs, then node 1's, ...
      for (const auto& nd : topo.nodes) {
        for (int c : nd.cpus) order.push_back({c, nd.id});
      }
      break;
    case PinPolicy::Scatter: {
      // Round-robin across nodes: one CPU from each node in turn.
      std::size_t level = 0;
      for (bool any = true; any; ++level) {
        any = false;
        for (const auto& nd : topo.nodes) {
          if (level < nd.cpus.size()) {
            order.push_back({nd.cpus[level], nd.id});
            any = true;
          }
        }
      }
      break;
    }
    case PinPolicy::Numa: {
      // Contiguous worker blocks per node: workers [0, k) on node 0,
      // [k, 2k) on node 1, ... sized proportionally to each node's CPUs.
      // This matches block-distributed first-touch data: neighboring
      // ranks (who exchange halos) share a node. Implemented by emitting
      // the compact order but consumed blockwise below.
      for (const auto& nd : topo.nodes) {
        for (int c : nd.cpus) order.push_back({c, nd.id});
      }
      break;
    }
    case PinPolicy::None: break;  // unreachable
  }
  if (order.empty()) return plan;

  if (policy == PinPolicy::Numa && topo.num_nodes() > 1) {
    // Deal workers into per-node contiguous blocks proportional to node
    // CPU counts, then round-robin inside each node's CPU list.
    const int total_cpus = topo.num_cpus();
    int assigned = 0;
    for (int nd_i = 0; nd_i < topo.num_nodes(); ++nd_i) {
      const auto& nd = topo.nodes[static_cast<std::size_t>(nd_i)];
      const bool last = nd_i == topo.num_nodes() - 1;
      // Proportional share, rounding so the blocks tile [0, workers).
      const int share =
          last ? workers - assigned
               : static_cast<int>((static_cast<long long>(workers) *
                                   static_cast<long long>(nd.cpus.size()) + total_cpus / 2) /
                                  total_cpus);
      for (int k = 0; k < share && assigned < workers; ++k, ++assigned) {
        const int cpu = nd.cpus[static_cast<std::size_t>(k) % nd.cpus.size()];
        plan[static_cast<std::size_t>(assigned)] = {cpu, nd.id};
      }
    }
    // Rounding can leave a tail unassigned only if every share was 0;
    // fall back to compact wrap for any remainder.
    for (int w = assigned; w < workers; ++w) {
      plan[static_cast<std::size_t>(w)] =
          order[static_cast<std::size_t>(w) % order.size()];
    }
    return plan;
  }

  for (int w = 0; w < workers; ++w) {
    plan[static_cast<std::size_t>(w)] = order[static_cast<std::size_t>(w) % order.size()];
  }
  return plan;
}

bool pin_current_thread(const WorkerPlacement& p) noexcept {
  if (p.cpu < 0) return false;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(p.cpu), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  return false;
#endif
}

}  // namespace fxpar::exec
