#include "exec/probe.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "trace/blob.hpp"

namespace fxpar::exec {

using namespace trace::blob;

Probe::Baseline Probe::baseline(int rank) const {
  Baseline b;
  if (counters) {
    for (std::size_t i = 0; i < RunCounters::kSlots; ++i) b.counters[i] = counters->get(i);
  }
  if (metrics) b.metrics = metrics->registry.snapshot();
  if (flight) b.flight_total = flight->ring_total(rank);
  return b;
}

std::vector<std::byte> Probe::residue(int rank, const Baseline& base) const {
  std::vector<std::byte> out;
  // Each section is present exactly when its sink is on, on both sides.
  if (counters) {
    std::array<std::uint64_t, RunCounters::kSlots> delta{};
    for (std::size_t i = 0; i < delta.size(); ++i) delta[i] = counters->get(i) - base.counters[i];
    put(out, delta);
  }
  if (metrics) {
    const metrics::Snapshot end = metrics->registry.snapshot();
    // Section layout: [u32 counters][u32 histograms], then the entries that
    // moved since the fork; the two counts are patched in at the end.
    const std::size_t counts_at = out.size();
    std::array<std::uint32_t, 2> counts{};
    put(out, counts);
    for (const auto& [name, v] : end.counters) {
      const std::uint64_t d = v - base.metrics.counter(name);
      if (d == 0) continue;
      put_str(out, name);
      put(out, d);
      ++counts[0];
    }
    const metrics::Snapshot::Hist none{};
    for (const auto& [name, h] : end.histograms) {
      const auto it = base.metrics.histograms.find(name);
      const metrics::Snapshot::Hist& was = it == base.metrics.histograms.end() ? none : it->second;
      if (h.count == was.count && h.sum == was.sum) continue;
      std::vector<std::uint64_t> buckets = h.buckets;
      for (std::size_t i = 0; i < std::min(buckets.size(), was.buckets.size()); ++i) {
        buckets[i] -= was.buckets[i];
      }
      put_str(out, name);
      put_vec(out, buckets);
      put<std::uint64_t>(out, h.count - was.count);
      put<double>(out, h.sum - was.sum);
      ++counts[1];
    }
    std::memcpy(out.data() + counts_at, counts.data(), sizeof counts);
  }
  if (trace) trace->serialize_shard(rank, out);
  if (flight) put_vec(out, flight->events_since(rank, base.flight_total));
  return out;
}

void Probe::absorb(const std::vector<std::byte>& residue) const {
  Reader in(residue.data(), residue.size());
  if (counters) {
    const auto delta = in.get<std::array<std::uint64_t, RunCounters::kSlots>>();
    for (std::size_t i = 0; i < delta.size(); ++i) counters->add(i, delta[i]);
  }
  if (metrics) {
    const auto counts = in.get<std::array<std::uint32_t, 2>>();
    for (std::uint32_t i = 0; i < counts[0]; ++i) {
      const std::string name = in.str();
      metrics->registry.counter(name)->add(0, in.get<std::uint64_t>());
    }
    for (std::uint32_t i = 0; i < counts[1]; ++i) {
      const std::string name = in.str();
      const auto buckets = in.vec<std::uint64_t>();
      const auto count = in.get<std::uint64_t>();
      metrics->registry.histogram(name)->absorb(buckets, count, in.get<double>());
    }
  }
  if (trace) trace->absorb_shard(in);
  if (flight) {
    for (const obs::FlightEvent& e : in.vec<obs::FlightEvent>()) {
      flight->record(e.proc, e.kind, e.t, e.name, e.a, e.b);
    }
  }
}

}  // namespace fxpar::exec
