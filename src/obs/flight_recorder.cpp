#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace fxpar::obs {

const char* flight_kind_name(FlightKind k) noexcept {
  switch (k) {
    case FlightKind::Span: return "span";
    case FlightKind::Message: return "send";
    case FlightKind::Recv: return "recv";
    case FlightKind::Barrier: return "barrier";
    case FlightKind::Io: return "io";
    case FlightKind::Mark: return "mark";
  }
  return "?";
}

FlightRecorder::FlightRecorder(int procs, std::size_t events_per_proc,
                               double window_s)
    : cap_(events_per_proc < 1 ? 1 : events_per_proc), window_s_(window_s) {
  rings_.reserve(static_cast<std::size_t>(procs < 0 ? 0 : procs));
  for (int p = 0; p < procs; ++p) rings_.push_back(std::make_unique<Ring>());
}

void FlightRecorder::record(int proc, FlightKind kind, double t,
                            const char* name, std::uint64_t a,
                            std::uint64_t b) {
  if (proc < 0 || static_cast<std::size_t>(proc) >= rings_.size()) return;
  Ring& r = *rings_[static_cast<std::size_t>(proc)];
  std::lock_guard<std::mutex> lk(r.mu);
  if (r.buf.size() < cap_) r.buf.resize(cap_);
  FlightEvent& e = r.buf[static_cast<std::size_t>(r.total % cap_)];
  e.t = t;
  e.a = a;
  e.b = b;
  e.proc = proc;
  e.kind = kind;
  if (name != nullptr) {
    std::strncpy(e.name, name, sizeof(e.name) - 1);
    e.name[sizeof(e.name) - 1] = '\0';
  } else {
    e.name[0] = '\0';
  }
  ++r.total;
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  for (int p = 0; p < procs(); ++p) {
    const std::vector<FlightEvent> ring = events_since(p, 0);
    out.insert(out.end(), ring.begin(), ring.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& x, const FlightEvent& y) { return x.t < y.t; });
  // Window filter keyed on the newest event — the recorder itself has no
  // clock, so "the last N seconds" means N seconds of backend time before
  // the most recent recorded timestamp.
  if (!out.empty() && window_s_ > 0.0) {
    const double cutoff = out.back().t - window_s_;
    out.erase(out.begin(),
              std::find_if(out.begin(), out.end(),
                           [cutoff](const FlightEvent& e) { return e.t >= cutoff; }));
  }
  return out;
}

namespace {

// Span names come from user code: escape them so the export stays valid
// JSON whatever the caller passed.
void append_escaped(std::ostringstream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\') {
      os << '\\' << *s;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << *s;
    }
  }
}

void append_name(std::ostringstream& os, const FlightEvent& e) {
  append_escaped(os, e.name[0] != '\0' ? e.name : flight_kind_name(e.kind));
}

void append_event_fields(std::ostringstream& os, const FlightEvent& e) {
  os << "\"name\":\"";
  append_name(os, e);
  os << "\",\"kind\":\"" << flight_kind_name(e.kind) << "\",\"t\":" << e.t
     << ",\"proc\":" << e.proc << ",\"a\":" << e.a << ",\"b\":" << e.b;
}

}  // namespace

std::string FlightRecorder::chrome_json() const {
  const auto events = snapshot();
  std::ostringstream os;
  os.setf(std::ios::fmtflags(0), std::ios::floatfield);
  os.precision(9);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"";
    append_name(os, e);
    os << "\",\"cat\":\"" << flight_kind_name(e.kind)
       << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" << e.proc
       << ",\"ts\":" << e.t * 1e6 << ",\"args\":{\"a\":" << e.a
       << ",\"b\":" << e.b << "}}";
  }
  os << "]}";
  return os.str();
}

std::string FlightRecorder::events_json(const std::vector<FlightEvent>& events,
                                        std::size_t max_events) {
  const std::size_t n = events.size();
  const std::size_t begin =
      (max_events > 0 && n > max_events) ? n - max_events : 0;
  std::ostringstream os;
  os.precision(9);
  os << "[";
  for (std::size_t i = begin; i < n; ++i) {
    if (i != begin) os << ",";
    os << "{";
    append_event_fields(os, events[i]);
    os << "}";
  }
  os << "]";
  return os.str();
}

std::vector<FlightEvent> FlightRecorder::events_since(int proc, std::uint64_t total) const {
  std::vector<FlightEvent> out;
  if (proc < 0 || static_cast<std::size_t>(proc) >= rings_.size()) return out;
  const Ring& r = *rings_[static_cast<std::size_t>(proc)];
  std::lock_guard<std::mutex> lk(r.mu);
  const std::uint64_t live = std::min<std::uint64_t>(r.total - std::min(total, r.total), cap_);
  out.reserve(static_cast<std::size_t>(live));
  // Oldest surviving event first: the ring wrapped at buf[r.total % cap].
  for (std::uint64_t i = 0; i < live; ++i) {
    out.push_back(r.buf[static_cast<std::size_t>((r.total - live + i) % cap_)]);
  }
  return out;
}

std::uint64_t FlightRecorder::ring_total(int proc) const {
  if (proc < 0 || static_cast<std::size_t>(proc) >= rings_.size()) return 0;
  const Ring& r = *rings_[static_cast<std::size_t>(proc)];
  std::lock_guard<std::mutex> lk(r.mu);
  return r.total;
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::uint64_t n = 0;
  for (const auto& rp : rings_) {
    std::lock_guard<std::mutex> lk(rp->mu);
    n += rp->total;
  }
  return n;
}

std::uint64_t FlightRecorder::dropped() const {
  std::uint64_t n = 0;
  for (const auto& rp : rings_) {
    std::lock_guard<std::mutex> lk(rp->mu);
    n += rp->total > cap_ ? rp->total - cap_ : 0;
  }
  return n;
}

}  // namespace fxpar::obs
