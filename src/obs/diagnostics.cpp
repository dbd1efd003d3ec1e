#include "obs/diagnostics.hpp"

#include <cstdio>
#include <sstream>

namespace fxpar::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

std::string workers_json(const std::vector<WorkerState>& workers, double now) {
  std::ostringstream os;
  os.precision(9);
  os << "[";
  bool first = true;
  for (const auto& w : workers) {
    if (!first) os << ",";
    first = false;
    os << "{\"rank\":" << w.rank << ",\"state\":\"" << json_escape(w.state)
       << "\",\"block_reason\":\"" << json_escape(w.block_reason)
       << "\",\"mailbox_depth\":" << w.mailbox_depth
       << ",\"cpu\":" << w.cpu << ",\"node\":" << w.node;
    if (w.last_beat >= 0.0) {
      os << ",\"last_beat\":" << w.last_beat
         << ",\"heartbeat_age_s\":" << (now - w.last_beat);
    } else {
      os << ",\"last_beat\":null,\"heartbeat_age_s\":null";
    }
    os << "}";
  }
  os << "]";
  return os.str();
}

std::string barriers_json(const std::vector<BarrierOccupancy>& barriers) {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const auto& b : barriers) {
    if (!first) os << ",";
    first = false;
    os << "{\"group_key\":" << b.group_key << ",\"members\":" << b.members
       << ",\"waiting\":" << b.waiting << "}";
  }
  os << "]";
  return os.str();
}

std::string diagnostic_json(const DiagnosticInfo& d) {
  std::ostringstream os;
  os.precision(9);
  os << "{\"reason\":\"" << json_escape(d.reason) << "\",\"error\":\""
     << json_escape(d.error) << "\",\"backend\":\"" << json_escape(d.backend)
     << "\",\"procs\":" << d.procs << ",\"now\":" << d.intro.now
     << ",\"workers\":" << workers_json(d.intro.workers, d.intro.now)
     << ",\"barriers\":" << barriers_json(d.intro.barriers) << ",\"metrics\":"
     << (d.metrics_json.empty() ? std::string("null") : d.metrics_json)
     << ",\"flight\":"
     << FlightRecorder::events_json(d.recent, d.max_flight_events) << "}";
  return os.str();
}

}  // namespace fxpar::obs
