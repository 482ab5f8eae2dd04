// Chrome trace_event export of the registry's trace rings (metrics.h).
#include "src/obs/metrics.h"

#include <algorithm>
#include <vector>

namespace drtmr::obs {

const char* TraceNameString(TraceName name) {
  switch (name) {
    case TraceName::kTxn: return "txn";
    case TraceName::kTxnReadOnly: return "txn_ro";
    case TraceName::kHtmAbort: return "htm_abort";
  }
  return PhaseName(static_cast<Phase>(name));
}

void Registry::WriteChromeTrace(std::FILE* f) const {
  // Gather every ring (ring order is oldest-first once wrapped), then sort by
  // timestamp so the file streams nicely into chrome://tracing / Perfetto.
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> g(mu_);
    for (const auto& shard : all_) {
      const size_t cap = shard->trace.size();
      if (cap == 0 || shard->trace_next == 0) {
        continue;
      }
      const uint64_t n = shard->trace_next < cap ? shard->trace_next : cap;
      const uint64_t start = shard->trace_next < cap ? 0 : shard->trace_next % cap;
      for (uint64_t i = 0; i < n; ++i) {
        events.push_back(shard->trace[(start + i) % cap]);
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.ts_ns < b.ts_ns; });

  // The Chrome trace_event "JSON array format": a plain array of event
  // objects; ts/dur are microseconds (fractional allowed). pid = simulated
  // node, tid = worker slot on that node.
  std::fprintf(f, "[");
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.instant != 0) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"drtmr\",\"ph\":\"i\",\"s\":\"t\","
                   "\"pid\":%u,\"tid\":%u,\"ts\":%.3f,\"args\":{\"arg\":%llu}}",
                   i == 0 ? "" : ",", TraceNameString(e.name), e.node, e.worker,
                   static_cast<double>(e.ts_ns) / 1000.0, (unsigned long long)e.arg);
    } else {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"drtmr\",\"ph\":\"X\",\"pid\":%u,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"arg\":%llu}}",
                   i == 0 ? "" : ",", TraceNameString(e.name), e.node, e.worker,
                   static_cast<double>(e.ts_ns) / 1000.0, static_cast<double>(e.dur_ns) / 1000.0,
                   (unsigned long long)e.arg);
    }
  }
  std::fprintf(f, "\n]\n");
}

bool Registry::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  WriteChromeTrace(f);
  std::fclose(f);
  return true;
}

}  // namespace drtmr::obs
