#include "obs/snapshot.h"

#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace qfcard::obs {

std::string SnapshotJson() {
  const TraceBuffer& trace = TraceBuffer::Global();
  std::ostringstream out;
  out << "{\"version\":2,\"metrics\":" << MetricsRegistry::Global().ToJson()
      << ",\"trace\":{\"capacity\":" << trace.capacity()
      << ",\"recorded\":" << trace.Recorded()
      << ",\"dropped\":" << trace.Dropped()
      << ",\"retained\":" << trace.RetainedSpans()
      << ",\"tail_sampled\":" << trace.TailSampledTraces()
      << ",\"tail_dropped\":" << trace.TailDroppedSpans() << "}}";
  return out.str();
}

bool WriteSnapshotJson(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << SnapshotJson() << "\n";
  return static_cast<bool>(out);
}

}  // namespace qfcard::obs
