// Shared flag vocabulary for the example binaries (qfcard_cli,
// serving_loop, qfcard_server): telemetry outputs and model-store
// persistence. Each example keeps its own loop over argv and offers every
// unrecognized argument to TryParseCommonFlag first, so the flags below mean
// the same thing — and fail the same way — in every binary.
//
//   --metrics-out=PATH  enable telemetry (as if QFCARD_METRICS=1) and write
//                       the JSON snapshot (metrics + trace stats) to PATH on
//                       exit; tools/validate_metrics.py checks this file
//                       against tools/metrics_schema.json
//   --trace-out=PATH    enable stage tracing (as if QFCARD_TRACE=1) and
//                       write the Chrome trace-event JSON (load it in
//                       Perfetto or chrome://tracing; pid=route,
//                       tid=thread) to PATH on exit; tools/analyze_trace.py
//                       reads it
//   --model-dir=PATH    serve::ModelStore root for --save-model/--load-model
//   --save-model        after training, publish the model to --model-dir as
//                       the next version (ML estimators only)
//   --load-model[=N]    skip training and serve version N (default: latest)
//                       from --model-dir
//   --workload=FAMILY   build the catalog and train/test workload from a
//                       registered workload family (workload::FamilyNames())
//                       instead of a CSV or the synthetic forest; unknown
//                       names fail with a did-you-mean suggestion
//   --adaptive=MODE     put the adapt::AdaptiveEstimator front in front of
//                       the served ML path (docs/adaptive.md). MODE is one
//                       of off|knn|residual|auto; anything else fails with
//                       the mode vocabulary

#ifndef QFCARD_EXAMPLES_COMMON_FLAGS_H_
#define QFCARD_EXAMPLES_COMMON_FLAGS_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "qfcard.h"

namespace qfcard::examples {

struct CommonFlags {
  std::string metrics_out;
  std::string trace_out;
  std::string model_dir;
  bool save_model = false;
  bool load_model = false;
  uint64_t load_version = 0;  ///< 0 = latest
  std::string workload;  ///< workload family name; resolved via
                         ///< workload::FamilyNamed at startup
  /// --adaptive= mode; kOff (plain ML passthrough) unless the flag is given.
  adapt::AdaptiveMode adaptive = adapt::AdaptiveMode::kOff;
  bool adaptive_set = false;  ///< true when --adaptive= appeared
};

/// Consumes `arg` if it is one of the shared flags. Returns true when the
/// flag was recognized and applied, false when the caller should handle it,
/// and an error when it was recognized but malformed.
inline common::StatusOr<bool> TryParseCommonFlag(const std::string& arg,
                                                 CommonFlags* flags) {
  if (arg.rfind("--metrics-out=", 0) == 0) {
    flags->metrics_out = arg.substr(14);
    return true;
  }
  if (arg.rfind("--trace-out=", 0) == 0) {
    flags->trace_out = arg.substr(12);
    return true;
  }
  if (arg.rfind("--model-dir=", 0) == 0) {
    flags->model_dir = arg.substr(12);
    return true;
  }
  if (arg.rfind("--workload=", 0) == 0) {
    flags->workload = arg.substr(11);
    if (flags->workload.empty()) {
      return common::Status::InvalidArgument(
          "--workload= wants a family name; registered: " +
          common::Join(workload::FamilyNames(), ", "));
    }
    return true;
  }
  if (arg.rfind("--adaptive=", 0) == 0) {
    QFCARD_ASSIGN_OR_RETURN(flags->adaptive,
                            adapt::ParseAdaptiveMode(arg.substr(11)));
    flags->adaptive_set = true;
    return true;
  }
  if (arg == "--save-model") {
    flags->save_model = true;
    return true;
  }
  if (arg == "--load-model") {
    flags->load_model = true;
    return true;
  }
  if (arg.rfind("--load-model=", 0) == 0) {
    flags->load_model = true;
    const std::string version = arg.substr(13);
    char* end = nullptr;
    flags->load_version = std::strtoull(version.c_str(), &end, 10);
    if (version.empty() || end == nullptr || *end != '\0' ||
        flags->load_version == 0) {
      return common::Status::InvalidArgument(
          "--load-model= wants a positive version number, got: " + version);
    }
    return true;
  }
  return false;
}

/// Cross-flag consistency checks shared by every binary that persists
/// models. Call once after the argv loop.
inline common::Status ValidateCommonFlags(const CommonFlags& flags) {
  if ((flags.save_model || flags.load_model) && flags.model_dir.empty()) {
    return common::Status::InvalidArgument(
        "--save-model/--load-model need --model-dir=PATH");
  }
  if (flags.save_model && flags.load_model) {
    return common::Status::InvalidArgument(
        "--save-model and --load-model are mutually exclusive (a loaded "
        "model is already in the store)");
  }
  return common::Status::Ok();
}

/// Turns on the telemetry subsystems the output flags imply. Call before
/// the first traced/measured work.
inline void ApplyTelemetryFlags(const CommonFlags& flags) {
  if (!flags.metrics_out.empty()) obs::SetMetricsEnabled(true);
  if (!flags.trace_out.empty()) obs::SetTraceEnabled(true);
}

/// Writes the requested snapshot/trace files. Returns false (after printing
/// to stderr) if any write failed — the caller should exit nonzero so CI
/// catches a missing snapshot.
inline bool WriteTelemetryOutputs(const CommonFlags& flags) {
  bool ok = true;
  if (!flags.metrics_out.empty()) {
    if (obs::WriteSnapshotJson(flags.metrics_out)) {
      std::fprintf(stderr, "telemetry snapshot written to %s\n",
                   flags.metrics_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write metrics snapshot to %s\n",
                   flags.metrics_out.c_str());
      ok = false;
    }
  }
  if (!flags.trace_out.empty()) {
    if (obs::WriteTraceEventJson(flags.trace_out)) {
      std::fprintf(stderr, "trace written to %s\n", flags.trace_out.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   flags.trace_out.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace qfcard::examples

#endif  // QFCARD_EXAMPLES_COMMON_FLAGS_H_
