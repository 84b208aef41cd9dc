// The serve benches' shared request mix: the predict targets perf_serve and
// perf_resilience send, the request line for each, the ExperimentConfig an
// in-process baseline runs for it, and the payload of an ok response.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/runner.hpp"

namespace fibersim::bench {

/// Two apps x two splits = four unique execution keys, so coalescing and
/// both cache tiers are exercised at any client count.
struct Target {
  std::string app;
  int ranks;
  int threads;
};
inline const std::vector<Target> kTargets = {
    {"ffvc", 2, 2}, {"ffvc", 4, 2}, {"ffb", 2, 2}, {"ffb", 4, 2}};

/// The predict request for `t` on the small dataset; `deadline_ms` > 0 adds
/// a deadline.
inline std::string predict_line(const Target& t, const std::string& id,
                                int deadline_ms = 0) {
  json::Writer w;
  w.begin_object()
      .field("verb", "predict")
      .field("id", id)
      .field("app", t.app)
      .field("dataset", "small")
      .field("ranks", t.ranks)
      .field("threads", t.threads)
      .field("iterations", 1);
  if (deadline_ms > 0) w.field("deadline_ms", deadline_ms);
  return std::move(w.end_object()).take();
}

inline core::ExperimentConfig config_of(const Target& t) {
  core::ExperimentConfig cfg;
  cfg.app = t.app;
  cfg.dataset = apps::Dataset::kSmall;
  cfg.ranks = t.ranks;
  cfg.threads = t.threads;
  cfg.iterations = 1;
  return cfg;
}

/// The payload of an ok:true response: everything after the single
/// `"payload":` key (always the last key, by the codec contract), minus the
/// closing brace; "" when there is none.
inline std::string payload_of(const std::string& response) {
  const std::string marker = "\"payload\":";
  const std::size_t pos = response.find(marker);
  if (pos == std::string::npos || response.empty() ||
      response.back() != '}') {
    return "";
  }
  return response.substr(pos + marker.size(),
                         response.size() - pos - marker.size() - 1);
}

}  // namespace fibersim::bench
