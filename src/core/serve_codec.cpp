#include "core/serve_codec.hpp"

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/string_util.hpp"
#include "core/config_parse.hpp"
#include "core/report_flags.hpp"

namespace fibersim::core {

namespace {

constexpr std::size_t kMaxIdBytes = 256;

/// The textual token behind a request field: a JSON string's value, or a
/// JSON number's raw source token (keeps 64-bit seeds exact). Everything
/// else (bool/null/object/array) is a type error.
std::string field_token(const json::Value& v, const std::string& key,
                        std::string* problem) {
  if (v.is_string()) return v.as_string();
  if (v.is_number()) return v.raw_number();
  *problem = "field '" + key + "' must be a string or number";
  return "";
}

}  // namespace

std::string parse_serve_request(std::string_view line, ServeRequest& req) {
  std::string error;
  const std::optional<json::Value> root = json::parse(line, &error);
  if (!root) return "invalid JSON: " + error;
  if (!root->is_object()) return "request must be a JSON object";

  const json::Value* verb_v = root->find("verb");
  if (verb_v == nullptr) return "missing required field 'verb'";
  if (!verb_v->is_string()) return "field 'verb' must be a string";
  const std::string& verb = verb_v->as_string();
  if (verb == "ping") {
    req.verb = ServeRequest::Verb::kPing;
  } else if (verb == "stats") {
    req.verb = ServeRequest::Verb::kStats;
  } else if (verb == "predict") {
    req.verb = ServeRequest::Verb::kPredict;
  } else if (verb == "report") {
    req.verb = ServeRequest::Verb::kReport;
  } else {
    return "unknown verb: '" + verb +
           "' (expected ping | stats | predict | report)";
  }
  const bool predict = req.verb == ServeRequest::Verb::kPredict;
  const bool report = req.verb == ServeRequest::Verb::kReport;

  std::string problem;
  // Value parsers (parse_dataset, parse_bind, ...) throw fibersim::Error;
  // on a server every parse failure is data, so translate to the error
  // string here, once, instead of in every branch.
  try {
    for (const auto& [key, value] : root->members()) {
      if (key == "verb") continue;
      if (key == "id") {
        if (!value.is_string()) return "field 'id' must be a string";
        if (value.as_string().size() > kMaxIdBytes) {
          return strfmt("field 'id' exceeds %zu bytes", kMaxIdBytes);
        }
        req.id = value.as_string();
        continue;
      }
      const std::string token = field_token(value, key, &problem);
      if (!problem.empty()) return problem;
      if (key == "deadline_ms" && (predict || report)) {
        problem = flag_int(key, token, 1, &req.deadline_ms);
        if (!problem.empty()) return problem;
        continue;
      }
      if (predict) {
        if (key == "app") {
          req.config.app = token;
        } else if (key == "dataset") {
          req.config.dataset = parse_dataset(token);
        } else if (key == "ranks") {
          problem = flag_int(key, token, 1, &req.config.ranks);
        } else if (key == "threads") {
          problem = flag_int(key, token, 1, &req.config.threads);
        } else if (key == "nodes") {
          problem = flag_int(key, token, 1, &req.config.nodes);
        } else if (key == "bind") {
          req.config.bind = parse_bind(token);
        } else if (key == "alloc") {
          req.config.alloc = parse_alloc(token);
        } else if (key == "compile") {
          req.config.compile = parse_compile(token);
        } else if (key == "processor") {
          req.config.processor = parse_processor(token);
        } else if (key == "iterations") {
          problem = flag_int(key, token, 1, &req.config.iterations);
        } else if (key == "seed") {
          problem = flag_u64(key, token, &req.config.seed);
        } else if (key == "weak_scale") {
          problem = flag_int(key, token, 1, &req.config.weak_scale);
        } else if (key == "collapse") {
          problem = flag_bool(key, token, &req.config.collapse);
        } else {
          return "unknown predict field: '" + key + "'";
        }
      } else if (report) {
        if (key == "report") {
          req.report_id = token;
        } else if (key == "apps") {
          req.apps = split(token, ',');
        } else if (key == "dataset") {
          req.dataset = parse_dataset(token);
        } else if (key == "iterations") {
          problem = flag_int(key, token, 1, &req.iterations);
        } else if (key == "seed") {
          problem = flag_u64(key, token, &req.seed);
        } else if (key == "jobs") {
          problem = flag_int(key, token, 1, &req.jobs);
        } else if (key == "format") {
          req.format = parse_report_format(token);
        } else if (key == "collapse") {
          problem = flag_bool(key, token, &req.collapse);
        } else {
          return "unknown report field: '" + key + "'";
        }
      } else {
        return "unknown field for verb '" + verb + "': '" + key + "'";
      }
      if (!problem.empty()) return problem;
    }
  } catch (const Error& e) {
    return e.what();
  }
  if (report && req.report_id.empty()) {
    return "report requests need a 'report' experiment id";
  }
  return "";
}

std::string serve_error_response(std::string_view code, std::string_view id,
                                 std::string_view message,
                                 std::int64_t retry_after_ms) {
  json::Writer w;
  w.begin_object().field("ok", false);
  if (!id.empty()) w.field("id", id);
  w.field("code", code).field("error", message);
  if (retry_after_ms > 0) w.field("retry_after_ms", retry_after_ms);
  return std::move(w.end_object()).take();
}

json::Writer serve_ok_begin(std::string_view verb, std::string_view id) {
  json::Writer w;
  w.begin_object().field("ok", true);
  if (!id.empty()) w.field("id", id);
  w.field("verb", verb);
  return w;
}

std::string serve_ok_finish(json::Writer w, std::string_view payload) {
  return std::move(w.key("payload").raw(payload).end_object()).take();
}

}  // namespace fibersim::core
