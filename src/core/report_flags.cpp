#include "core/report_flags.hpp"

#include <algorithm>
#include <ostream>

#include "common/parse_num.hpp"
#include "common/string_util.hpp"
#include "core/config_parse.hpp"
#include "core/experiment_registry.hpp"
#include "core/runner.hpp"
#include "fault/fault.hpp"
#include "machine/registry.hpp"
#include "trace/trace_store.hpp"

namespace fibersim::core {

std::string flag_int(const std::string& flag, const std::string& value,
                     int min, int* out) {
  const std::optional<int> v = parse_i32(value);
  if (!v) {
    return flag + ": expected an integer, got '" + value + "'";
  }
  if (*v < min) {
    return flag + " must be >= " + std::to_string(min) + ", got '" + value +
           "'";
  }
  *out = *v;
  return "";
}

std::string flag_u64(const std::string& flag, const std::string& value,
                     std::uint64_t* out) {
  const std::optional<std::uint64_t> v = parse_u64(value);
  if (!v) {
    return flag + ": expected a non-negative integer, got '" + value + "'";
  }
  *out = *v;
  return "";
}

std::string flag_bool(const std::string& flag, const std::string& value,
                      bool* out) {
  const std::string t = to_lower(value);
  if (t == "on" || t == "true" || t == "1" || t == "yes") {
    *out = true;
    return "";
  }
  if (t == "off" || t == "false" || t == "0" || t == "no") {
    *out = false;
    return "";
  }
  return flag + ": expected on|off, got '" + value + "'";
}

std::string parse_report_flags(const std::vector<std::string>& args,
                               ReportFlags& flags) {
  std::string problem;
  for (std::size_t i = 0; i < args.size();) {
    const std::string& key = args[i];
    // Flags without a value first.
    if (key == "--keep-going") {
      flags.ctx.keep_going = true;
      ++i;
      continue;
    }
    if (key == "--fail-fast") {
      flags.ctx.keep_going = false;
      ++i;
      continue;
    }
    if (key == "--csv") {
      flags.format = ReportFormat::kCsv;
      ++i;
      continue;
    }
    if (key == "--list") {
      flags.list = true;
      ++i;
      continue;
    }
    if (i + 1 >= args.size()) return "missing value for " + key;
    const std::string& value = args[i + 1];
    if (key == "--apps") {
      flags.ctx.app_names = split(value, ',');
    } else if (key == "--dataset") {
      flags.ctx.dataset = parse_dataset(value);
    } else if (key == "--iterations") {
      problem = flag_int(key, value, 1, &flags.ctx.iterations);
      if (!problem.empty()) return problem;
    } else if (key == "--seed") {
      problem = flag_u64(key, value, &flags.ctx.seed);
      if (!problem.empty()) return problem;
    } else if (key == "--jobs") {
      problem = flag_int(key, value, 1, &flags.ctx.jobs);
      if (!problem.empty()) return problem;
    } else if (key == "--ranks") {
      problem = flag_int(key, value, 1, &flags.ctx.override_ranks);
      if (!problem.empty()) return problem;
    } else if (key == "--threads") {
      problem = flag_int(key, value, 1, &flags.ctx.override_threads);
      if (!problem.empty()) return problem;
    } else if (key == "--collapse-ranks") {
      problem = flag_bool(key, value, &flags.ctx.collapse);
      if (!problem.empty()) return problem;
    } else if (key == "--format") {
      flags.format = parse_report_format(value);
    } else if (key == "--fault-plan") {
      fault::install(fault::Plan::parse(value));
    } else if (key == "--retries") {
      problem = flag_int(key, value, 0, &flags.ctx.max_retries);
      if (!problem.empty()) return problem;
    } else if (key == "--journal") {
      flags.journal = std::make_shared<SweepJournal>(value);
      flags.ctx.journal = flags.journal.get();
    } else if (key == "--trace-cache") {
      flags.trace_cache_dir = value;
    } else if (key == "--processor-dir") {
      flags.processor_dir = value;
      machine::ProcessorRegistry::instance().load_directory(value);
    } else {
      return "unknown flag: " + key;
    }
    i += 2;
  }
  return "";
}

void attach_trace_store(Runner& runner, const std::string& dir) {
  if (!dir.empty()) {
    runner.set_trace_store(std::make_shared<trace::TraceStore>(dir));
  } else if (std::shared_ptr<trace::TraceStore> store =
                 trace::TraceStore::from_env()) {
    runner.set_trace_store(std::move(store));
  }
}

void print_experiment_list(std::ostream& out) {
  const auto& experiments = ExperimentRegistry::instance().experiments();
  std::size_t id_width = 0;
  std::size_t title_width = 0;
  for (const Experiment& e : experiments) {
    id_width = std::max(id_width, e.id.size());
    title_width = std::max(title_width, e.title.size());
  }
  for (const Experiment& e : experiments) {
    out << "  " << e.id << std::string(id_width - e.id.size() + 2, ' ')
        << e.title << std::string(title_width - e.title.size() + 2, ' ')
        << '[' << e.paper_ref << "]\n";
  }
}

}  // namespace fibersim::core
