// The one flag parser shared by the CLI's `report` command and the bench
// shims, so sweep/resilience/cache flags can never drift between the two
// front ends.
//
// Flags: --apps a,b  --dataset small|large  --iterations N  --seed N
//        --jobs N  --ranks N  --threads N  --collapse-ranks on|off
//        --format text|csv|json  (--csv = --format csv)
//        --list  --fault-plan spec  --retries N
//        --journal path  --keep-going  --fail-fast  --trace-cache dir
//        --processor-dir dir  (load every descriptors/*.json into the
//        processor registry before building, replacing same-name machines)
//
// Callers set front-end defaults (dataset, jobs, supplements) on
// ReportFlags::ctx before parsing; parsed flags override them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/report_emit.hpp"
#include "core/journal.hpp"
#include "core/reports.hpp"

namespace fibersim::core {

class Runner;

struct ReportFlags {
  /// ctx.runner is the caller's business; set it before building artifacts.
  ReportContext ctx;
  ReportFormat format = ReportFormat::kText;
  bool list = false;  ///< --list: print the experiment registry and exit
  std::string trace_cache_dir;
  /// --processor-dir: loaded into the ProcessorRegistry at parse time, so
  /// every comparison-set consumer sees the descriptor-defined machines.
  std::string processor_dir;
  /// Owns the --journal file handle; ctx.journal points at it.
  std::shared_ptr<SweepJournal> journal;
};

/// Parse `args` onto `flags`. Returns "" on success or a one-line error
/// message (value parse errors — bad dataset names, fault-plan grammar —
/// throw fibersim::Error instead, like every other parser here). Numeric
/// values go through the checked parsers below: "banana", trailing garbage
/// and out-of-range magnitudes come back as the error string, never as an
/// uncaught std::invalid_argument.
/// --fault-plan installs its plan immediately, overriding any env plan.
std::string parse_report_flags(const std::vector<std::string>& args,
                               ReportFlags& flags);

/// Checked "flag value" parsers shared by the CLI flag parsers and the serve
/// request codec: write the parsed value to `out` and return "", or return a
/// one-line error naming `flag` and the offending value. `min` is the
/// smallest accepted value.
std::string flag_int(const std::string& flag, const std::string& value,
                     int min, int* out);
std::string flag_u64(const std::string& flag, const std::string& value,
                     std::uint64_t* out);
std::string flag_bool(const std::string& flag, const std::string& value,
                      bool* out);

/// Attach the persistent trace store selected by --trace-cache (`dir`), or
/// — when empty — by FIBERSIM_TRACE_CACHE, to the runner.
void attach_trace_store(Runner& runner, const std::string& dir);

/// Print "id  title  [paper ref]" for every registered experiment.
void print_experiment_list(std::ostream& out);

}  // namespace fibersim::core
