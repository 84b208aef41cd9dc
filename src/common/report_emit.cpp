#include "common/report_emit.hpp"

#include <cstdlib>
#include <ostream>

#include "common/barchart.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/string_util.hpp"

namespace fibersim {

ReportFormat parse_report_format(std::string_view text) {
  const std::string t = to_lower(trim(text));
  if (t == "text") return ReportFormat::kText;
  if (t == "csv") return ReportFormat::kCsv;
  if (t == "json") return ReportFormat::kJson;
  throw Error("unknown report format: '" + std::string(text) +
              "' (expected text | csv | json)");
}

const char* report_format_name(ReportFormat format) {
  switch (format) {
    case ReportFormat::kText: return "text";
    case ReportFormat::kCsv: return "csv";
    case ReportFormat::kJson: return "json";
  }
  return "?";
}

std::string json_escape(std::string_view text) {
  json::Writer w;
  std::string quoted = std::move(w.value(text)).take();
  return quoted.substr(1, quoted.size() - 2);
}

namespace {

/// One bar chart per table row: the first column titles the chart, the
/// header labels the bars, cells that parse as numbers become bars.
void print_charts(const TextTable& table, const ChartSpec& spec,
                  std::ostream& os) {
  for (std::size_t r = 0; r < table.rows(); ++r) {
    BarChart chart(table.row(r)[0], spec.unit);
    for (std::size_t c = spec.first_col;
         c <= spec.last_col && c < table.columns(); ++c) {
      const std::string& cell = table.row(r)[c];
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (end != cell.c_str()) chart.add(table.header()[c], v);
    }
    chart.print(os);
    os << '\n';
  }
}

void emit_text(const ReportArtifact& artifact, const EmitOptions& opts,
               std::ostream& os) {
  const bool csv = opts.format == ReportFormat::kCsv;
  for (const ReportSection& section : artifact.sections) {
    if (opts.framed) os << "== " << section.title << " ==\n";
    if (section.table.has_value()) {
      if (csv) {
        section.table->print_csv(os);
      } else {
        section.table->print(os);
      }
      if (opts.framed) os << '\n';
    } else {
      os << section.figure;
    }
    if (opts.framed && !csv && section.chart.enabled &&
        section.table.has_value()) {
      print_charts(*section.table, section.chart, os);
    }
    for (const std::string& note :
         opts.framed ? section.notes : section.cli_notes) {
      os << note << '\n';
    }
  }
}

void emit_json(const ReportArtifact& artifact, std::ostream& os) {
  json::Writer w(json::Writer::Layout::kIndented);
  w.begin_object().field("id", artifact.id).key("sections").begin_array();
  for (const ReportSection& section : artifact.sections) {
    w.begin_object().field("title", section.title);
    if (section.table.has_value()) {
      const TextTable& table = *section.table;
      w.key("table").begin_object();
      w.key("header").begin_array(/*one_line=*/true);
      for (const std::string& cell : table.header()) w.value(cell);
      w.end_array().key("rows").begin_array();
      for (std::size_t r = 0; r < table.rows(); ++r) {
        w.begin_array(/*one_line=*/true);
        for (const std::string& cell : table.row(r)) w.value(cell);
        w.end_array();
      }
      w.end_array().end_object();
    } else {
      w.field("figure", section.figure);
    }
    w.end_object();
  }
  w.end_array().key("metrics").begin_array();
  for (const ScalarMetric& metric : artifact.metrics) {
    w.begin_object(/*one_line=*/true)
        .field("key", metric.key)
        .field("value", metric.value)
        .field("unit", metric.unit)
        .end_object();
  }
  w.end_array().end_object();
  os << std::move(w).take();
}

}  // namespace

void emit_report(const ReportArtifact& artifact, const EmitOptions& opts,
                 std::ostream& os) {
  if (opts.format == ReportFormat::kJson) {
    emit_json(artifact, os);
  } else {
    emit_text(artifact, opts, os);
  }
}

}  // namespace fibersim
