// json_check — validate files against the repo's own strict JSON parser.
//
// CI runs this over every repo-root BENCH_*.json and every kind of JSON the
// CLI emits, so a malformed artifact (trailing commas, non-finite numbers,
// raw control bytes) fails the gate with a position-stamped message instead
// of shipping a file downstream tooling cannot read. The parser is the same
// hardened common/json used by the serve daemon: strict grammar, duplicate
// keys rejected, depth-capped.
//
// Files carrying a recognised `"format"` tag get the matching deep check on
// top of the grammar pass: processor descriptors go through
// machine::parse_descriptor (every field range-checked), calibration
// measurement dumps through machine::parse_measurements. A descriptor that
// parses as JSON but declares a negative bandwidth fails here, not at first
// use.
//
// Usage: json_check FILE [FILE...]   — exits nonzero on the first failure.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "machine/calibrate.hpp"
#include "machine/descriptor.hpp"

namespace {

// Returns "" on success, else a one-line problem description.
std::string deep_check(const fibersim::json::Value& root,
                       const std::string& text) {
  if (!root.is_object()) return "";
  const fibersim::json::Value* format = root.find("format");
  if (format == nullptr || !format->is_string()) return "";
  try {
    if (format->as_string() == fibersim::machine::kDescriptorFormat) {
      (void)fibersim::machine::parse_descriptor(text);
    } else if (format->as_string() == "fibersim-calibration/1") {
      (void)fibersim::machine::parse_measurements(text);
    }
  } catch (const fibersim::Error& e) {
    return e.what();
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: json_check FILE [FILE...]\n";
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string path = argv[i];
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "json_check: cannot open " << path << "\n";
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    const std::optional<fibersim::json::Value> root =
        fibersim::json::parse(buf.str(), &error);
    if (!root) {
      std::cerr << "json_check: " << path << ": " << error << "\n";
      return 1;
    }
    const std::string problem = deep_check(*root, buf.str());
    if (!problem.empty()) {
      std::cerr << "json_check: " << path << ": " << problem << "\n";
      return 1;
    }
    std::cout << path << ": ok\n";
  }
  return 0;
}
