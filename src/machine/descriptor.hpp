// Declarative processor descriptors: ProcessorConfig as data, not code.
//
// A descriptor is a single JSON object (format tag "fibersim-processor/1")
// holding every field of machine::ProcessorConfig — clock, vector ISA, cache
// levels, NUMA/socket interconnect, fabric, barrier and power model. The
// built-in machines under descriptors/*.json and any user-written file flow
// through exactly this loader, so "three processors from a 2021 paper"
// becomes "any machine you can describe" with no recompilation.
//
// Contracts:
//   * to_descriptor() is canonical: fixed key order, 2-space indent, every
//     field always emitted, doubles in shortest form that round-trips
//     bit-exactly. serialise -> parse -> serialise is byte-stable, and
//     parse(to_descriptor(cfg)) == cfg under ProcessorConfig's exact
//     field-wise equality (the EvalCache identity).
//   * parse_descriptor() is strict: it goes through the hardened common/json
//     grammar (duplicate keys, depth, trailing bytes all rejected) and the
//     checked parse_num paths; unknown keys, wrong types, and out-of-range
//     values each throw fibersim::Error naming the field with the byte
//     offset where the offending value starts. On any failure nothing is
//     returned — there is no partially-initialised config.
//   * Optional fields (boost_freq_hz, the eco block) default safely: a
//     machine that omits them simply has no boost/eco operating mode.
#pragma once

#include <string>
#include <string_view>

#include "machine/processor.hpp"

namespace fibersim::machine {

/// Version tag every descriptor must carry in its "format" member.
inline constexpr std::string_view kDescriptorFormat = "fibersim-processor/1";

/// Serialise every field of `cfg` as a canonical descriptor (trailing
/// newline included, ready to write to a file).
std::string to_descriptor(const ProcessorConfig& cfg);

/// Parse and validate one descriptor. Throws fibersim::Error (field name +
/// byte offset) on malformed input; the returned config always validate()s.
ProcessorConfig parse_descriptor(std::string_view text);

/// Read `path` and parse_descriptor() its contents; errors are prefixed
/// with the file path.
ProcessorConfig load_descriptor_file(const std::string& path);

}  // namespace fibersim::machine
