// Unit suites for the serve resilience primitives: cooperative cancellation
// (common/cancel), the per-key circuit breaker (core/circuit), journal
// crash-durability (fsync-before-ack + torn-tail truncation at EVERY byte
// offset), and the client retry policy. The end-to-end behaviours these
// primitives compose into live in test_serve.cpp and bench/perf_resilience.
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "core/circuit.hpp"
#include "core/journal.hpp"
#include "core/runner.hpp"
#include "core/serve.hpp"

namespace {

using namespace fibersim;
using core::CircuitBreaker;
using core::CircuitDecision;
using core::CircuitOptions;
using core::ExperimentConfig;
using core::ExperimentResult;
using core::SweepJournal;

// ----- cancellation tokens ------------------------------------------------

TEST(Cancel, CheckpointIsNoOpWithoutToken) {
  ASSERT_EQ(cancel::current(), nullptr);
  EXPECT_NO_THROW(cancel::checkpoint());
}

TEST(Cancel, LiveTokenDoesNotThrow) {
  auto token = std::make_shared<cancel::Token>();
  cancel::Scope scope(token);
  EXPECT_EQ(cancel::current(), token.get());
  EXPECT_FALSE(token->has_deadline());
  EXPECT_FALSE(token->expired());
  EXPECT_NO_THROW(cancel::checkpoint());
}

TEST(Cancel, ExpiredDeadlineThrowsMarkedError) {
  auto token = std::make_shared<cancel::Token>();
  token->set_deadline(cancel::Token::Clock::now() -
                      std::chrono::milliseconds(1));
  EXPECT_TRUE(token->has_deadline());
  EXPECT_TRUE(token->expired());
  EXPECT_EQ(token->reason(), "deadline exceeded");
  cancel::Scope scope(token);
  try {
    cancel::checkpoint();
    FAIL() << "checkpoint() did not throw past the deadline";
  } catch (const Error& e) {
    EXPECT_TRUE(cancel::is_cancelled(e.what())) << e.what();
  }
}

TEST(Cancel, FutureDeadlineStaysLiveUntilItPasses) {
  auto token = std::make_shared<cancel::Token>();
  token->set_deadline_ms(3'600'000);  // an hour out: never expires in-test
  cancel::Scope scope(token);
  EXPECT_FALSE(token->expired());
  EXPECT_NO_THROW(cancel::checkpoint());
}

TEST(Cancel, ExplicitCancelExpiresAndFirstReasonWins) {
  cancel::Token token;
  token.cancel("client gone");
  token.cancel("second reason loses");
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(token.reason(), "client gone");
}

TEST(Cancel, ScopesNestAndRestore) {
  auto outer = std::make_shared<cancel::Token>();
  auto inner = std::make_shared<cancel::Token>();
  {
    cancel::Scope a(outer);
    EXPECT_EQ(cancel::current(), outer.get());
    {
      cancel::Scope b(inner);
      EXPECT_EQ(cancel::current(), inner.get());
    }
    EXPECT_EQ(cancel::current(), outer.get());
  }
  EXPECT_EQ(cancel::current(), nullptr);
}

TEST(Cancel, NullScopeIsANoOp) {
  cancel::Scope scope(nullptr);
  EXPECT_EQ(cancel::current(), nullptr);
  EXPECT_NO_THROW(cancel::checkpoint());
}

TEST(Cancel, TokenIsThreadLocalToItsScope) {
  auto token = std::make_shared<cancel::Token>();
  token->cancel("only this thread");
  cancel::Scope scope(token);
  cancel::Token* seen = token.get();
  std::thread([&] { seen = cancel::current(); }).join();
  EXPECT_EQ(seen, nullptr);  // other threads never see our token
}

TEST(Cancel, IsCancelledMatchesOnlyTheMarker) {
  EXPECT_TRUE(cancel::is_cancelled("cancelled: deadline exceeded"));
  EXPECT_FALSE(cancel::is_cancelled("run failed: injected"));
  EXPECT_FALSE(cancel::is_cancelled(""));
}

// ----- circuit breaker ----------------------------------------------------

CircuitOptions tight_circuit() {
  CircuitOptions o;
  o.failure_threshold = 3;
  o.window = 8;
  o.open_ms = 1000;
  return o;
}

using Clock = CircuitBreaker::Clock;

TEST(Circuit, ClosedBreakerAdmitsEverything) {
  CircuitBreaker breaker(tight_circuit());
  const auto now = Clock::now();
  for (int i = 0; i < 10; ++i) {
    const CircuitDecision d = breaker.admit("k", now);
    EXPECT_TRUE(d.admit);
    EXPECT_FALSE(d.probe);
    breaker.record_success("k", d.probe, now);
  }
  EXPECT_EQ(breaker.stats().trips, 0u);
  EXPECT_FALSE(breaker.is_open("k", now));
}

TEST(Circuit, TripsAtThresholdAndRejectsWithRetryHint) {
  CircuitBreaker breaker(tight_circuit());
  const auto now = Clock::now();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.admit("k", now).admit);
    breaker.record_failure("k", false, now);
  }
  EXPECT_TRUE(breaker.is_open("k", now));
  const CircuitDecision d = breaker.admit("k", now);
  EXPECT_FALSE(d.admit);
  EXPECT_GT(d.retry_after_ms, 0);
  EXPECT_LE(d.retry_after_ms, 1000);
  const auto stats = breaker.stats();
  EXPECT_EQ(stats.trips, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.open_now, 1u);
}

TEST(Circuit, FailuresBelowThresholdNeverTrip) {
  CircuitBreaker breaker(tight_circuit());
  const auto now = Clock::now();
  // Two failures per 9 outcomes: the sliding 8-outcome window never holds
  // threshold=3 failures at once, so the breaker must stay closed forever.
  for (int round = 0; round < 5; ++round) {
    breaker.record_failure("k", false, now);
    breaker.record_failure("k", false, now);
    for (int i = 0; i < 7; ++i) breaker.record_success("k", false, now);
  }
  EXPECT_FALSE(breaker.is_open("k", now));
  EXPECT_EQ(breaker.stats().trips, 0u);
}

TEST(Circuit, SuccessResetsAfterRecovery) {
  CircuitBreaker breaker(tight_circuit());
  const auto t0 = Clock::now();
  for (int i = 0; i < 3; ++i) breaker.record_failure("k", false, t0);
  ASSERT_TRUE(breaker.is_open("k", t0));
  const auto t1 = t0 + std::chrono::milliseconds(1001);
  const CircuitDecision probe = breaker.admit("k", t1);
  ASSERT_TRUE(probe.admit);
  ASSERT_TRUE(probe.probe);
  breaker.record_success("k", true, t1);
  // Fully closed again: the old failure window is gone, a single new
  // failure must not re-trip.
  EXPECT_FALSE(breaker.is_open("k", t1));
  breaker.record_failure("k", false, t1);
  EXPECT_FALSE(breaker.is_open("k", t1));
  EXPECT_EQ(breaker.stats().half_opens, 1u);
}

TEST(Circuit, HalfOpenAdmitsExactlyOneProbe) {
  CircuitBreaker breaker(tight_circuit());
  const auto t0 = Clock::now();
  for (int i = 0; i < 3; ++i) breaker.record_failure("k", false, t0);
  const auto t1 = t0 + std::chrono::milliseconds(1500);
  const CircuitDecision first = breaker.admit("k", t1);
  EXPECT_TRUE(first.admit);
  EXPECT_TRUE(first.probe);
  // While the probe is in flight everyone else keeps getting rejected.
  for (int i = 0; i < 4; ++i) {
    const CircuitDecision other = breaker.admit("k", t1);
    EXPECT_FALSE(other.admit);
  }
  EXPECT_TRUE(breaker.is_open("k", t1));
}

TEST(Circuit, FailedProbeReopensForAnotherFullWindow) {
  CircuitBreaker breaker(tight_circuit());
  const auto t0 = Clock::now();
  for (int i = 0; i < 3; ++i) breaker.record_failure("k", false, t0);
  const auto t1 = t0 + std::chrono::milliseconds(1100);
  const CircuitDecision probe = breaker.admit("k", t1);
  ASSERT_TRUE(probe.probe);
  breaker.record_failure("k", true, t1);
  // Re-opened at t1: still rejecting shortly after, probing again only
  // after another full open_ms.
  EXPECT_FALSE(breaker.admit("k", t1 + std::chrono::milliseconds(500)).admit);
  const CircuitDecision again =
      breaker.admit("k", t1 + std::chrono::milliseconds(1100));
  EXPECT_TRUE(again.admit);
  EXPECT_TRUE(again.probe);
  EXPECT_EQ(breaker.stats().trips, 2u);
  EXPECT_EQ(breaker.stats().half_opens, 2u);
}

TEST(Circuit, ShedProbeMustBeReportedOrReleasedViaFailure) {
  // The serve layer sheds a probe that loses the BUSY/deadline race by
  // reporting it as a failure — the circuit re-opens instead of wedging
  // half-open with a phantom probe in flight forever.
  CircuitBreaker breaker(tight_circuit());
  const auto t0 = Clock::now();
  for (int i = 0; i < 3; ++i) breaker.record_failure("k", false, t0);
  const auto t1 = t0 + std::chrono::milliseconds(1100);
  ASSERT_TRUE(breaker.admit("k", t1).probe);
  breaker.record_failure("k", true, t1);  // shed: release the probe slot
  const auto t2 = t1 + std::chrono::milliseconds(1100);
  const CircuitDecision retry = breaker.admit("k", t2);
  EXPECT_TRUE(retry.admit);
  EXPECT_TRUE(retry.probe);
  breaker.record_success("k", true, t2);
  EXPECT_FALSE(breaker.is_open("k", t2));
}

TEST(Circuit, KeysAreIndependent) {
  CircuitBreaker breaker(tight_circuit());
  const auto now = Clock::now();
  for (int i = 0; i < 3; ++i) breaker.record_failure("poisoned", false, now);
  EXPECT_TRUE(breaker.is_open("poisoned", now));
  EXPECT_TRUE(breaker.admit("healthy", now).admit);
  EXPECT_FALSE(breaker.is_open("healthy", now));
  EXPECT_EQ(breaker.stats().open_now, 1u);
}

TEST(Circuit, LateFailureAfterRecoveryIsIgnored) {
  // A request admitted before the trip may report its failure after a later
  // probe already closed the circuit; that stale outcome must not re-trip.
  CircuitBreaker breaker(tight_circuit());
  const auto t0 = Clock::now();
  for (int i = 0; i < 3; ++i) breaker.record_failure("k", false, t0);
  const auto t1 = t0 + std::chrono::milliseconds(1100);
  ASSERT_TRUE(breaker.admit("k", t1).probe);
  // Stale non-probe failure lands while half-open: ignored.
  breaker.record_failure("k", false, t1);
  breaker.record_success("k", true, t1);
  EXPECT_FALSE(breaker.is_open("k", t1));
}

TEST(Circuit, OptionsValidate) {
  CircuitOptions bad = tight_circuit();
  bad.failure_threshold = 0;
  EXPECT_THROW(bad.validate(), Error);
  bad = tight_circuit();
  bad.window = 0;
  EXPECT_THROW(bad.validate(), Error);
  bad = tight_circuit();
  bad.open_ms = 0;
  EXPECT_THROW(bad.validate(), Error);
  bad = tight_circuit();
  bad.window = bad.failure_threshold - 1;
  EXPECT_THROW(bad.validate(), Error);
  EXPECT_NO_THROW(tight_circuit().validate());
}

// ----- journal durability -------------------------------------------------

ExperimentConfig journal_config(int ranks, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.app = "ffvc";
  cfg.dataset = apps::Dataset::kSmall;
  cfg.ranks = ranks;
  cfg.threads = 1;
  cfg.iterations = 1;
  cfg.seed = seed;
  return cfg;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(JournalDurability, RecordReportsDurabilityAndFileEndsInNewline) {
  const std::string path = ::testing::TempDir() + "fibersim_jd_ack.jsonl";
  std::remove(path.c_str());
  core::Runner runner;
  const ExperimentConfig cfg = journal_config(2, 7);
  const ExperimentResult res = runner.run(cfg);
  SweepJournal journal(path);
  EXPECT_TRUE(journal.record(cfg, res));
  // Re-recording the same fingerprint is a durable no-op.
  EXPECT_TRUE(journal.record(cfg, res));
  const std::string bytes = read_file(path);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes.back(), '\n');
  EXPECT_EQ(std::count(bytes.begin(), bytes.end(), '\n'), 1);
  std::remove(path.c_str());
}

TEST(JournalDurability, SurvivesTruncationAtEveryByteOffset) {
  // The crash model: kill -9 (or power loss) can leave the file cut at ANY
  // byte. For every prefix length the journal must (a) open without
  // crashing, (b) keep exactly the records whose trailing newline made it
  // to disk, bit-exactly, (c) report the torn bytes it truncated, and
  // (d) leave the file clean enough that appending a new record round-trips.
  const std::string full_path =
      ::testing::TempDir() + "fibersim_jd_full.jsonl";
  const std::string cut_path = ::testing::TempDir() + "fibersim_jd_cut.jsonl";
  std::remove(full_path.c_str());
  core::Runner runner;
  const std::vector<ExperimentConfig> configs = {journal_config(2, 11),
                                                 journal_config(4, 12)};
  std::vector<ExperimentResult> results;
  {
    SweepJournal journal(full_path);
    for (const ExperimentConfig& cfg : configs) {
      results.push_back(runner.run(cfg));
      ASSERT_TRUE(journal.record(cfg, results.back()));
    }
  }
  const std::string bytes = read_file(full_path);
  ASSERT_FALSE(bytes.empty());
  ASSERT_EQ(bytes.back(), '\n');

  // Record boundaries: offsets just past each newline.
  std::vector<std::size_t> durable_ends;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == '\n') durable_ends.push_back(i + 1);
  }
  ASSERT_EQ(durable_ends.size(), configs.size());

  const ExperimentConfig extra_cfg = journal_config(2, 13);
  const ExperimentResult extra_res = runner.run(extra_cfg);
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    write_file(cut_path, bytes.substr(0, cut));
    std::size_t expect_loaded = 0;
    std::size_t durable_bytes = 0;
    for (const std::size_t end : durable_ends) {
      if (end <= cut) {
        ++expect_loaded;
        durable_bytes = end;
      }
    }
    {
      SweepJournal reopened(cut_path);
      ASSERT_EQ(reopened.loaded(), expect_loaded);
      ASSERT_EQ(reopened.recovered_tail_bytes(), cut - durable_bytes);
      ExperimentResult back;
      for (std::size_t r = 0; r < configs.size(); ++r) {
        const bool durable = durable_ends[r] <= cut;
        ASSERT_EQ(reopened.lookup(configs[r], &back), durable);
        if (durable) {
          ASSERT_EQ(back.prediction.total_s, results[r].prediction.total_s);
          ASSERT_EQ(back.check_value, results[r].check_value);
        }
      }
      // Append after recovery must not glue onto torn bytes.
      ASSERT_TRUE(reopened.record(extra_cfg, extra_res));
    }
    SweepJournal recovered(cut_path);
    ASSERT_EQ(recovered.loaded(), expect_loaded + 1);
    ASSERT_EQ(recovered.recovered_tail_bytes(), 0u);
    ExperimentResult back;
    ASSERT_TRUE(recovered.lookup(extra_cfg, &back));
    ASSERT_EQ(back.prediction.total_s, extra_res.prediction.total_s);
  }
  std::remove(full_path.c_str());
  std::remove(cut_path.c_str());
}

// ----- journal line format ------------------------------------------------

// A line recorded for journal_config(2, 7) by the journal's earlier
// hand-rolled writer. Loading it and recording the result back must give
// the same bytes: old journals stay readable and the format has not moved.
const std::string kRecordedLine =
    R"j({"v":1,"key":"84fd5d00c4bf9f7c","label":"ffvc/small 2x1 block/compac)j"
    R"j(t [simd+,swp] on A64FX","verified":1,"check_value":"c0b7a10adde70f3c)j"
    R"j(","check_desc":"SOR energy functional (must decrease)","power":["404)j"
    R"j(aac8dbe3d99fa","3f53ee3091f19931","3fdd179c4aa96d59"],"agg":["3ef7e8)j"
    R"j(ef8c22344a","3ef355aa22f61b9e","3ed95dfd94c958d8","3ec04efa058c7e4b")j"
    R"j(,"0000000000000000","4120e00000000000","4137a00000000000","3ee5331ee)j"
    R"j(4925366"],"nphases":4,"phases":[["init",0,"0000000000000000","3ee533)j"
    R"j(1ee4925366","3ee4d65971131b46","3e9cfdb417c18a1b","0000000000000000")j"
    R"j(,"3ee5331ee4925366",0,"4104400000000000","40fb000000000000","0000000)j"
    R"j(000000000","0000000000000000"],["diagnose",1,"3eb557bc3abf7fc4","3ee)j"
    R"j(5588dd2ea5cd2","3ee13a807d958c58","3ebcfdb417c18a1b","00000000000000)j"
    R"j(00","3ee2ad964b926cd9",0,"4110e00000000000","411b000000000000","0000)j"
    R"j(000000000000","3eaa56fd1bad23b6"],["sor",1,"3ea68c6fa0b2f9a4","3ee05)j"
    R"j(6706c52225d","3edbaeb22f9294c3","3eb5be4711d12794","0000000000000000)j"
    R"j(","3edddb52e48de585",0,"4102900000000000","4114400000000000","000000)j"
    R"j(0000000000","0000000000000000"],["project",1,"0000000000000000","3ed)j"
    R"j(445c1b20fd2ca","3ece65eac235820a","3ec95dfd94c958d8","00000000000000)j"
    R"j(00","3ed445c1b20fd2ca",0,"40fe600000000000","4127a00000000000","0000)j"
    R"j(000000000000","0000000000000000"]]})j";

TEST(JournalFormat, RecordedLineLoadsAndRecordsBackByteIdentically) {
  const std::string in_path = ::testing::TempDir() + "fibersim_jf_in.jsonl";
  const std::string out_path = ::testing::TempDir() + "fibersim_jf_out.jsonl";
  write_file(in_path, kRecordedLine + "\n");
  std::remove(out_path.c_str());
  const ExperimentConfig cfg = journal_config(2, 7);
  ExperimentResult back;
  {
    SweepJournal journal(in_path);
    ASSERT_EQ(journal.loaded(), 1u);
    ASSERT_TRUE(journal.lookup(cfg, &back));
  }
  EXPECT_TRUE(back.verified);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.check_value),
            0xc0b7a10adde70f3cULL);
  EXPECT_EQ(back.check_description, "SOR energy functional (must decrease)");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.prediction.total_s),
            0x3ef7e8ef8c22344aULL);
  ASSERT_EQ(back.prediction.phases.size(), 4u);
  EXPECT_EQ(back.prediction.phases[1].name, "diagnose");
  EXPECT_FALSE(back.prediction.phases[0].timed);
  {
    SweepJournal journal(out_path);
    ASSERT_TRUE(journal.record(cfg, back));
  }
  EXPECT_EQ(read_file(out_path), kRecordedLine + "\n");
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(JournalFormat, MalformedLinesAreSkippedWithoutCrashing) {
  const auto edit = [](const std::string& from, const std::string& to) {
    std::string line = kRecordedLine;
    const std::size_t pos = line.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    return pos == std::string::npos ? line : line.replace(pos, from.size(), to);
  };
  const std::string label =
      R"("label":"ffvc/small 2x1 block/compact [simd+,swp] on A64FX",)";
  const std::pair<const char*, std::string> cases[] = {
      {"raw control byte", edit("ffvc/small", "ffvc\x01small")},
      {"reordered keys", edit(label + R"("verified":1,)",
                              R"("verified":1,)" + label)},
      {"duplicate key", edit(R"("v":1,)", R"("v":1,"v":1,)")},
      {"wrong type", edit(R"("verified":1)", R"("verified":"1")")},
      {"non-hex double", edit("c0b7a10adde70f3c", "c0b7a10adde70f3g")},
      {"unknown version", edit(R"("v":1)", R"("v":2)")},
      {"negative integer", edit(R"("verified":1)", R"("verified":-1)")},
      {"limiter out of range",
       edit(R"("3ee5331ee4925366",0,"4104400000000000")",
            R"("3ee5331ee4925366",4,"4104400000000000")")},
      {"phase count mismatch", edit(R"("nphases":4)", R"("nphases":3)")},
      {"short power array",
       edit(R"(,"3fdd179c4aa96d59"])", "]")},
      {"not an object", "[1,2,3]"},
      {"truncated", kRecordedLine.substr(0, 300)},
  };
  const std::string path = ::testing::TempDir() + "fibersim_jf_bad.jsonl";
  for (const auto& [what, line] : cases) {
    SCOPED_TRACE(what);
    // The bad line is skipped; the good record after it still loads.
    write_file(path, line + "\n" + kRecordedLine + "\n");
    SweepJournal journal(path);
    EXPECT_EQ(journal.loaded(), 1u);
    ExperimentResult back;
    EXPECT_TRUE(journal.lookup(journal_config(2, 7), &back));
  }
  std::remove(path.c_str());
}

TEST(JournalFormat, ControlBytesInStringsRoundTrip) {
  const std::string path = ::testing::TempDir() + "fibersim_jf_ctl.jsonl";
  std::remove(path.c_str());
  const ExperimentConfig cfg = journal_config(2, 7);
  ExperimentResult odd;
  odd.check_description = "a\x01\x1f\"\\\tb";
  odd.check_description += '\0';
  {
    SweepJournal journal(path);
    ASSERT_TRUE(journal.record(cfg, odd));
  }
  const std::string bytes = read_file(path);
  ASSERT_FALSE(bytes.empty());
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(bytes[i]), 0x20) << "at byte " << i;
  }
  SweepJournal reopened(path);
  ASSERT_EQ(reopened.loaded(), 1u);
  ExperimentResult back;
  ASSERT_TRUE(reopened.lookup(cfg, &back));
  EXPECT_EQ(back.check_description, odd.check_description);
  std::remove(path.c_str());
}

// ----- client retry policy ------------------------------------------------

TEST(RetryPolicy, RejectsNonsenseUpFront) {
  core::RetryPolicy bad;
  bad.attempts = 0;
  EXPECT_THROW(core::request_with_retry("/nonexistent.sock", "{}", bad),
               Error);
  bad = core::RetryPolicy{};
  bad.backoff_ms = 0;
  EXPECT_THROW(core::request_with_retry("/nonexistent.sock", "{}", bad),
               Error);
}

TEST(RetryPolicy, ExhaustsAttemptsThenThrowsTransportError) {
  core::RetryPolicy policy;
  policy.attempts = 3;
  policy.backoff_ms = 1;
  policy.max_backoff_ms = 2;
  try {
    core::request_with_retry(
        ::testing::TempDir() + "fibersim_no_such_server.sock",
        "{\"verb\":\"ping\"}", policy);
    FAIL() << "request_with_retry returned without a server";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("connect"), std::string::npos)
        << e.what();
  }
}

}  // namespace
