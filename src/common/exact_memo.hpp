// ExactMemo — a thread-safe memo of a pure function, exact by construction.
//
// Results are keyed on a (u64, u64) pair the caller derives from the
// function's inputs (e.g. an options fingerprint and a content hash), and
// every candidate under a key is verified with a bitwise compare of the input
// (`Equal`) — a hash collision can cost a bucket scan, never return a wrong
// result. A cached result is bit-identical to a fresh computation: same
// inputs, same pure function, copied bits.
//
// Thread-safe under SweepPool concurrency, with *deterministic* counters:
// a miss is computed under the bucket lock after a failed exact scan, so
// concurrent first callers serialize and exactly one performs the compute —
// evals() always equals the number of distinct (key, input) values seen,
// lookups() the number of get() calls, hits() the difference. Tests and
// benches assert the memoization contract on these counters on any host,
// including single-core CI where wall-clock comparisons are meaningless.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

namespace fibersim {

template <typename Input, typename Output,
          bool (*Equal)(const Input&, const Input&)>
class ExactMemo {
 public:
  using Key = std::pair<std::uint64_t, std::uint64_t>;

  ExactMemo() = default;
  ExactMemo(const ExactMemo&) = delete;
  ExactMemo& operator=(const ExactMemo&) = delete;

  /// The memoized `compute()` for `input`. `compute` must be a pure function
  /// of `input` and of whatever `key` identifies beyond it.
  template <typename Compute>
  Output get(const Key& key, const Input& input, Compute&& compute) {
    lookups_.fetch_add(1, std::memory_order_relaxed);
    const std::shared_ptr<Bucket> bucket = bucket_for(key);

    std::lock_guard<std::mutex> lock(bucket->mutex);
    for (const Entry& entry : bucket->entries) {
      if (Equal(entry.input, input)) return entry.output;
    }
    // Miss: compute under the bucket lock so a concurrent caller with the
    // same value blocks here and then hits — evals_ counts unique values.
    Entry entry{input, compute()};
    const Output out = entry.output;
    bucket->entries.push_back(std::move(entry));
    evals_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }

  /// Distinct (key, input) values actually computed. Deterministic.
  std::size_t evals() const { return evals_.load(std::memory_order_relaxed); }
  /// Total get() calls. Deterministic for a deterministic workload.
  std::size_t lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }
  /// Calls served from the memo: lookups() - evals().
  std::size_t hits() const { return lookups() - evals(); }

 private:
  struct Entry {
    Input input;
    Output output;
  };
  /// One hash bucket; entries with the same key but different input bits
  /// (a collision) chain in insertion order.
  struct Bucket {
    std::mutex mutex;
    std::vector<Entry> entries;
  };

  std::shared_ptr<Bucket> bucket_for(const Key& key) {
    {
      std::shared_lock<std::shared_mutex> lock(map_mutex_);
      const auto it = buckets_.find(key);
      if (it != buckets_.end()) return it->second;
    }
    std::unique_lock<std::shared_mutex> lock(map_mutex_);
    std::shared_ptr<Bucket>& slot = buckets_[key];
    if (!slot) slot = std::make_shared<Bucket>();
    return slot;
  }

  std::shared_mutex map_mutex_;
  std::map<Key, std::shared_ptr<Bucket>> buckets_;
  std::atomic<std::size_t> evals_{0};
  std::atomic<std::size_t> lookups_{0};
};

}  // namespace fibersim
