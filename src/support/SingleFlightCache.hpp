//===- support/SingleFlightCache.hpp - Sharded single-flight cache ---------===//
//
// The one memoization mechanism for expensive, deterministic builds keyed by
// content: the frontend's compiled kernels (frontend::KernelCache) and the
// native backend's dlopen'd modules both sit on it.
//
//  * Sharding: entries are distributed over NumShards independently locked
//    shards by key hash, so lookups of distinct keys rarely contend on one
//    mutex.
//
//  * Single-flight deduplication: getOrCompile guarantees that N concurrent
//    requests for the same key perform exactly one build — the first
//    requester builds while the rest block on the in-flight entry and
//    share its result. 1000 identical concurrent requests = 1 miss.
//
//  * No lock across the build: the winning caller builds with no lock held,
//    so hits on other keys (same shard included) and builds of other keys
//    proceed while it works.
//
//  * Failures are shared, not cached: every waiter of a failed flight gets
//    the error, and a later request for the key builds again.
//
// Hit/miss/coalesced totals are mirrored into support::Counters as
// "<prefix>.hits" / "<prefix>.misses" / "<prefix>.coalesced", the prefix
// fixed per instance.
//
//===----------------------------------------------------------------------===//
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "support/Error.hpp"
#include "support/Stats.hpp"

namespace codesign::support {

template <typename V> class SingleFlightCache {
public:
  /// Shard fan-out. A small power of two: enough that a handful of workers
  /// building distinct keys rarely contend on one lock, small enough that
  /// per-shard hit rates stay meaningful in bench reports.
  static constexpr std::size_t NumShards = 8;

  /// Per-shard event counts. Misses count executed builds; coalesced counts
  /// requests that waited on another thread's in-flight build (the
  /// single-flight proof: misses per distinct key is exactly 1 no matter
  /// how many requests raced).
  struct ShardStats {
    std::uint64_t Hits = 0;
    std::uint64_t Misses = 0;
    std::uint64_t Coalesced = 0;
    std::uint64_t Entries = 0;
  };

  /// Snapshot of every shard plus aggregate accessors.
  struct Stats {
    std::array<ShardStats, NumShards> Shards;
    [[nodiscard]] std::uint64_t hits() const { return total(&ShardStats::Hits); }
    [[nodiscard]] std::uint64_t misses() const {
      return total(&ShardStats::Misses);
    }
    [[nodiscard]] std::uint64_t coalesced() const {
      return total(&ShardStats::Coalesced);
    }
    [[nodiscard]] std::uint64_t entries() const {
      return total(&ShardStats::Entries);
    }

  private:
    [[nodiscard]] std::uint64_t total(std::uint64_t ShardStats::*F) const {
      std::uint64_t Sum = 0;
      for (const ShardStats &S : Shards)
        Sum += S.*F;
      return Sum;
    }
  };

  /// How a getOrCompile request was satisfied.
  enum class Outcome {
    Hit,       ///< served from a completed entry
    Miss,      ///< this caller executed the build
    Coalesced, ///< waited on another caller's in-flight build
  };

  /// CounterPrefix names this instance's support::Counters entries.
  explicit SingleFlightCache(const std::string &CounterPrefix)
      : HitsCounter(CounterPrefix + ".hits"),
        MissesCounter(CounterPrefix + ".misses"),
        CoalescedCounter(CounterPrefix + ".coalesced") {}

  /// Return the cached value for Key, or run Compile exactly once per key
  /// no matter how many threads race. Concurrent requesters for the same
  /// key block until the winner's Compile returns and then share its
  /// result. WasOutcome, when given, reports how this call was satisfied.
  Expected<V> getOrCompile(const std::string &Key,
                           const std::function<Expected<V>()> &Compile,
                           Outcome *WasOutcome = nullptr) {
    Shard &S = Shards[shardOf(Key)];
    std::shared_ptr<Flight> F;
    bool Winner = false;
    {
      std::lock_guard<std::mutex> Lock(S.Mutex);
      if (auto It = S.Entries.find(Key); It != S.Entries.end()) {
        ++S.Hits;
        Counters::global().add(HitsCounter);
        if (WasOutcome)
          *WasOutcome = Outcome::Hit;
        return It->second;
      }
      if (auto It = S.InFlight.find(Key); It != S.InFlight.end()) {
        // Someone else is building this key right now: coalesce onto
        // their flight instead of building again.
        ++S.Coalesced;
        Counters::global().add(CoalescedCounter);
        F = It->second;
      } else {
        ++S.Misses;
        Counters::global().add(MissesCounter);
        F = std::make_shared<Flight>();
        S.InFlight.emplace(Key, F);
        Winner = true;
      }
    }
    if (WasOutcome)
      *WasOutcome = Winner ? Outcome::Miss : Outcome::Coalesced;
    if (!Winner) {
      std::unique_lock<std::mutex> FlightLock(F->M);
      F->CV.wait(FlightLock, [&] { return F->Result.has_value(); });
      return *F->Result;
    }
    // The winner builds outside every lock.
    Expected<V> Result = Compile();
    {
      std::lock_guard<std::mutex> Lock(S.Mutex);
      if (Result)
        S.Entries.emplace(Key, *Result);
      S.InFlight.erase(Key);
    }
    {
      std::lock_guard<std::mutex> FlightLock(F->M);
      F->Result = Result;
    }
    F->CV.notify_all();
    return Result;
  }

  /// Per-shard and aggregate statistics.
  [[nodiscard]] Stats stats() const {
    Stats Out;
    for (std::size_t I = 0; I < NumShards; ++I) {
      const Shard &S = Shards[I];
      std::lock_guard<std::mutex> Lock(S.Mutex);
      Out.Shards[I] =
          ShardStats{S.Hits, S.Misses, S.Coalesced, S.Entries.size()};
    }
    return Out;
  }
  [[nodiscard]] std::uint64_t hits() const { return stats().hits(); }
  [[nodiscard]] std::uint64_t misses() const { return stats().misses(); }
  [[nodiscard]] std::uint64_t coalesced() const { return stats().coalesced(); }
  [[nodiscard]] std::size_t size() const { return stats().entries(); }

  /// Drop every entry and zero the counters (test isolation). Must not be
  /// called while builds are in flight.
  void clear() {
    for (Shard &S : Shards) {
      std::lock_guard<std::mutex> Lock(S.Mutex);
      CODESIGN_ASSERT(S.InFlight.empty(),
                      "SingleFlightCache::clear with builds in flight");
      S.Entries.clear();
      S.Hits = S.Misses = S.Coalesced = 0;
    }
  }

private:
  static std::size_t shardOf(const std::string &Key) {
    return std::hash<std::string>{}(Key) % NumShards;
  }

  /// An in-flight build: the winner fills Result; losers wait on CV. Kept
  /// alive by shared_ptr so waiters survive the shard erasing the marker.
  struct Flight {
    std::mutex M;
    std::condition_variable CV;
    std::optional<Expected<V>> Result;
  };

  struct Shard {
    mutable std::mutex Mutex;
    std::unordered_map<std::string, V> Entries;
    std::unordered_map<std::string, std::shared_ptr<Flight>> InFlight;
    std::uint64_t Hits = 0;
    std::uint64_t Misses = 0;
    std::uint64_t Coalesced = 0;
  };

  const std::string HitsCounter;
  const std::string MissesCounter;
  const std::string CoalescedCounter;
  std::array<Shard, NumShards> Shards;
};

} // namespace codesign::support
