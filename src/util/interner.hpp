// String interning table shared by the hot paths that replace string keys
// with dense indices: arch::EventBus topics and obs::TraceSink's
// component/event/key/value table.  Ids are assigned in first-intern order
// and never recycled; name() pointers stay stable because they target the
// index map's node-based key storage.
//
// Two lookups share one pointer-keyed cache: intern() for any string,
// which confirms a cache hit byte by byte, and intern_static() for names in
// immutable static storage (obs::Name), whose hit is one pointer and length
// compare.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace aft::util {

class StringInterner {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = ~Id{0};
  static constexpr std::size_t kCacheSlots = 256;  // cache_slot(): top 8 bits

  StringInterner() = default;
  // names_ points into index_'s nodes: a copy would keep pointing into the
  // source's.  A move carries the nodes along, so moves stay.
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;
  // A move leaves the source empty, its cache included: a cached id must
  // never outlive the table it indexes.
  StringInterner(StringInterner&& other) noexcept
      : names_(std::move(other.names_)),
        index_(std::move(other.index_)),
        cache_(other.cache_) {
    other.clear();
  }
  StringInterner& operator=(StringInterner&& other) noexcept {
    names_ = std::move(other.names_);
    index_ = std::move(other.index_);
    cache_ = other.cache_;
    other.clear();
    return *this;
  }

  /// Id of `s`, interning it on first sight (idempotent).
  ///
  /// Re-interning an already-known string is the hot case — every trace
  /// record re-interns its component/event/key literals — and those callers
  /// pass pointer-stable strings (literals, or name() results).  A small
  /// direct-mapped cache keyed by the data pointer short-circuits the hash
  /// map for them; a hit is validated by comparing the bytes against the
  /// cached id's canonical name, so a recycled heap pointer can never yield
  /// a wrong id (mismatched content just falls through to the map).
  Id intern(std::string_view s) {
    CacheEntry& cached =
        cache_[cache_slot(reinterpret_cast<std::uintptr_t>(s.data()))];
    if (cached.data == s.data() && cached.len == s.size() &&
        cached.id < names_.size() && *names_[cached.id] == s) {
      return cached.id;
    }
    return intern_missed(s, cached);
  }

  /// intern() for a string in static storage that is never written — a
  /// literal, which obs::Name guarantees by type.  Its bytes at a given
  /// address can never change, and a cache entry is only ever written with
  /// the id of the bytes at its address, so a pointer and length hit is
  /// the answer and no byte is compared.
  Id intern_static(std::string_view s) {
    CacheEntry& cached =
        cache_[cache_slot(reinterpret_cast<std::uintptr_t>(s.data()))];
    if (cached.data == s.data() && cached.len == s.size()) return cached.id;
    return intern_missed(s, cached);
  }

  /// Id of an already-interned string, or kNone.  Never interns.
  [[nodiscard]] Id find(std::string_view s) const noexcept {
    const auto it = index_.find(s);
    return it == index_.end() ? kNone : it->second;
  }

  /// The interned string.  `id` must come from intern()/find().
  [[nodiscard]] const std::string& name(Id id) const { return *names_[id]; }

  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }

  void clear() noexcept {
    names_.clear();
    index_.clear();
    cache_.fill(CacheEntry{});
  }

  /// Cache slot of a string whose bytes start at address `p`.  The
  /// compiler packs a call site's literals next to each other, so the low
  /// address bits alone put neighbours in one slot; a multiplicative
  /// (Fibonacci) hash mixes every bit into the slot's top byte.
  static constexpr std::size_t cache_slot(std::uintptr_t p) noexcept {
    static_assert(kCacheSlots == 256, "the shift keeps the top 8 bits");
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(p) * 0x9E3779B97F4A7C15ULL) >> 56);
  }

 private:
  struct TransparentHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct CacheEntry {
    const char* data = nullptr;
    std::size_t len = 0;
    Id id = kNone;
  };

  // Out of line, so that intern() is small enough to inline its cache hit
  // at every call site.
  [[gnu::noinline]] Id intern_missed(std::string_view s, CacheEntry& cached) {
    Id id;
    if (const auto it = index_.find(s); it != index_.end()) {
      id = it->second;
    } else {
      id = static_cast<Id>(names_.size());
      const auto [it2, inserted] = index_.emplace(std::string(s), id);
      names_.push_back(&it2->first);
    }
    cached = CacheEntry{s.data(), s.size(), id};
    return id;
  }

  std::vector<const std::string*> names_;
  std::unordered_map<std::string, Id, TransparentHash, std::equal_to<>> index_;
  std::array<CacheEntry, kCacheSlots> cache_{};
};

}  // namespace aft::util
