// obs::Name — a static name: a trace component or event, a field key, or a
// metric name.
//
// Every observability site names what it records with a string literal,
// and the hot paths depend on that: the trace sink caches interned ids by
// the name's address and trusts a hit without comparing bytes, the flight
// recorder keeps the view itself, and a metric site caches the registry
// node its name resolved to.  Name makes that assumption a type: its only
// constructor is consteval and takes a constant character array, so a
// literal converts implicitly and a runtime string (std::string, a
// string_view, a char buffer) does not compile.  A site that chooses its
// name at run time chooses between Names:
//
//   AFT_TRACE("autonomic.switchboard", raised ? obs::Name("raise")
//                                             : obs::Name("lower"), ...);
//
// Names are never freed or rewritten, so equal addresses mean equal bytes.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace aft::obs {

class Name {
 public:
  template <std::size_t N>
  consteval Name(const char (&s)[N]) noexcept  // NOLINT(google-explicit-constructor)
      : data_(s), size_(std::char_traits<char>::length(s)) {}

  [[nodiscard]] constexpr const char* data() const noexcept { return data_; }
  constexpr operator std::string_view() const noexcept {  // NOLINT(google-explicit-constructor)
    return {data_, size_};
  }

 private:
  const char* data_;
  std::size_t size_;
};

}  // namespace aft::obs
