// One policy family's static {name, factory} table. Its names back the
// family's *_names() span, so a policy is listed exactly where it is
// constructed; lookups are allocation-free scans over a few string_views.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string_view>

namespace ccf::util {

template <class Base>
struct NamedFactory {
  std::string_view name;
  std::unique_ptr<Base> (*make)();
};

template <class Base, std::size_t N>
struct NameTable {
  std::array<std::string_view, N> names;
  std::array<std::unique_ptr<Base> (*)(), N> makes;

  /// A new instance of the policy named `name`; nullptr if none is.
  std::unique_ptr<Base> make(std::string_view name) const {
    for (std::size_t i = 0; i < N; ++i) {
      if (names[i] == name) return makes[i]();
    }
    return nullptr;
  }
};

/// make_name_table<Base>({{"a", &make_a}, ...}) deduces N.
template <class Base, std::size_t N>
constexpr NameTable<Base, N> make_name_table(
    const NamedFactory<Base> (&entries)[N]) {
  NameTable<Base, N> table{};
  for (std::size_t i = 0; i < N; ++i) {
    table.names[i] = entries[i].name;
    table.makes[i] = entries[i].make;
  }
  return table;
}

/// The factory of a default-constructed T, as a Base.
template <class Base, class T>
std::unique_ptr<Base> make_default() {
  return std::make_unique<T>();
}

}  // namespace ccf::util
