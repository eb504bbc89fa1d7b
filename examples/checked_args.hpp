// Checked numeric command-line arguments, shared by every example: the
// whole text must parse as a number of at least `min`, otherwise the
// program exits 2 with a message — garbage never silently becomes 0.
#pragma once

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

namespace optibfs::examples {

/// Checked value of `text` for `what` (a flag, argument or graph spec).
template <class T>
T parse_number(const std::string& what, const std::string& text,
               T min = std::numeric_limits<T>::lowest()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value < min) {
    std::cerr << what << " expects a number";
    if (min > std::numeric_limits<T>::lowest()) std::cerr << " >= " << min;
    std::cerr << ", not '" << text << "'\n";
    std::exit(2);
  }
  return value;
}

/// Positional argument argv[index] as a checked T of at least `min`, or
/// `fallback` when it is absent.
template <class T>
T positional(int argc, char** argv, int index, const std::string& what,
             T fallback, T min) {
  return argc > index ? parse_number<T>(what, argv[index], min) : fallback;
}

}  // namespace optibfs::examples
