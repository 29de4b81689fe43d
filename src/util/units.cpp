#include "util/units.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace ccf::util {

namespace {

std::string with_unit(const char* sign, double v, const char* unit) {
  char buf[64];
  if (v >= 100.0) {
    std::snprintf(buf, sizeof buf, "%s%.0f %s", sign, v, unit);
  } else if (v >= 10.0) {
    std::snprintf(buf, sizeof buf, "%s%.1f %s", sign, v, unit);
  } else {
    std::snprintf(buf, sizeof buf, "%s%.2f %s", sign, v, unit);
  }
  return buf;
}

}  // namespace

std::string format_bytes(double bytes) {
  const double b = std::fabs(bytes);
  const char* sign = bytes < 0 ? "-" : "";
  if (b >= 1e12) return with_unit(sign, b / 1e12, "TB");
  if (b >= 1e9) return with_unit(sign, b / 1e9, "GB");
  if (b >= 1e6) return with_unit(sign, b / 1e6, "MB");
  if (b >= 1e3) return with_unit(sign, b / 1e3, "kB");
  return with_unit(sign, b, "B");
}

std::string format_seconds(double seconds) {
  char buf[64];
  const double s = std::fabs(seconds);
  const char* sign = seconds < 0 ? "-" : "";
  if (s >= 3600.0) {
    const int h = static_cast<int>(s / 3600.0);
    const int m = static_cast<int>((s - h * 3600.0) / 60.0);
    std::snprintf(buf, sizeof buf, "%s%dh%02dm", sign, h, m);
    return buf;
  }
  if (s >= 60.0) {
    const int m = static_cast<int>(s / 60.0);
    const double rest = s - m * 60.0;
    std::snprintf(buf, sizeof buf, "%s%dm%04.1fs", sign, m, rest);
    return buf;
  }
  if (s >= 1.0) return with_unit(sign, s, "s");
  if (s >= 1e-3) return with_unit(sign, s * 1e3, "ms");
  if (s >= 1e-6) return with_unit(sign, s * 1e6, "us");
  return with_unit(sign, s * 1e9, "ns");
}

std::string format_count(double count) {
  const double c = std::fabs(count);
  const char* sign = count < 0 ? "-" : "";
  if (c >= 1e9) return with_unit(sign, c / 1e9, "B");
  if (c >= 1e6) return with_unit(sign, c / 1e6, "M");
  if (c >= 1e3) return with_unit(sign, c / 1e3, "k");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s%.0f", sign, c);
  return buf;
}

std::string format_fixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

double parse_scaled(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("parse_scaled: empty string");
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_scaled: not a number: " + text);
  }
  if (pos == text.size()) return v;
  if (pos + 1 != text.size()) {
    throw std::invalid_argument("parse_scaled: trailing garbage in: " + text);
  }
  switch (text[pos]) {
    case 'k': case 'K': return v * 1e3;
    case 'm': case 'M': return v * 1e6;
    case 'g': case 'G': return v * 1e9;
    case 't': case 'T': return v * 1e12;
    default:
      throw std::invalid_argument("parse_scaled: unknown suffix in: " + text);
  }
}

}  // namespace ccf::util
