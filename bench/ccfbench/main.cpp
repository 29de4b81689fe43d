// ccfbench command line. Without --workload it re-executes itself once per
// workload, one after another, so each workload's set-up time, peak RSS and
// caches belong to its own process; with --workload it runs that workload
// here. Every invocation prints a provenance line first and, per workload,
// one JSON record as its last line (appended to --out when given).
//
//   ccfbench --seed 1 --out run.jsonl                 untraced, all workloads
//   ccfbench --seed 1 --out run.jsonl --trace t.json  traced (per-layer)
//   ccfbench --workload serve_hot --seed 1 --seconds 8
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ccfbench.hpp"
#include "util/table.hpp"

namespace {

using ccfbench::Report;
using ccfbench::RunOptions;

constexpr const char* kUsage =
    "usage: ccfbench [--workload NAME] [--seed N] [--seconds S] "
    "[--out FILE] [--trace FILE]\n"
    "  --workload  serve_hot | serve_cold | paper_join | trace_sim | "
    "exact_place (default: all, one process each)\n"
    "  --seed      workload seed (default 1)\n"
    "  --seconds   length of each workload's timed phase (default 16)\n"
    "  --out       append one JSON record per workload to FILE\n"
    "  --trace     traced run: per-layer metrics, Chrome trace-event spans "
    "in FILE\n"
    "              (FILE gets the workload name before its extension when "
    "all workloads run)\n";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 16.0;
  std::string out;
  std::string trace;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (key == "--help" || key == "-h") {
      std::cout << kUsage;
      std::exit(0);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + key);
    }
    if (key == "--workload") {
      const auto names = ccfbench::workload_names();
      if (std::find(names.begin(), names.end(), value) == names.end()) {
        throw std::invalid_argument("unknown workload: " + value);
      }
      args.workload = value;
    } else if (key == "--seed") {
      std::size_t used = 0;
      const unsigned long long seed = std::stoull(value, &used);
      if (used != value.size()) throw std::invalid_argument("bad --seed");
      args.seed = seed;
    } else if (key == "--seconds") {
      std::size_t used = 0;
      args.seconds = std::stod(value, &used);
      if (used != value.size() || !(args.seconds >= 1.0) ||
          args.seconds > 600.0) {
        throw std::invalid_argument("--seconds must be in [1, 600]");
      }
    } else if (key == "--out") {
      args.out = value;
    } else if (key == "--trace") {
      args.trace = value;
    } else {
      throw std::invalid_argument("unknown flag: " + key);
    }
  }
  return args;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

std::string provenance_json(const Args& args, const std::string& workloads) {
  std::ostringstream os;
  os << "{\"git_sha\": " << json_string(CCFBENCH_GIT_SHA)
     << ", \"git_dirty\": " << json_string(CCFBENCH_GIT_DIRTY)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": " << json_string(CCFBENCH_BUILD_TYPE)
     << ", \"simd_fill\": " << json_string(CCFBENCH_SIMD_FILL)
     << ", \"compiler\": " << json_string(CCFBENCH_COMPILER)
     << ", \"seed\": " << args.seed
     << ", \"seconds\": " << json_number(args.seconds)
     << ", \"traced\": " << (args.trace.empty() ? "false" : "true")
     << ", \"workloads\": " << workloads << "}";
  return os.str();
}

std::string values_json(const std::vector<Report::Value>& values,
                        bool with_units) {
  std::string out = "{";
  for (std::size_t i = 0; i < values.size(); ++i) {
    const Report::Value& v = values[i];
    out += (i ? ", " : "") + json_string(v.name) + ": ";
    out += with_units ? "{\"value\": " + json_number(v.value) +
                            ", \"unit\": " + json_string(v.unit) + "}"
                      : json_number(v.value);
  }
  return out + "}";
}

/// Every listed metric in the listed order; a name the report lacks (a layer
/// the workload never calls) reports 0.
std::vector<Report::Value> complete(
    const std::vector<Report::Value>& have,
    std::span<const ccfbench::MetricName> names) {
  std::vector<Report::Value> out;
  for (const ccfbench::MetricName& m : names) {
    const auto it = std::find_if(have.begin(), have.end(), [&](const auto& v) {
      return v.name == m.name;
    });
    out.push_back({std::string(m.name), it == have.end() ? 0.0 : it->value,
                   std::string(m.unit)});
  }
  return out;
}

std::string record_json(const Args& args, const Report& report,
                        const std::vector<Report::Value>& metrics,
                        const std::vector<Report::Value>& layers,
                        const std::string& provenance) {
  std::string errors = "[";
  for (std::size_t i = 0; i < report.errors().size(); ++i) {
    errors += (i ? ", " : "") + json_string(report.errors()[i]);
  }
  errors += "]";
  std::ostringstream os;
  os << "{\"ccfbench\": \"record\", \"workload\": "
     << json_string(args.workload)
     << ", \"seed\": " << args.seed
     << ", \"seconds\": " << json_number(args.seconds)
     << ", \"traced\": " << (args.trace.empty() ? "false" : "true")
     << ", \"correct\": " << (report.correct() ? "true" : "false")
     << ", \"attempted\": " << report.attempted()
     << ", \"failed\": " << report.failed() << ", \"errors\": " << errors
     << ", \"metrics\": " << values_json(metrics, true)
     << ", \"layers\": " << values_json(layers, true)
     << ", \"outputs\": " << values_json(report.outputs(), false)
     << ", \"provenance\": " << provenance << "}";
  return os.str();
}

void append_line(const std::string& path, const std::string& line) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::app);
  out << line << "\n";
  if (!out) throw std::runtime_error("cannot append to " + path);
}

int run_one(const Args& args) {
  std::string workloads = json_string(args.workload);
  workloads.insert(0, 1, '[').push_back(']');
  const std::string provenance = provenance_json(args, workloads);
  std::cout << "{\"provenance\": " << provenance << "}" << std::endl;

  RunOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.traced = !args.trace.empty();
  options.trace_path = args.trace;
  const Report report = ccfbench::run_workload(args.workload, options);

  // An untraced run reports the end-to-end set, a traced run the per-layer
  // set; end-to-end numbers never come from a traced run.
  const std::vector<Report::Value> metrics =
      options.traced ? std::vector<Report::Value>{}
                     : complete(report.metrics(),
                                ccfbench::end_to_end_metrics());
  const std::vector<Report::Value> layers =
      options.traced ? complete(report.layers(), ccfbench::per_layer_metrics())
                     : std::vector<Report::Value>{};
  for (const auto& v : options.traced ? layers : metrics) {
    std::cout << "# " << args.workload << "  " << v.name << " = "
              << json_number(v.value) << " " << v.unit << "\n";
  }
  for (const std::string& e : report.errors()) {
    std::cout << "# " << args.workload << "  FAILED: " << e << "\n";
  }
  const std::string record =
      record_json(args, report, metrics, layers, provenance);
  append_line(args.out, record);
  std::cout << record << std::endl;
  return report.correct() ? 0 : 1;
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  return out + "'";
}

std::string self_path() {
  std::vector<char> buf(4096);
  const ssize_t n = readlink("/proc/self/exe", buf.data(), buf.size() - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buf.data(), static_cast<std::size_t>(n));
}

std::string trace_path_for(const std::string& path, std::string_view workload) {
  const auto slash = path.find_last_of('/');
  const auto dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "." + std::string(workload);
  }
  return path.substr(0, dot) + "." + std::string(workload) + path.substr(dot);
}

/// Re-execute this binary once per workload, one after another, echoing each
/// child's output; then tabulate the metrics the children printed.
int run_all(const Args& args) {
  std::string names = "[";
  for (const std::string_view w : ccfbench::workload_names()) {
    names += (names.size() > 1 ? ", " : "") + json_string(w);
  }
  names += "]";
  std::cout << "{\"provenance\": " << provenance_json(args, names) << "}"
            << std::endl;

  const std::string self = self_path();
  const std::size_t workloads = ccfbench::workload_names().size();
  // metric name -> unit and one cell per workload, rows in first-seen order
  std::vector<std::string> order;
  std::map<std::string, std::pair<std::string, std::vector<std::string>>> rows;
  std::vector<std::string> results;
  for (std::size_t i = 0; i < workloads; ++i) {
    const std::string w(ccfbench::workload_names()[i]);
    std::ostringstream cmd;
    cmd << shell_quote(self) << " --workload " << w << " --seed " << args.seed
        << " --seconds " << json_number(args.seconds);
    if (!args.out.empty()) cmd << " --out " << shell_quote(args.out);
    if (!args.trace.empty()) {
      cmd << " --trace " << shell_quote(trace_path_for(args.trace, w));
    }
    std::fflush(stdout);
    FILE* pipe = popen(cmd.str().c_str(), "r");
    if (pipe == nullptr) throw std::runtime_error("cannot start " + self);
    const std::string prefix = "# " + w + "  ";
    std::string line;
    char buf[4096];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) {
      line += buf;
      if (line.back() != '\n') continue;
      std::cout << line << std::flush;
      // "# <workload>  <metric> = <value> <unit>"
      std::istringstream in(line.substr(std::min(prefix.size(), line.size())));
      std::string name, eq, value, unit;
      if (line.rfind(prefix, 0) == 0 && in >> name >> eq >> value >> unit &&
          eq == "=") {
        auto [it, added] = rows.try_emplace(
            name, unit, std::vector<std::string>(workloads, "-"));
        if (added) order.push_back(name);
        std::ostringstream cell;
        cell << std::setprecision(4) << std::stod(value);
        it->second.second[i] = cell.str();
      }
      line.clear();
    }
    const int rc = pclose(pipe);
    results.push_back(rc == 0 ? "correct" : "FAILED");
  }

  std::vector<std::string> header = {"metric", "unit"};
  for (const std::string_view w : ccfbench::workload_names()) {
    header.emplace_back(w);
  }
  ccf::util::Table table(header);
  for (const std::string& name : order) {
    std::vector<std::string> row = {name, rows[name].first};
    row.insert(row.end(), rows[name].second.begin(), rows[name].second.end());
    table.add_row(row);
  }
  std::vector<std::string> last = {"result", ""};
  last.insert(last.end(), results.begin(), results.end());
  table.add_row(last);
  std::cout << "\n=== ccfbench seed " << args.seed << " ("
            << (args.trace.empty() ? "untraced" : "traced") << ") ===\n";
  table.print(std::cout);
  return std::count(results.begin(), results.end(), "correct") ==
                 static_cast<std::ptrdiff_t>(workloads)
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    return args.workload.empty() ? run_all(args) : run_one(args);
  } catch (const std::exception& e) {
    std::cerr << "ccfbench: " << e.what() << "\n" << kUsage;
    return 2;
  }
}
