#include "util/ledger.h"

#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>

#include "util/error.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/text_table.h"

namespace sldm {
namespace {

std::string fingerprint_hex(std::uint64_t fp) {
  return format("%016llx", static_cast<unsigned long long>(fp));
}

/// Lenient member readers: summarize() must not crash on a ledger
/// written by a different version, so absent members default.
std::string string_or(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v && v->kind() == JsonValue::Kind::kString ? v->as_string() : "";
}

double number_or(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v && v->kind() == JsonValue::Kind::kNumber ? v->as_number() : 0.0;
}

/// A member in [0, max] (and integral if asked), 0 when absent; else a
/// located `bad <key>` error.  Casting a double outside the target type
/// is undefined behaviour, and one huge seconds value turned every
/// summarize column it entered into `inf`.
constexpr double kMaxSeconds = 1e9;  ///< ~32 years: keeps ms sums finite
constexpr double kMaxInteger = 0x1p53;  ///< every integer up to it is exact
double checked_number(const JsonValue& obj, const char* key, double max,
                      bool integral, const std::string& where) {
  const double v = number_or(obj, key);
  if (!(v >= 0.0 && v <= max) || (integral && v != std::floor(v))) {
    throw Error(where + ": bad " + key + " " + json_number(v) +
                format(" (want %s in [0, %g])",
                       integral ? "an integer" : "seconds", max));
  }
  return v;
}

}  // namespace

std::string LedgerRecord::to_json() const {
  std::ostringstream os;
  os << "{\"kind\":\"" << json_escape(kind) << '"';
  os << ",\"version\":\"" << json_escape(version) << '"';
  if (unix_ms != 0) os << ",\"unix_ms\":" << unix_ms;
  if (fingerprint != 0) {
    os << ",\"fingerprint\":\"" << fingerprint_hex(fingerprint) << '"';
  }
  if (!source.empty()) os << ",\"source\":\"" << json_escape(source) << '"';
  if (!model.empty()) os << ",\"model\":\"" << json_escape(model) << '"';
  os << ",\"threads\":" << threads;
  if (extract_seconds != 0.0) {
    os << ",\"extract_seconds\":" << json_number(extract_seconds);
  }
  if (propagate_seconds != 0.0) {
    os << ",\"propagate_seconds\":" << json_number(propagate_seconds);
  }
  if (update_seconds != 0.0) {
    os << ",\"update_seconds\":" << json_number(update_seconds);
  }
  if (stage_evaluations != 0) {
    os << ",\"stage_evaluations\":" << stage_evaluations;
  }
  if (has_critical) {
    os << ",\"critical\":{\"node\":\"" << json_escape(critical_node)
       << "\",\"dir\":\"" << json_escape(critical_dir)
       << "\",\"arrival_s\":" << json_number(critical_arrival_s) << '}';
  }
  os << ",\"outcome\":\"" << json_escape(outcome) << '"';
  if (!detail.empty()) os << ",\"detail\":\"" << json_escape(detail) << '"';
  os << '}';
  return os.str();
}

void append_ledger_record(const std::string& path, LedgerRecord record) {
  // Injected `error` refuses the append outright; `partial` leaves the
  // torn line a mid-append crash would -- both must surface to the
  // caller as the same Error a real I/O fault raises.
  const bool partial = failpoint("ledger.append");
  if (record.unix_ms == 0) {
    record.unix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  }
  std::ofstream out(path, std::ios::app);
  if (!out) throw Error("cannot open ledger file '" + path + "' for append");
  const std::string line = record.to_json();
  if (partial) {
    out << line.substr(0, line.size() / 2) << std::flush;
    throw Error("short write to ledger file '" + path + "'");
  }
  out << line << '\n';
  if (!out) throw Error("short write to ledger file '" + path + "'");
}

bool try_append_ledger_record(const std::string& path,
                              const LedgerRecord& record) {
  try {
    append_ledger_record(path, record);
    return true;
  } catch (const Error& e) {
    bump_process_counter("ledger.append_failures");
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::cerr << "sldm: warning: ledger append failed (" << e.what()
                << "); further failures are counted in "
                   "ledger.append_failures without this warning\n";
    }
    return false;
  }
}

std::vector<LedgerRecord> read_ledger_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open ledger file '" + path + "'");
  std::vector<LedgerRecord> records;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (trim(line).empty()) continue;
    const std::string where = path + ":" + std::to_string(lineno);
    JsonValue obj;
    try {
      obj = parse_json(line);
    } catch (const Error& e) {
      throw Error(where + ": " + e.what());
    }
    if (!obj.is_object()) {
      throw Error(where + ": ledger record is not a JSON object");
    }
    LedgerRecord r;
    r.kind = string_or(obj, "kind");
    if (r.kind.empty()) {
      throw Error(where + ": ledger record has no \"kind\"");
    }
    r.version = string_or(obj, "version");
    r.unix_ms = static_cast<std::int64_t>(
        checked_number(obj, "unix_ms", kMaxInteger, true, where));
    const std::string fp = string_or(obj, "fingerprint");
    if (!fp.empty()) {
      // Untrusted field: a hand-edited or corrupt ledger must produce a
      // diagnostic, not std::invalid_argument out of std::stoull.
      const auto parsed = parse_hex_u64(fp);
      if (!parsed) {
        throw Error(where + ": bad fingerprint '" + fp +
                    "' (want 1-16 hex digits)");
      }
      r.fingerprint = *parsed;
    }
    r.source = string_or(obj, "source");
    r.model = string_or(obj, "model");
    r.threads =
        static_cast<int>(checked_number(obj, "threads", INT_MAX, true, where));
    r.extract_seconds =
        checked_number(obj, "extract_seconds", kMaxSeconds, false, where);
    r.propagate_seconds =
        checked_number(obj, "propagate_seconds", kMaxSeconds, false, where);
    r.update_seconds =
        checked_number(obj, "update_seconds", kMaxSeconds, false, where);
    r.stage_evaluations = static_cast<std::uint64_t>(
        checked_number(obj, "stage_evaluations", kMaxInteger, true, where));
    if (const JsonValue* crit = obj.find("critical")) {
      r.has_critical = true;
      r.critical_node = string_or(*crit, "node");
      r.critical_dir = string_or(*crit, "dir");
      r.critical_arrival_s = number_or(*crit, "arrival_s");
    }
    r.outcome = string_or(obj, "outcome");
    r.detail = string_or(obj, "detail");
    records.push_back(std::move(r));
  }
  return records;
}

std::string summarize_ledger(const std::vector<LedgerRecord>& records) {
  // Group by fingerprint, preserving first-seen order.
  std::vector<std::uint64_t> order;
  std::map<std::uint64_t, std::vector<const LedgerRecord*>> groups;
  for (const LedgerRecord& r : records) {
    if (groups[r.fingerprint].empty()) order.push_back(r.fingerprint);
    groups[r.fingerprint].push_back(&r);
  }
  TextTable table({"fingerprint", "records", "kinds", "models",
                   "prop min (ms)", "prop mean (ms)", "prop max (ms)",
                   "last version"});
  for (const std::uint64_t fp : order) {
    const auto& group = groups[fp];
    std::map<std::string, std::size_t> kinds;
    std::set<std::string> models;
    double prop_min = 0.0, prop_max = 0.0, prop_sum = 0.0;
    std::size_t prop_n = 0;
    std::string last_version;
    for (const LedgerRecord* r : group) {
      ++kinds[r->kind];
      if (!r->model.empty()) models.insert(r->model);
      if (r->propagate_seconds > 0.0) {
        if (prop_n == 0 || r->propagate_seconds < prop_min) {
          prop_min = r->propagate_seconds;
        }
        if (prop_n == 0 || r->propagate_seconds > prop_max) {
          prop_max = r->propagate_seconds;
        }
        prop_sum += r->propagate_seconds;
        ++prop_n;
      }
      if (!r->version.empty()) last_version = r->version;
    }
    std::string kind_list, model_list;
    for (const auto& [kind, count] : kinds) {
      if (!kind_list.empty()) kind_list += ',';
      kind_list += format("%s:%zu", kind.c_str(), count);
    }
    for (const std::string& m : models) {
      if (!model_list.empty()) model_list += ',';
      model_list += m;
    }
    const auto ms = [](double s) { return format("%.3f", s * 1e3); };
    table.add_row({fp == 0 ? "-" : fingerprint_hex(fp),
                   std::to_string(group.size()), kind_list,
                   model_list.empty() ? "-" : model_list,
                   prop_n ? ms(prop_min) : "-",
                   prop_n ? ms(prop_sum / static_cast<double>(prop_n)) : "-",
                   prop_n ? ms(prop_max) : "-",
                   last_version.empty() ? "-" : last_version});
  }
  std::ostringstream os;
  os << records.size() << " ledger record(s), " << order.size()
     << " distinct fingerprint(s)\n\n"
     << table.to_string();
  return os.str();
}

}  // namespace sldm
