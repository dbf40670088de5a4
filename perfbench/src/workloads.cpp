#include "workloads.h"

#include <sstream>

#include "cli/cli.h"

namespace perfbench {

int cli(const std::vector<std::string>& args, std::string* out) {
  std::ostringstream os;
  std::ostringstream es;
  const int rc = sldm::run_cli(args, os, es);
  if (out != nullptr) *out = os.str();
  return rc;
}

void set_end_to_end(RunResult& result, const HostProbe* probe, double setup_s,
                    double peak_mb, double ops_per_s, const Samples& k1,
                    const Samples& k2, const Samples& k3) {
  const double scale = probe ? probe->scale() : 1.0;
  auto p50_ms = [scale](const Samples& s) {
    return s.empty() ? 0.0 : s.median() * 1e3 * scale;
  };
  result.end_to_end = {
      {"setup_s", "s", setup_s * scale},
      {"peak_rss_mb", "MiB", peak_mb},
      {"ops_per_s", "1/s", ops_per_s / scale},
      {"k1_p50_ms", "ms", p50_ms(k1)},
      {"k2_p50_ms", "ms", p50_ms(k2)},
      {"k3_p50_ms", "ms", p50_ms(k3)},
  };
  if (!probe) {
    result.note("end-to-end timings are as measured (not scaled to the host "
                "probe)");
    return;
  }
  result.note(fmt("host probe %.4f ms (median of %zu): end-to-end timings "
                  "are scaled by %.4f to the %.1f ms reference; the figures "
                  "in these notes are as measured",
                  probe->median_ms(), probe->samples(), scale,
                  probe->reference_ms()));
}

}  // namespace perfbench
