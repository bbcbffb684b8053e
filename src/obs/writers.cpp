#include "obs/writers.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "sweep/result_sink.hpp"  // format_number
#include "util/json.hpp"

namespace hars {
namespace obs {

namespace {

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

template <typename Fn>
bool write_file(const std::string& path, const char* what, Fn&& fn) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "obs: cannot open %s file '%s'\n", what,
                 path.c_str());
    return false;
  }
  fn(out);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "obs: write to %s file '%s' failed\n", what,
                 path.c_str());
    return false;
  }
  return true;
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out = "hars_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void write_metrics_jsonl(std::ostream& out, const MetricsSnapshot& snapshot) {
  for (const MetricValue& m : snapshot.metrics) {
    out << "{\"name\":\"" << json::escape(m.name) << "\",\"kind\":\""
        << kind_name(m.kind) << "\"";
    switch (m.kind) {
      case MetricKind::kCounter:
        out << ",\"value\":" << m.counter;
        break;
      case MetricKind::kGauge:
        out << ",\"value\":" << format_number(m.gauge);
        break;
      case MetricKind::kHistogram: {
        out << ",\"count\":" << m.count << ",\"sum\":" << format_number(m.sum)
            << ",\"p50\":" << format_number(histogram_quantile(m, 0.50))
            << ",\"p90\":" << format_number(histogram_quantile(m, 0.90))
            << ",\"p99\":" << format_number(histogram_quantile(m, 0.99))
            << ",\"buckets\":[";
        for (std::size_t b = 0; b < m.buckets.size(); ++b) {
          if (b != 0) out << ",";
          out << "{\"le\":";
          if (b < m.bounds.size()) {
            out << format_number(m.bounds[b]);
          } else {
            out << "\"+Inf\"";
          }
          out << ",\"n\":" << m.buckets[b] << "}";
        }
        out << "]";
        break;
      }
    }
    out << "}\n";
  }
}

void write_metrics_csv(std::ostream& out, const MetricsSnapshot& snapshot) {
  out << "name,kind,value,count,sum,p50,p90,p99\n";
  for (const MetricValue& m : snapshot.metrics) {
    out << m.name << "," << kind_name(m.kind) << ",";
    switch (m.kind) {
      case MetricKind::kCounter:
        out << m.counter << ",,,,,";
        break;
      case MetricKind::kGauge:
        out << format_number(m.gauge) << ",,,,,";
        break;
      case MetricKind::kHistogram:
        out << "," << m.count << "," << format_number(m.sum) << ","
            << format_number(histogram_quantile(m, 0.50)) << ","
            << format_number(histogram_quantile(m, 0.90)) << ","
            << format_number(histogram_quantile(m, 0.99));
        break;
    }
    out << "\n";
  }
}

void write_prometheus(std::ostream& out, const MetricsSnapshot& snapshot) {
  for (const MetricValue& m : snapshot.metrics) {
    const std::string name = prometheus_name(m.name);
    if (!m.help.empty()) {
      out << "# HELP " << name << " " << m.help << "\n";
    }
    switch (m.kind) {
      case MetricKind::kCounter:
        out << "# TYPE " << name << " counter\n";
        out << name << " " << m.counter << "\n";
        break;
      case MetricKind::kGauge:
        out << "# TYPE " << name << " gauge\n";
        out << name << " " << format_number(m.gauge) << "\n";
        break;
      case MetricKind::kHistogram: {
        out << "# TYPE " << name << " histogram\n";
        // Prometheus buckets are cumulative.
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < m.buckets.size(); ++b) {
          cumulative += m.buckets[b];
          out << name << "_bucket{le=\"";
          if (b < m.bounds.size()) {
            out << format_number(m.bounds[b]);
          } else {
            out << "+Inf";
          }
          out << "\"} " << cumulative << "\n";
        }
        out << name << "_sum " << format_number(m.sum) << "\n";
        out << name << "_count " << m.count << "\n";
        break;
      }
    }
  }
}

void write_chrome_trace(std::ostream& out,
                        const std::vector<SpanEvent>& spans) {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanEvent& s : spans) {
    if (s.name == nullptr) continue;
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json::escape(s.name) << "\",\"cat\":\""
        << json::escape(s.cat != nullptr ? s.cat : "") << "\",\"ph\":\"X\""
        << ",\"ts\":" << format_number(static_cast<double>(s.ts_ns) / 1000.0)
        << ",\"dur\":" << format_number(static_cast<double>(s.dur_ns) / 1000.0)
        << ",\"pid\":0,\"tid\":" << s.tid;
    if (s.ticks > 0) out << ",\"args\":{\"ticks\":" << s.ticks << "}";
    out << "}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

bool write_metrics_jsonl_file(const std::string& path,
                              const MetricsSnapshot& snapshot) {
  return write_file(path, "metrics JSONL",
                    [&](std::ostream& out) { write_metrics_jsonl(out, snapshot); });
}

bool write_metrics_csv_file(const std::string& path,
                            const MetricsSnapshot& snapshot) {
  return write_file(path, "metrics CSV",
                    [&](std::ostream& out) { write_metrics_csv(out, snapshot); });
}

bool write_prometheus_file(const std::string& path,
                           const MetricsSnapshot& snapshot) {
  return write_file(path, "Prometheus",
                    [&](std::ostream& out) { write_prometheus(out, snapshot); });
}

bool write_chrome_trace_file(const std::string& path,
                             const std::vector<SpanEvent>& spans) {
  return write_file(path, "Chrome trace",
                    [&](std::ostream& out) { write_chrome_trace(out, spans); });
}

}  // namespace obs
}  // namespace hars
