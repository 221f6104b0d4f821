#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace perfbench {

double NearestRank(const std::vector<double>& sorted, double p) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = NearestRank(samples, 0.5);
  s.p90 = NearestRank(samples, 0.9);
  s.tail = samples.back();
  for (double pct : {99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    const double p = pct / 100;
    const size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(s.n)));
    if (s.n - rank >= 10) {
      s.tail = NearestRank(samples, p);
      s.tail_pct = pct;
      break;
    }
  }
  return s;
}

OpenLoopTimes AccountOpenLoop(const std::vector<OpenLoopSample>& samples) {
  OpenLoopTimes t;
  t.latency_us.reserve(samples.size());
  t.service_us.reserve(samples.size());
  t.late_us.reserve(samples.size());
  for (const OpenLoopSample& s : samples) {
    t.latency_us.push_back(static_cast<double>(s.done_ns - s.due_ns) / 1e3);
    t.service_us.push_back(static_cast<double>(s.done_ns - s.sent_ns) / 1e3);
    t.late_us.push_back(
        static_cast<double>(std::max<int64_t>(0, s.sent_ns - s.due_ns)) / 1e3);
  }
  return t;
}

// ---------------------------------------------------------------------------
// A minimal JSON reader for the flat trace-line shape: an object whose
// values are strings, numbers, booleans or one level of nested object.
// ---------------------------------------------------------------------------

namespace {

class JsonCursor {
 public:
  explicit JsonCursor(const std::string& s) : s_(s) {}

  void Ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  bool Eat(char c) {
    Ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    Ws();
    return i_ < s_.size() && s_[i_] == c;
  }
  bool AtEnd() {
    Ws();
    return i_ == s_.size();
  }

  std::optional<std::string> String() {
    if (!Eat('"')) return std::nullopt;
    std::string out;
    while (i_ < s_.size()) {
      char c = s_[i_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= s_.size()) return std::nullopt;
      char e = s_[i_++];
      switch (e) {
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (i_ + 4 > s_.size()) return std::nullopt;
          out += static_cast<char>(
              std::strtol(s_.substr(i_, 4).c_str(), nullptr, 16));
          i_ += 4;
          break;
        }
        default: out += e;
      }
    }
    return std::nullopt;
  }

  std::optional<double> Number() {
    Ws();
    const char* begin = s_.data() + i_;
    char* end = nullptr;
    double v = std::strtod(begin, &end);
    if (end == begin) return std::nullopt;
    i_ += static_cast<size_t>(end - begin);
    return v;
  }

  std::optional<bool> Bool() {
    Ws();
    if (s_.compare(i_, 4, "true") == 0) {
      i_ += 4;
      return true;
    }
    if (s_.compare(i_, 5, "false") == 0) {
      i_ += 5;
      return false;
    }
    return std::nullopt;
  }

 private:
  const std::string& s_;
  size_t i_ = 0;
};

}  // namespace

std::optional<TraceLine> ParseTraceLine(const std::string& json) {
  JsonCursor c(json);
  if (!c.Eat('{')) return std::nullopt;
  TraceLine t;
  bool have_total = false;
  if (c.Eat('}')) return std::nullopt;
  do {
    auto key = c.String();
    if (!key || !c.Eat(':')) return std::nullopt;
    if (c.Peek('"')) {
      auto v = c.String();
      if (!v) return std::nullopt;
      if (*key == "statement") t.statement = *v;
      if (*key == "status") t.ok = *v == "ok";
    } else if (c.Peek('{')) {
      c.Eat('{');
      if (!c.Eat('}')) {
        do {
          auto wkey = c.String();
          if (!wkey || !c.Eat(':')) return std::nullopt;
          auto v = c.Number();
          if (!v) return std::nullopt;
          std::string name = *wkey;
          if (name.size() > 3 && name.compare(name.size() - 3, 3, "_us") == 0) {
            name.resize(name.size() - 3);
          }
          if (*key == "waits") t.waits[name] = *v;
        } while (c.Eat(','));
        if (!c.Eat('}')) return std::nullopt;
      }
    } else if (c.Peek('t') || c.Peek('f')) {
      auto v = c.Bool();
      if (!v) return std::nullopt;
      if (*key == "cached_plan") t.cached_plan = *v;
    } else {
      auto v = c.Number();
      if (!v) return std::nullopt;
      if (*key == "parse_us") t.parse_us = *v;
      if (*key == "bind_us") t.bind_us = *v;
      if (*key == "optimize_us") t.optimize_us = *v;
      if (*key == "execute_us") t.execute_us = *v;
      if (*key == "rows") t.rows = *v;
      if (*key == "total_us") {
        t.total_us = *v;
        have_total = true;
      }
    }
  } while (c.Eat(','));
  if (!c.Eat('}') || !c.AtEnd() || !have_total) return std::nullopt;
  return t;
}

MetricSnapshot ParsePrometheus(const std::string& text) {
  MetricSnapshot out;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    // The value follows the last space; label values may hold spaces
    // only inside quotes, which precede it.
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0) continue;
    const char* vbegin = line.c_str() + sp + 1;
    char* vend = nullptr;
    const double v = std::strtod(vbegin, &vend);
    if (vend == vbegin || *vend != '\0') continue;
    out[line.substr(0, sp)] = v;
  }
  return out;
}

double Delta(const MetricSnapshot& before, const MetricSnapshot& after,
             const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

double DeltaPrefix(const MetricSnapshot& before, const MetricSnapshot& after,
                   const std::string& prefix) {
  double sum = 0;
  for (auto it = after.lower_bound(prefix);
       it != after.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    sum += Delta(before, after, it->first);
  }
  return sum;
}

void AccumulateDelta(const MetricSnapshot& before, const MetricSnapshot& after,
                     MetricSnapshot* sum) {
  for (const auto& [name, value] : after) (*sum)[name] += Delta(before, after, name);
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      static const char* hex = "0123456789abcdef";
      out += "\\u00";
      out += hex[(c >> 4) & 0xf];
      out += hex[c & 0xf];
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           FormatNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
