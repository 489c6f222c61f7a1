#include "obs/metrics.h"

#include <charconv>
#include <cstdio>

#include "sim/scheduler.h"

namespace vde::obs {

namespace {

// Shortest text that parses back to exactly `v`: byte counts above 10^6
// keep every digit.
std::string FormatDouble(double v) {
  char buf[64];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const uint64_t* Metrics::FindCounter(const std::string& path) const {
  size_t dot = path.find('.');
  if (dot == std::string::npos) {
    auto it = counters_.find(path);
    return it != counters_.end() ? &it->second : nullptr;
  }
  auto child = children_.find(path.substr(0, dot));
  if (child == children_.end()) return nullptr;
  return child->second.FindCounter(path.substr(dot + 1));
}

const double* Metrics::FindGauge(const std::string& path) const {
  size_t dot = path.find('.');
  if (dot == std::string::npos) {
    auto it = gauges_.find(path);
    return it != gauges_.end() ? &it->second : nullptr;
  }
  auto child = children_.find(path.substr(0, dot));
  if (child == children_.end()) return nullptr;
  return child->second.FindGauge(path.substr(dot + 1));
}

const Histogram* Metrics::FindHist(const std::string& path) const {
  size_t dot = path.find('.');
  if (dot == std::string::npos) {
    auto it = hists_.find(path);
    return it != hists_.end() ? &it->second : nullptr;
  }
  auto child = children_.find(path.substr(0, dot));
  if (child == children_.end()) return nullptr;
  return child->second.FindHist(path.substr(dot + 1));
}

Metrics Metrics::DeltaSince(const Metrics& before) const {
  Metrics d = *this;
  for (auto& [name, v] : d.counters_) {
    auto it = before.counters_.find(name);
    if (it != before.counters_.end()) v -= it->second;
  }
  for (auto& [name, h] : d.hists_) {
    auto it = before.hists_.find(name);
    if (it != before.hists_.end()) h = h.DeltaSince(it->second);
  }
  for (auto& [name, child] : d.children_) {
    auto it = before.children_.find(name);
    if (it != before.children_.end()) child = child.DeltaSince(it->second);
  }
  return d;
}

void Metrics::AppendText(std::string& out, const std::string& prefix) const {
  for (const auto& [name, value] : counters_) {
    out += prefix + name + " = " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges_) {
    out += prefix + name + " = " + FormatDouble(value) + "\n";
  }
  for (const auto& [name, h] : hists_) {
    out += prefix + name + ": " + h.Summary() + "\n";
  }
  for (const auto& [name, child] : children_) {
    child.AppendText(out, prefix + name + ".");
  }
}

std::string Metrics::ToText() const {
  std::string out;
  AppendText(out, "");
  return out;
}

void Metrics::AppendJson(std::string& out) const {
  out += '{';
  bool outer_first = true;
  auto section = [&](const char* key) {
    if (!outer_first) out += ',';
    outer_first = false;
    out += '"';
    out += key;
    out += "\":{";
  };
  if (!counters_.empty()) {
    section("counters");
    bool first = true;
    for (const auto& [name, value] : counters_) {
      if (!first) out += ',';
      first = false;
      out += '"' + JsonEscape(name) + "\":" + std::to_string(value);
    }
    out += '}';
  }
  if (!gauges_.empty()) {
    section("gauges");
    bool first = true;
    for (const auto& [name, value] : gauges_) {
      if (!first) out += ',';
      first = false;
      out += '"' + JsonEscape(name) + "\":" + FormatDouble(value);
    }
    out += '}';
  }
  if (!hists_.empty()) {
    section("hists");
    bool first = true;
    for (const auto& [name, h] : hists_) {
      if (!first) out += ',';
      first = false;
      out += '"' + JsonEscape(name) + "\":" + h.ToJson();
    }
    out += '}';
  }
  if (!children_.empty()) {
    section("children");
    bool first = true;
    for (const auto& [name, child] : children_) {
      if (!first) out += ',';
      first = false;
      out += '"' + JsonEscape(name) + "\":";
      child.AppendJson(out);
    }
    out += '}';
  }
  out += '}';
}

std::string Metrics::ToJson() const {
  std::string out;
  AppendJson(out);
  return out;
}

void ExportSim(const sim::Scheduler& sched, Metrics& node) {
  node.Counter("events_processed", sched.events_processed());
  node.Gauge("cores", static_cast<double>(sched.cores()));
  node.Gauge("core_model", sched.core_model_enabled() ? 1 : 0);
  const auto& busy = sched.core_busy_ns();
  for (size_t i = 0; i < busy.size(); ++i) {
    node.Counter("core" + std::to_string(i) + "_busy_ns", busy[i]);
  }
}

}  // namespace vde::obs
