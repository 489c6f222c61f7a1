// vdebench command line. Each run of a workload happens in a forked child,
// one at a time, so every child's peak RSS is its own and the sim state of
// one run cannot leak into the next.
//
//   vdebench [--workload=NAME] [--seed=N] [--out=PATH] [--traced] [--quick]
//            [--seconds=S] [--check]
//
// Prints "<workload> <metric> <value> <unit>" lines and, with --out, writes
// the results as JSON. Exits non-zero only when a correctness check fails;
// failed guest ops are counted, not fatal.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.h"

using namespace vde;
using namespace vde::bench;

namespace {

struct Args {
  std::string workload;  // "" = all
  uint64_t seed = 1;
  std::string out;
  bool traced = false;
  bool quick = false;
  bool check = false;
  double seconds = 0;
};

bool Parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    char* end = nullptr;
    if (const char* v = value("--workload=")) {
      a.workload = v;
      if (FindWorkload(a.workload) == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", v);
        return false;
      }
    } else if (const char* v = value("--seed=")) {
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (const char* v = value("--seconds=")) {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || a.seconds < 0) return false;
    } else if (const char* v = value("--out=")) {
      a.out = v;
    } else if (arg == "--traced") {
      a.traced = true;
    } else if (arg == "--quick") {
      a.quick = true;
    } else if (arg == "--check") {
      a.check = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// --- child runs ---

struct Child {
  RunOutput out;
  double peak_rss_mb = 0;
};

std::string Serialize(const RunOutput& o) {
  std::ostringstream s;
  s.precision(17);
  auto metrics = [&](char tag, const std::vector<Metric>& ms) {
    for (const Metric& m : ms) {
      s << tag << ' ' << m.name << ' ' << m.value << ' ' << m.unit << ' '
        << m.ratio << ' ' << m.num << ' ' << m.den << '\n';
    }
  };
  metrics('E', o.e2e);
  metrics('L', o.layer);
  s << "W " << o.window_close_ns << ' ' << o.window_events << ' '
    << o.events_in_window << ' ' << o.window_cpu_ns << ' ' << o.stream_hash
    << ' ' << o.attempted << ' ' << o.failed << ' ' << o.mismatched << '\n';
  for (const std::string& e : o.errors) s << "X " << e << '\n';
  return s.str();
}

RunOutput Deserialize(const std::string& text) {
  RunOutput o;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream s(line);
    char tag = 0;
    s >> tag;
    if (tag == 'E' || tag == 'L') {
      Metric m;
      s >> m.name >> m.value >> m.unit >> m.ratio >> m.num >> m.den;
      (tag == 'E' ? o.e2e : o.layer).push_back(m);
    } else if (tag == 'W') {
      s >> o.window_close_ns >> o.window_events >> o.events_in_window >>
          o.window_cpu_ns >> o.stream_hash >> o.attempted >> o.failed >>
          o.mismatched;
    } else if (tag == 'X') {
      o.errors.push_back(line.substr(2));
    }
  }
  return o;
}

Child RunChild(const Workload& w, const RunConfig& config) {
  Child child;
  int fds[2];
  if (pipe(fds) != 0) {
    child.out.errors.push_back("pipe failed");
    return child;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    child.out.errors.push_back("fork failed");
    close(fds[0]);
    close(fds[1]);
    return child;
  }
  if (pid == 0) {
    close(fds[0]);
    const std::string text = Serialize(RunWorkload(w, config));
    for (size_t off = 0; off < text.size();) {
      const ssize_t n = write(fds[1], text.data() + off, text.size() - off);
      if (n <= 0) _exit(3);
      off += static_cast<size_t>(n);
    }
    std::exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) {
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  wait4(pid, &status, 0, &ru);
  child.out = Deserialize(text);
  child.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    child.out.errors.push_back(
        "child run of " + w.name + " died (" +
        (WIFSIGNALED(status) ? "signal " + std::to_string(WTERMSIG(status))
                             : "exit " + std::to_string(WEXITSTATUS(status))) +
        ")");
  }
  return child;
}

// --- reporting ---

const Metric* Find(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendMetrics(std::string& json, const std::vector<Metric>& ms) {
  json += "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    json += (i == 0 ? "\"" : ",\"") + m.name + "\":{\"value\":" +
            Num(m.value) + ",\"unit\":\"" + m.unit + "\"";
    if (m.ratio) json += ",\"num\":" + Num(m.num) + ",\"den\":" + Num(m.den);
    json += "}";
  }
  json += "}";
}

// Sim-clock metrics must repeat exactly for one (code, seed); host metrics
// may not.
bool IsHostMetric(const std::string& name) {
  for (const char* host : {"host_cpu_us_per_op", "setup_s", "peak_rss_mb",
                           "host_cpu_raw_us_per_op", "setup_wall_s",
                           "ref_loop_us"}) {
    if (name == host) return true;
  }
  return false;
}

bool SimIdentical(const RunOutput& a, const RunOutput& b, std::string* why) {
  if (a.window_close_ns != b.window_close_ns ||
      a.window_events != b.window_events) {
    *why = "window closed at " + std::to_string(a.window_close_ns) + " ns / " +
           std::to_string(a.window_events) + " events vs " +
           std::to_string(b.window_close_ns) + " ns / " +
           std::to_string(b.window_events) + " events";
    return false;
  }
  for (const Metric& m : a.e2e) {
    if (IsHostMetric(m.name)) continue;
    const Metric* o = Find(b.e2e, m.name);
    if (o == nullptr || o->value != m.value) {
      *why = m.name + " differs";
      return false;
    }
  }
  return true;
}

RunConfig Untraced(const Args& a, bool single_setup) {
  RunConfig c;
  c.seed = a.seed;
  c.quick = a.quick;
  c.setups = a.quick || single_setup ? 1 : 3;
  c.min_seconds = single_setup ? 0 : a.seconds;
  return c;
}

RunConfig Traced(const Args& a, const std::string& prefix) {
  RunConfig c;
  c.seed = a.seed;
  c.quick = a.quick;
  c.traced = true;
  c.setups = 1;
  c.trace_prefix = prefix;
  return c;
}

// --check: determinism, obs on/off identity, and seed sensitivity, each
// workload in its quick shape.
int SelfCheck(const std::vector<const Workload*>& workloads, Args a) {
  a.quick = true;
  int failures = 0;
  auto report = [&](const std::string& w, const char* what, bool ok,
                    const std::string& why) {
    std::printf("check %s %s %s%s%s\n", w.c_str(), what, ok ? "PASS" : "FAIL",
                ok ? "" : ": ", ok ? "" : why.c_str());
    failures += ok ? 0 : 1;
  };
  for (const Workload* w : workloads) {
    const Child first = RunChild(*w, Untraced(a, true));
    const Child again = RunChild(*w, Untraced(a, true));
    const Child traced = RunChild(*w, Traced(a, ""));
    Args other = a;
    other.seed = a.seed + 1;
    const Child reseeded = RunChild(*w, Untraced(other, true));
    for (const Child* c : {&first, &again, &traced, &reseeded}) {
      for (const std::string& e : c->out.errors) {
        report(w->name, "run", false, e);
      }
    }
    std::string why;
    report(w->name, "same-seed-identical",
           SimIdentical(first.out, again.out, &why), why);
    report(w->name, "obs-on-off-identical",
           SimIdentical(first.out, traced.out, &why), why);
    report(w->name, "seed-changes-op-stream",
           first.out.stream_hash != reseeded.out.stream_hash,
           "seeds " + std::to_string(a.seed) + " and " +
               std::to_string(other.seed) + " issued the same ops");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!Parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: vdebench [--workload=NAME] [--seed=N] [--out=PATH] "
                 "[--traced] [--quick] [--seconds=S] [--check]\n");
    return 2;
  }
  std::vector<const Workload*> selected;
  for (const Workload& w : Workloads()) {
    if (a.workload.empty() || a.workload == w.name) selected.push_back(&w);
  }
  if (a.check) return SelfCheck(selected, a);

  std::string prefix = a.out;
  if (prefix.size() > 5 && prefix.compare(prefix.size() - 5, 5, ".json") == 0) {
    prefix.resize(prefix.size() - 5);
  }
  bool all_ok = true;
  std::string json = "{\"seed\":" + std::to_string(a.seed) +
                     ",\"quick\":" + (a.quick ? "true" : "false") +
                     ",\"traced\":" + (a.traced ? "true" : "false") +
                     ",\"workloads\":{";
  for (size_t i = 0; i < selected.size(); ++i) {
    const Workload& w = *selected[i];
    Child untraced = RunChild(w, Untraced(a, a.traced));
    RunOutput& u = untraced.out;
    u.e2e.push_back(Value("peak_rss_mb", untraced.peak_rss_mb, "MB"));
    std::vector<std::string> errors = u.errors;
    uint64_t attempted = u.attempted, failed = u.failed,
             mismatched = u.mismatched;
    std::vector<Metric> layer;
    if (a.traced) {
      const Child traced = RunChild(
          w, Traced(a, prefix.empty() ? "" : prefix + "." + w.name));
      const RunOutput& t = traced.out;
      errors.insert(errors.end(), t.errors.begin(), t.errors.end());
      attempted += t.attempted;
      failed += t.failed;
      mismatched += t.mismatched;
      std::string why;
      if (!SimIdentical(u, t, &why)) {
        errors.push_back("traced run is not sim-identical: " + why);
      }
      layer = t.layer;
      layer.push_back(Ratio("host.sim_ns_per_event",
                            static_cast<double>(u.window_cpu_ns),
                            static_cast<double>(u.events_in_window), "ns"));
      const Metric* tc = Find(t.e2e, "host_cpu_us_per_op");
      const Metric* uc = Find(u.e2e, "host_cpu_us_per_op");
      layer.push_back(Value(
          "trace.overhead_pct",
          tc != nullptr && uc != nullptr && uc->value > 0
              ? (tc->value / uc->value - 1) * 100
              : 0,
          "%"));
    }
    for (const Metric& m : u.e2e) {
      std::printf("%s %s %.6g %s\n", w.name.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const Metric& m : layer) {
      std::printf("%s %s %.6g %s\n", w.name.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const std::string& e : errors) {
      std::printf("%s CHECK FAILED: %s\n", w.name.c_str(), e.c_str());
    }
    all_ok = all_ok && errors.empty();

    json += (i == 0 ? "\"" : ",\"") + w.name + "\":{\"correct\":" +
            (errors.empty() && mismatched == 0 ? "true" : "false") +
            ",\"attempted\":" + std::to_string(attempted) +
            ",\"failed\":" + std::to_string(failed) +
            ",\"mismatched\":" + std::to_string(mismatched) + ",\"errors\":[";
    for (size_t e = 0; e < errors.size(); ++e) {
      json += (e == 0 ? "\"" : ",\"") + obs::JsonEscape(errors[e]) + "\"";
    }
    json += "],\"e2e\":";
    AppendMetrics(json, u.e2e);
    json += ",\"per_layer\":";
    AppendMetrics(json, layer);
    json += "}";
  }
  json += "}}\n";
  if (!a.out.empty()) {
    std::ofstream f(a.out, std::ios::binary);
    f << json;
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", a.out.c_str());
      return 1;
    }
  }
  return all_ok ? 0 : 1;
}
