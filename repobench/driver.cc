// The benchmark driver: runs one workload's lifecycle (workloads.h) over
// prepared inputs for a fixed time, checks its outputs, and prints one JSON
// line with operations attempted/failed and the metrics — the end-to-end
// set (--trace 0, every recorder off) or the per-layer set (--trace 1,
// session traces and metrics on in alternate pipeline cycles).
//
//   repobench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --inputs DIR --work DIR --expected FILE

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "paris/api/session.h"
#include "paris/core/result_reader.h"
#include "paris/service/daemon.h"
#include "paris/util/logging.h"
#include "traffic.h"
#include "workloads.h"

namespace repobench {
namespace {

using Clock = std::chrono::steady_clock;
using paris::api::Session;
using paris::util::Status;

// Release guard: numbers from an unoptimised build or one with assertions
// on are refused, not recorded.
#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<float> values, double p) {
  if (values.empty()) return 0.0;
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(std::ceil(p * static_cast<double>(values.size()))) -
          (p > 0 ? 1 : 0));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Splits `text` into lines, skipping blanks and '#' comments.
std::vector<std::string_view> DataLines(std::string_view text) {
  std::vector<std::string_view> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    if (!line.empty() && line.front() != '#') lines.push_back(line);
    pos = end + 1;
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Timing and memory
// ---------------------------------------------------------------------------

// One public library call, timed by the benchmark. `start` is in seconds
// since the cycle's Session was constructed, which is also (to within the
// constructor's few microseconds) the zero of the session's trace clock.
struct CallSpan {
  const char* name;
  double start;
  double seconds;
};

// Runs `fn`, a library call returning whether it succeeded, and logs it.
template <typename Fn>
bool Timed(std::vector<CallSpan>& calls, Clock::time_point origin,
           const char* name, Fn&& fn) {
  const auto start = Clock::now();
  const bool ok = fn();
  calls.push_back({name, Seconds(origin, start), Seconds(start, Clock::now())});
  return ok;
}

// The resident set and its high-water mark, in MB (/proc/self/status).
struct Rss {
  double now_mb = 0, peak_mb = 0;
};

Rss ReadRss() {
  std::ifstream in("/proc/self/status");
  Rss rss;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      rss.now_mb = std::atof(line.c_str() + 6) / 1024.0;  // kB
    } else if (line.rfind("VmHWM:", 0) == 0) {
      rss.peak_mb = std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return rss;
}

// How far one part of the run (a pipeline cycle, a serve window) raises the
// resident set above where the part started. The high-water mark is reset
// to the current RSS when the part starts, so whatever the benchmark keeps
// between parts (gold pairs, the request mix, sampled replies) is already
// resident then and never counted.
class RssRise {
 public:
  RssRise() {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";  // reset the peak RSS
    clear.close();
    if (!clear) Die("cannot reset the peak RSS through /proc/self/clear_refs");
    start_mb_ = ReadRss().now_mb;
  }
  double Mb() const { return ReadRss().peak_mb - start_mb_; }

 private:
  double start_mb_ = 0;
};

// Operations attempted/failed: every public call the benchmark makes, and
// every request it sends.
struct Accounting {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  bool Op(const Status& status, const std::string& what) {
    ++attempted;
    if (status.ok()) return true;
    ++failed;
    std::fprintf(stderr, "repobench: %s: %s\n", what.c_str(),
                 status.ToString().c_str());
    return false;
  }
  void Fail(const std::string& message) {
    correct = false;
    std::fprintf(stderr, "repobench: check failed: %s\n", message.c_str());
  }
};

// ---------------------------------------------------------------------------
// Session trace parsing (Chrome trace-event JSON from Session::WriteTrace).
// ---------------------------------------------------------------------------

struct TraceSpan {
  std::string cat, name;
  double ts = 0.0, dur = 0.0;  // seconds
  int tid = 0;                 // 0 = the thread that called the session
  int iteration = 0;
};

std::string StringField(std::string_view event, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const size_t at = event.find(needle);
  if (at == std::string_view::npos) return {};
  const size_t begin = at + needle.size();
  return std::string(event.substr(begin, event.find('"', begin) - begin));
}

double NumberField(std::string_view event, std::string_view key,
                   double fallback) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const size_t at = event.find(needle);
  if (at == std::string_view::npos) return fallback;
  return std::strtod(std::string(event.substr(at + needle.size(), 24)).c_str(),
                     nullptr);
}

std::vector<TraceSpan> ParseTrace(const std::string& json) {
  std::vector<TraceSpan> spans;
  const std::string marker = "{\"ph\":\"X\"";
  size_t at = json.find(marker);
  while (at != std::string::npos) {
    const size_t next = json.find(marker, at + 1);
    const std::string_view event(json.data() + at,
                                 (next == std::string::npos ? json.size()
                                                            : next) -
                                     at);
    TraceSpan span;
    span.cat = StringField(event, "cat");
    span.name = StringField(event, "name");
    span.ts = NumberField(event, "ts", 0) * 1e-6;
    span.dur = NumberField(event, "dur", 0) * 1e-6;
    span.tid = static_cast<int>(NumberField(event, "tid", 0));
    span.iteration = static_cast<int>(NumberField(event, "iteration", 0));
    spans.push_back(std::move(span));
    at = next;
  }
  return spans;
}

// Seconds of [begin, end) inside the union of the calling thread's session
// spans, i.e. inside its top-level spans (nested spans add nothing).
double Covered(const std::vector<TraceSpan>& spans, double begin, double end) {
  std::vector<std::pair<double, double>> parts;
  for (const TraceSpan& s : spans) {
    const double a = std::max(begin, s.ts), b = std::min(end, s.ts + s.dur);
    if (s.tid == 0 && a < b) parts.emplace_back(a, b);
  }
  std::sort(parts.begin(), parts.end());
  double covered = 0.0, reach = begin;
  for (const auto& [a, b] : parts) {
    if (b > reach) {
      covered += b - std::max(a, reach);
      reach = b;
    }
  }
  return covered;
}

// Per-layer numbers of one traced pipeline cycle.
using LayerValues = std::map<std::string, double>;

LayerValues LayersFromTrace(const std::vector<TraceSpan>& spans) {
  LayerValues v;
  const auto sum = [&](const std::string& cat, const std::string& prefix) {
    double total = 0.0;
    for (const auto& s : spans) {
      if (s.cat == cat && s.name.rfind(prefix, 0) == 0) total += s.dur;
    }
    return total;
  };
  v["rdf.parse_s"] = sum("io", "rdf.parse.");
  v["storage.index_build_s"] = sum("io", "index.build");
  v["storage.tri_build_s"] = sum("io", "tri.build");
  v["storage.merge_delta_s"] = sum("io", "index.merge_delta");
  v["storage.snapshot_save_s"] = sum("io", "snapshot.save");
  v["ontology.functionality_s"] = sum("io", "ontology.functionality");
  v["ontology.apply_delta_s"] = sum("io", "delta.merge");

  // The cold Align is the session's first fixpoint run; later runs are the
  // delta Realigns.
  double a0 = 0.0, a1 = -1.0;
  for (const auto& s : spans) {
    if (s.cat == "run" && s.name == "align" && (a1 < 0 || s.ts < a0)) {
      a0 = s.ts;
      a1 = s.ts + s.dur;
    }
  }
  const auto in_align = [&](const TraceSpan& s) {
    return s.ts >= a0 - 1e-6 && s.ts + s.dur <= a1 + 1e-6;
  };
  const auto sum_align = [&](const std::string& cat, const std::string& name) {
    double total = 0.0;
    for (const auto& s : spans) {
      if (s.cat == cat && s.name == name && in_align(s)) total += s.dur;
    }
    return total;
  };
  v["core.instance_prepare_s"] = sum_align("phase", "instance.prepare");
  v["core.instance_shards_s"] = sum_align("phase", "instance.shards");
  v["core.instance_merge_s"] = sum_align("phase", "instance.merge");
  v["core.relation_pass_s"] = sum_align("pass", "relation");
  v["core.class_pass_s"] = sum_align("pass", "class");

  std::map<int, std::vector<double>> shard_times;  // per iteration
  double iterations = 0.0, busy = 0.0;
  for (const auto& s : spans) {
    if (!in_align(s)) continue;
    if (s.cat == "iteration") iterations += 1.0;
    if (s.cat == "shard" && s.name == "instance") {
      shard_times[s.iteration].push_back(s.dur);
      busy += s.dur;
    }
  }
  v["core.iterations"] = iterations;
  std::vector<double> imbalance;
  for (auto& [iteration, times] : shard_times) {
    const double median = Median(times);
    if (median > 0) {
      imbalance.push_back(*std::max_element(times.begin(), times.end()) /
                          median);
    }
  }
  v["core.shard_imbalance"] = Median(imbalance);
  const double shards_wall = v["core.instance_shards_s"];
  v["core.worker_busy_fraction"] =
      shards_wall > 0 ? busy / (static_cast<double>(kThreads) * shards_wall)
                      : 0.0;
  return v;
}

uint64_t CounterValue(const paris::obs::MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Pipeline cycles
// ---------------------------------------------------------------------------

struct CycleResult {
  bool traced = false;
  // The run's first cycle: the process is fresh, so its heap, the page
  // cache and the CPU caches are cold. It is checked but not timed.
  bool warmup = false;
  double setup = 0, align = 0, update = 0, total = 0, realign = 0,
         export_s = 0;
  // RSS rise (RssRise) over the setup call, and over the whole cycle and
  // the serve window after it.
  double setup_rss_mb = 0, rss_mb = 0;
  // Traced cycles: per public call, its seconds and the seconds of it that
  // the session's top-level spans cover.
  std::map<std::string, std::pair<double, double>> call_coverage;
  uint64_t digest = 0;
  double precision = 0, recall = 0;
  size_t aligned_after_update = 0;
  double snapshot_bytes_per_triple = 0;
  double snapshot_bytes = 0;
  LayerValues layers;
};

struct Run {
  const WorkloadSpec* spec = nullptr;
  std::string inputs, work, expected;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  Accounting acct;
  std::unordered_map<std::string, std::string> gold;  // left -> right name
};

std::string PipelineSnapshot(const Run& run) {
  return run.work + "/cycle.snap";
}
std::string PipelineResult(const Run& run) {
  return run.work + "/cycle.result";
}

void EvaluateInstances(const Run& run, const std::string& tsv,
                       CycleResult* cycle) {
  size_t predicted = 0, correct = 0;
  for (std::string_view line : DataLines(tsv)) {
    const size_t tab = line.find('\t');
    const size_t tab2 = line.find('\t', tab + 1);
    if (tab == std::string_view::npos) continue;
    ++predicted;
    const auto it = run.gold.find(std::string(line.substr(0, tab)));
    if (it != run.gold.end() &&
        it->second == line.substr(tab + 1, tab2 - tab - 1)) {
      ++correct;
    }
  }
  cycle->precision = predicted == 0 ? 0.0 : double(correct) / double(predicted);
  cycle->recall = run.gold.empty()
                      ? 0.0
                      : double(correct) / double(run.gold.size());
}

// The pipeline options every Session of a workload uses.
Session::Options PipelineOptions(const WorkloadSpec& spec) {
  Session::Options options;
  options.set_threads(kThreads);
  if (spec.iterations > 0) {
    options.set_max_iterations(spec.iterations);
    options.config.convergence_threshold = 0.0;
  }
  return options;
}

CycleResult RunCycle(Run& run, bool traced) {
  const WorkloadSpec& spec = *run.spec;
  CycleResult cycle;
  cycle.traced = traced;
  const RssRise rss;
  Session::Options options = PipelineOptions(spec);
  options.set_trace(traced).set_metrics(traced);
  auto session = std::make_unique<Session>(options);
  const auto origin = Clock::now();  // ~ the session's trace clock zero
  std::vector<CallSpan> calls;
  const auto call = [&](const char* name, auto&& fn) {
    return Timed(calls, origin, name, fn);
  };
  Accounting& acct = run.acct;

  const bool loaded = call("setup", [&] {
    return acct.Op(
        spec.serve_primary
            ? session->LoadFromSnapshot(ServeSnapshotPath(run.inputs))
            : session->LoadFromFiles(LeftPath(run.inputs),
                                     RightPath(run.inputs)),
        "load");
  });
  cycle.setup = calls.back().seconds;
  cycle.setup_rss_mb = rss.Mb();
  if (!loaded) return cycle;
  if (!call("align", [&] { return acct.Op(session->Align(), "Align"); })) {
    return cycle;
  }
  cycle.align = calls.back().seconds;
  const std::string prefix = run.work + "/cycle";
  if (!call("export",
            [&] { return acct.Op(session->Export(prefix), "Export"); })) {
    return cycle;
  }
  cycle.export_s = calls.back().seconds;
  const double export_end = calls.back().start + calls.back().seconds;
  for (size_t i = 0; i < spec.delta_files; ++i) {
    const bool ok =
        call("apply_delta",
             [&] {
               return acct.Op(session->ApplyDelta(Session::DeltaSide::kLeft,
                                                  DeltaPath(run.inputs, i)),
                              "ApplyDelta");
             }) &&
        call("realign", [&] { return acct.Op(session->Realign(), "Realign"); });
    if (!ok) return cycle;
    cycle.realign += calls.back().seconds;
    cycle.update += calls[calls.size() - 2].seconds + calls.back().seconds;
  }
  if (!call("snapshot_save", [&] {
        return acct.Op(session->SaveSnapshot(PipelineSnapshot(run)),
                       "SaveSnapshot");
      })) {
    return cycle;
  }
  cycle.total = (spec.update_is_primary
                     ? calls.back().start + calls.back().seconds
                     : export_end) -
                calls.front().start;

  // Checks and layer numbers, outside every timed call.
  cycle.aligned_after_update = session->summary().instances_aligned;
  cycle.snapshot_bytes = static_cast<double>(
      std::filesystem::file_size(PipelineSnapshot(run)));
  cycle.snapshot_bytes_per_triple =
      cycle.snapshot_bytes /
      double(session->left().num_triples() + session->right().num_triples());
  const std::string tsv = ReadFile(prefix + "_instances.tsv");
  cycle.digest = Fnv1a(tsv);
  EvaluateInstances(run, tsv, &cycle);
  if (!spec.serve_primary) {
    acct.Op(session->SaveResult(PipelineResult(run)), "SaveResult");
  }
  if (traced) {
    std::ostringstream trace;
    acct.Op(session->WriteTrace(trace), "WriteTrace");
    const std::vector<TraceSpan> spans = ParseTrace(trace.str());
    cycle.layers = LayersFromTrace(spans);
    for (const CallSpan& c : calls) {
      auto& [seconds, covered] = cycle.call_coverage[c.name];
      seconds += c.seconds;
      covered += Covered(spans, c.start, c.start + c.seconds);
    }
    auto metrics = session->Metrics();
    if (acct.Op(metrics.status(), "Metrics")) {
      const double scored =
          double(CounterValue(*metrics, "instance.entities_scored"));
      const double reused =
          double(CounterValue(*metrics, "instance.entities_reused"));
      cycle.layers["core.entities_scored"] = scored;
      cycle.layers["core.entities_reused"] = reused;
      cycle.layers["core.candidates_emitted"] =
          double(CounterValue(*metrics, "instance.candidates_emitted"));
      cycle.layers["core.reuse_ratio"] =
          scored + reused > 0 ? reused / (scored + reused) : 0.0;
    }
    cycle.layers["core.realign_s"] = cycle.realign;
    cycle.layers["core.export_s"] = cycle.export_s;
    cycle.layers["storage.snapshot_bytes"] = cycle.snapshot_bytes;
  }
  session.reset();
  cycle.rss_mb = rss.Mb();
  return cycle;
}

// The update workload's check: the incrementally updated alignment stays
// within 2% (aligned instances) of a cold Align over base plus all deltas.
void CheckAgainstColdAlign(Run& run, size_t incremental) {
  Session cold(PipelineOptions(*run.spec));
  if (!run.acct.Op(cold.LoadFromFiles(FullLeftPath(run.inputs),
                                      RightPath(run.inputs)),
                   "load full") ||
      !run.acct.Op(cold.Align(), "Align full")) {
    return;
  }
  const double reference = double(cold.summary().instances_aligned);
  const double drift = std::abs(double(incremental) - reference) /
                       std::max(1.0, reference);
  if (drift > 0.02) {
    run.acct.Fail("incremental alignment aligns " +
                  std::to_string(incremental) + " instances, cold " +
                  std::to_string(static_cast<size_t>(reference)));
  }
}

// The cold Align's instance TSV digest, precision and recall as a line of
// expected.tsv: workload, seed, digest, precision, recall.
std::string ExpectedLine(const Run& run, const CycleResult& cycle) {
  char line[256];
  std::snprintf(line, sizeof(line), "%s\t%llu\t%016llx\t%.17g\t%.17g",
                run.spec->name, static_cast<unsigned long long>(run.seed),
                static_cast<unsigned long long>(cycle.digest), cycle.precision,
                cycle.recall);
  return line;
}

// Digest, precision and recall must be equal in every cycle of the run, and
// equal to the line recorded for this workload and seed in the expected
// file when it has one. Returns "matched", "differs" or "not recorded".
const char* CheckRepeatable(Run& run, const std::vector<CycleResult>& cycles) {
  for (const CycleResult& c : cycles) {
    if (c.digest != cycles.front().digest ||
        c.precision != cycles.front().precision ||
        c.recall != cycles.front().recall) {
      run.acct.Fail("instance alignment differs between cycles of one run");
    }
  }
  const std::string mine = ExpectedLine(run, cycles.front());
  const std::string key = mine.substr(0, mine.find('\t', mine.find('\t') + 1));
  const std::string records = ReadFile(run.expected);
  for (std::string_view line : DataLines(records)) {
    if (line.substr(0, key.size() + 1) != key + "\t") continue;
    if (line == mine) return "matched";
    run.acct.Fail("instance alignment '" + mine +
                  "' differs from the record '" + std::string(line) + "'");
    return "differs";
  }
  return "not recorded";
}

// ---------------------------------------------------------------------------
// Serve windows
// ---------------------------------------------------------------------------

// The serve request mix, drawn from a session loaded from the served
// snapshot for this alone and freed again, so it is not resident while the
// pipeline and the daemon run.
std::vector<ServeRequest> BuildMix(Run& run, const std::string& snapshot) {
  std::vector<ServeRequest> mix;
  {
    Session served;
    if (run.acct.Op(served.LoadFromSnapshot(snapshot), "LoadFromSnapshot")) {
      mix = BuildRequestMix(served, run.seed, size_t{1} << 17);
    }
  }
  return mix;
}

// A serve window is cut into sub-windows of about this length, one CPU
// serving each (Placement). The first sub-window is a warm-up and is not
// reported: the daemon is fresh, its reply cache empty and the result
// snapshot's pages not yet touched. The rest form rounds of one sub-window
// on every CPU. Serve numbers are taken per round, so each sample weighs
// every CPU alike, and reported as medians over the rounds of the run, so
// one scheduling hiccup moves one sample, not the run's percentile. The
// run's first window, after the warm-up cycle, is not reported at all.
constexpr double kSubWindowSeconds = 0.25;

struct ServeTotals {
  std::vector<double> lookup_p50, lookup_p90, lookup_p99, query_p50,
      query_p90, query_p99, rps;
  uint64_t responses = 0;
  std::vector<double> start_s;
  double cache_hits = 0, cache_misses = 0;
  // Per daemon histogram: its bounds and the counts summed over windows.
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      server_histograms;
  std::vector<double> job_shards;
  std::vector<std::pair<size_t, std::string>> samples;  // (mix index, reply)
};

// The numbers of array `key` inside the METRICS JSON object `name`.
std::vector<double> JsonArray(const std::string& json, const std::string& name,
                              const std::string& key) {
  std::vector<double> values;
  const size_t at = json.find("\"" + name + "\"");
  if (at == std::string::npos) return values;
  const std::string open = "\"" + key + "\":[";
  size_t pos = json.find(open, at);
  if (pos == std::string::npos) return values;
  pos += open.size();
  while (pos < json.size() && json[pos] != ']') {
    char* end = nullptr;
    values.push_back(std::strtod(json.c_str() + pos, &end));
    pos = static_cast<size_t>(end - json.c_str());
    if (pos < json.size() && json[pos] == ',') ++pos;
  }
  return values;
}

// The bucket bound below which 99% of a daemon histogram's samples fall;
// the overflow bucket reads as twice the last bound.
double HistogramP99(const std::vector<double>& bounds,
                    const std::vector<double>& counts) {
  double total = 0;
  for (double c : counts) total += c;
  double seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (total > 0 && seen >= 0.99 * total) {
      if (i < bounds.size()) return bounds[i];
      return bounds.empty() ? 0.0 : 2 * bounds.back();
    }
  }
  return 0.0;
}

// One serve window; returns how far it raised the RSS (MB).
double ServeWindow(Run& run, const std::string& snapshot,
                   const std::string& result,
                   const std::vector<ServeRequest>& mix, double seconds,
                   size_t window_index, ServeTotals* totals) {
  const RssRise rss;
  paris::service::Daemon::Config config;
  config.num_handlers = 3;  // the client, control, the job's watcher
  config.auto_resume = false;
  config.serve_result = result;
  config.queue.data_dir = run.work + "/daemon";
  config.queue.snapshot_path = snapshot;
  config.queue.checkpoint_interval_seconds = 3600;
  std::filesystem::remove_all(config.queue.data_dir);
  paris::service::Daemon daemon(config);
  Placement placement;
  placement.first_cpu = window_index % std::thread::hardware_concurrency();
  const std::vector<int> before = ThreadIds();
  const auto start_begin = Clock::now();
  PinCaller(static_cast<int>(placement.first_cpu));  // the daemon inherits it
  const bool started = run.acct.Op(daemon.Start(), "Daemon::Start");
  PinCaller(-1);
  if (!started) return rss.Mb();
  // Daemon::Start creates the job queue's worker first and then its handler
  // and accept threads, and thread ids rise in creation order: every new
  // thread but the first serves requests.
  std::vector<int> fresh;
  const std::vector<int> after = ThreadIds();
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(fresh));
  if (fresh.size() != config.num_handlers + 2) {
    Die("the daemon started " + std::to_string(fresh.size()) +
        " threads, not a worker, " + std::to_string(config.num_handlers) +
        " handlers and an acceptor; the serve placement needs updating");
  }
  placement.serving_threads.assign(fresh.begin() + 1, fresh.end());
  const bool warmup = window_index == 0;
  if (!warmup) totals->start_s.push_back(Seconds(start_begin, Clock::now()));
  const int port = daemon.port();

  auto control = paris::util::SocketConn::Connect("127.0.0.1",
                                                  static_cast<uint16_t>(port));
  if (!run.acct.Op(control.status(), "connect")) return rss.Mb();
  const auto request = [&](const std::string& payload) {
    std::string reply;
    ++run.acct.attempted;
    if (!Call(*control, payload, &reply) || reply.rfind("OK", 0) != 0) {
      ++run.acct.failed;
      std::fprintf(stderr, "repobench: '%s' -> '%s'\n", payload.c_str(),
                   reply.c_str());
      return std::string();
    }
    return reply;
  };

  std::string job;
  std::thread watcher;
  size_t shard_events = 0;
  if (run.spec->serve_primary) {
    const std::string reply = request("SUBMIT threads=1");
    job = reply.size() > 3 ? reply.substr(3) : "";
    if (!job.empty()) {
      watcher = std::thread([&, port] {
        auto conn = paris::util::SocketConn::Connect(
            "127.0.0.1", static_cast<uint16_t>(port));
        if (!conn.ok()) return;
        std::string frame = "WATCH " + job;
        if (!paris::service::WriteFrame(*conn, frame).ok()) return;
        for (;;) {
          const auto more = paris::service::ReadFrame(*conn, &frame);
          if (!more.ok() || !*more || frame.rfind("END", 0) == 0) break;
          if (frame.rfind("EVT", 0) == 0 &&
              frame.find(" shard ") != std::string::npos) {
            ++shard_events;
          }
        }
      });
    }
  }

  ClientResult client;
  const size_t cpus = std::thread::hardware_concurrency();
  const size_t rounds = std::max<size_t>(
      1, static_cast<size_t>(
             std::llround(seconds / (double(cpus) * kSubWindowSeconds))));
  const size_t num_sub_windows = 1 + rounds * cpus;
  const double sub_window_seconds = seconds / double(num_sub_windows);
  RunClient(port, mix, window_index * mix.size() / 8 % mix.size(), Clock::now(),
            sub_window_seconds, num_sub_windows, size_t{31}, placement,
            &client);
  PinCaller(-1);

  if (!job.empty()) {
    // The job may have finished inside the window; CANCEL of a terminal
    // job is refused, which is not a failure here.
    std::string reply;
    Call(*control, "CANCEL " + job, &reply);
    watcher.join();
  }
  const std::string metrics = request("METRICS");
  totals->cache_hits += NumberField(metrics, "service.lookup_cache_hits", 0);
  totals->cache_misses +=
      NumberField(metrics, "service.lookup_cache_misses", 0);
  for (const char* name : {"service.lookup_micros", "service.query_micros"}) {
    auto& [bounds, sum] = totals->server_histograms[name];
    bounds = JsonArray(metrics, name, "bounds");
    const std::vector<double> counts = JsonArray(metrics, name, "counts");
    sum.resize(std::max(sum.size(), counts.size()));
    for (size_t i = 0; i < counts.size(); ++i) sum[i] += counts[i];
  }
  daemon.Stop();
  if (!warmup) totals->job_shards.push_back(static_cast<double>(shard_events));

  for (size_t round = 0; !warmup && round < rounds; ++round) {
    std::vector<float> lookups, queries;
    for (size_t w = 1 + round * cpus; w < 1 + (round + 1) * cpus; ++w) {
      if (w >= client.sub_windows.size()) break;
      const SubWindowLatencies& sub = client.sub_windows[w];
      lookups.insert(lookups.end(), sub.lookup_us.begin(), sub.lookup_us.end());
      queries.insert(queries.end(), sub.query_us.begin(), sub.query_us.end());
    }
    totals->responses += lookups.size() + queries.size();
    totals->rps.push_back(double(lookups.size() + queries.size()) /
                          (double(cpus) * sub_window_seconds));
    totals->lookup_p50.push_back(Percentile(lookups, 0.50));
    totals->lookup_p90.push_back(Percentile(lookups, 0.90));
    totals->lookup_p99.push_back(Percentile(lookups, 0.99));
    totals->query_p50.push_back(Percentile(queries, 0.50));
    totals->query_p90.push_back(Percentile(queries, 0.90));
    totals->query_p99.push_back(Percentile(queries, 0.99));
    std::fprintf(stderr,
                 "repobench: window %zu round %zu %.0f/s lookup p50 %.1f "
                 "p90 %.1f p99 %.1f query p50 %.1f p90 %.1f p99 %.1f us\n",
                 window_index + 1, round + 1, totals->rps.back(),
                 totals->lookup_p50.back(), totals->lookup_p90.back(),
                 totals->lookup_p99.back(), totals->query_p50.back(),
                 totals->query_p90.back(), totals->query_p99.back());
  }
  run.acct.attempted += client.attempted;
  run.acct.failed += client.failed;
  if (client.samples.empty()) run.acct.Fail("the client got no replies");
  for (auto& sample : client.samples) {
    totals->samples.push_back(std::move(sample));
  }
  return rss.Mb();
}

// After the last window: opens the served snapshots directly, compares the
// sampled replies with them and, in a traced run, times the direct calls
// on the serve key and pattern mixes (the per-request cost of the read path
// and the query engine without the protocol).
void CheckServe(Run& run, const std::string& snapshot,
                const std::string& result, const std::vector<ServeRequest>& mix,
                const ServeTotals& totals, LayerValues* layers) {
  Session served;
  const auto t_load = Clock::now();
  run.acct.Op(served.LoadFromSnapshot(snapshot), "LoadFromSnapshot");
  const auto t_open = Clock::now();
  auto opened = paris::core::ResultReader::Open(result);
  (*layers)["storage.snapshot_load_s"] = Seconds(t_load, t_open);
  (*layers)["core.result_open_s"] = Seconds(t_open, Clock::now());
  if (!run.acct.Op(opened.status(), "ResultReader::Open") || !served.loaded()) {
    return;
  }
  const paris::core::ResultReader& reader = *opened;
  const size_t mismatches =
      VerifySamples(mix, totals.samples, reader, served);
  if (mismatches > 0) {
    run.acct.Fail(std::to_string(mismatches) +
                  " sampled replies differ from the library's answers");
  }
  if (!run.trace) return;

  size_t lookups = 0, queries = 0, found = 0;
  const auto t0 = Clock::now();
  for (const ServeRequest& r : mix) {
    const auto id = static_cast<paris::rdf::TermId>(r.id);
    switch (r.kind) {
      case ServeRequest::Kind::kEntity:
        found += r.left ? reader.LeftEntity(id).size()
                        : reader.RightEntity(id).size();
        break;
      case ServeRequest::Kind::kRelation:
        found +=
            reader.RelationSupers(static_cast<paris::rdf::RelId>(r.id), r.left)
                .size();
        break;
      case ServeRequest::Kind::kClass:
        found += reader.ClassSupers(id, r.left).size();
        break;
      case ServeRequest::Kind::kQuery:
        continue;
    }
    ++lookups;
  }
  const auto t1 = Clock::now();
  for (const ServeRequest& r : mix) {
    if (r.kind != ServeRequest::Kind::kQuery) continue;
    auto rows = served.Query(
        r.left ? Session::DeltaSide::kLeft : Session::DeltaSide::kRight,
        r.pattern, r.limit);
    if (rows.ok()) found += rows->size();
    ++queries;
  }
  const auto t2 = Clock::now();
  (*layers)["service.reader_lookup_ns"] =
      Seconds(t0, t1) * 1e9 / double(std::max<size_t>(1, lookups));
  (*layers)["service.query_scan_ns"] =
      Seconds(t1, t2) * 1e9 / double(std::max<size_t>(1, queries));
  if (found == 0) run.acct.Fail("the direct lookups found nothing");
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"align_s", "s"},
    {"total_s", "s"},
    {"update_s", "s"},
    {"peak_rss_mb", "MB"},
    {"instance_precision", "fraction"},
    {"instance_recall", "fraction"},
    {"snapshot_bytes_per_triple", "B"},
    {"lookup_p50_us", "us"},
    {"lookup_p90_us", "us"},
    {"query_p50_us", "us"},
    {"query_p90_us", "us"},
    {"serve_rps", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"rdf.parse_s", "s"},
    {"storage.index_build_s", "s"},
    {"storage.tri_build_s", "s"},
    {"storage.merge_delta_s", "s"},
    {"storage.snapshot_save_s", "s"},
    {"storage.snapshot_bytes", "B"},
    {"storage.snapshot_load_s", "s"},
    {"ontology.functionality_s", "s"},
    {"ontology.apply_delta_s", "s"},
    {"core.instance_prepare_s", "s"},
    {"core.instance_shards_s", "s"},
    {"core.instance_merge_s", "s"},
    {"core.relation_pass_s", "s"},
    {"core.class_pass_s", "s"},
    {"core.iterations", "count"},
    {"core.shard_imbalance", "ratio"},
    {"core.worker_busy_fraction", "fraction"},
    {"core.entities_scored", "count"},
    {"core.entities_reused", "count"},
    {"core.candidates_emitted", "count"},
    {"core.reuse_ratio", "fraction"},
    {"core.realign_s", "s"},
    {"core.export_s", "s"},
    {"core.result_open_s", "s"},
    {"service.reader_lookup_ns", "ns"},
    {"service.query_scan_ns", "ns"},
    {"service.cache_hit_ratio", "fraction"},
    {"service.client_lookup_p99_us", "us"},
    {"service.client_query_p99_us", "us"},
    {"service.server_lookup_p99_us", "us"},
    {"service.server_query_p99_us", "us"},
    {"service.job_shards_in_window", "count"},
    {"process.setup_rss_mb", "MB"},
    {"unattributed_fraction", "fraction"},
    {"trace_overhead_fraction", "fraction"},
};

void PrintResult(const Run& run, const std::map<std::string, double>& values,
                 const MetricDef* defs, size_t num_defs) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              run.acct.correct ? "true" : "false",
              static_cast<unsigned long long>(run.acct.attempted),
              static_cast<unsigned long long>(run.acct.failed));
  for (size_t i = 0; i < num_defs; ++i) {
    const auto it = values.find(defs[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", defs[i].name,
                it == values.end() ? 0.0 : it->second, defs[i].unit);
  }
  std::printf("}}\n");
}

void LoadGold(Run& run) {
  const std::string text = ReadFile(GoldPath(run.inputs));
  for (std::string_view line : DataLines(text)) {
    const size_t tab = line.find('\t');
    if (tab == std::string_view::npos) continue;
    run.gold.emplace(std::string(line.substr(0, tab)),
                     std::string(line.substr(tab + 1)));
  }
  if (run.gold.empty()) Die("empty gold file");
}

// The span check of a traced run: the share of the public calls' time in
// the traced cycles that no top-level session span covers, overall and per
// call. It passes at 3% or less. Its verdict goes to the context line and
// stderr, not into `correct`, which reports the program's outputs only.
struct SpanCheck {
  static constexpr double kLimit = 0.03;
  double unattributed = 0;
  std::map<std::string, double> by_call;

  explicit SpanCheck(const std::vector<CycleResult>& cycles) {
    std::map<std::string, std::pair<double, double>> pooled;
    double timed = 0, covered = 0;
    for (const CycleResult& c : cycles) {
      for (const auto& [name, time] : c.call_coverage) {
        pooled[name].first += time.first;
        pooled[name].second += time.second;
        timed += time.first;
        covered += time.second;
      }
    }
    unattributed = timed > 0 ? 1.0 - covered / timed : 0.0;
    for (const auto& [name, time] : pooled) {
      by_call[name] = time.first > 0 ? 1.0 - time.second / time.first : 0.0;
    }
  }
  bool passed() const { return unattributed <= kLimit; }
  std::string Json() const {
    char head[96];
    std::snprintf(head, sizeof(head),
                  "{\"passed\": %s, \"unattributed\": %.4f, \"by_call\": {",
                  passed() ? "true" : "false", unattributed);
    std::string out = head;
    for (const auto& [name, share] : by_call) {
      char item[64];
      std::snprintf(item, sizeof(item), "%s\"%s\": %.4f",
                    out.back() == '{' ? "" : ", ", name.c_str(), share);
      out += item;
    }
    return out + "}}";
  }
};

int Main(int argc, char** argv) {
  // The process before it loads anything: code, libraries, stacks.
  const double base_rss_mb = ReadRss().now_mb;
  Run run;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      run.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      run.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      run.trace = value == "1";
    } else if (flag == "--inputs") {
      run.inputs = value;
    } else if (flag == "--work") {
      run.work = value;
    } else if (flag == "--expected") {
      run.expected = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  run.spec = FindWorkload(workload);
  if (run.spec == nullptr || run.seconds <= 0 || run.inputs.empty() ||
      run.work.empty() || run.expected.empty()) {
    Die("usage: repobench_driver --workload NAME --seed N --seconds S "
        "--trace 0|1 --inputs DIR --work DIR --expected FILE");
  }
  if (!kOptimizedBuild || std::string(REPOBENCH_BUILD_TYPE) != "Release") {
    Die(std::string("refusing to measure a non-Release build (build type '") +
        REPOBENCH_BUILD_TYPE + "', optimised=" +
        (kOptimizedBuild ? "yes" : "no") + ")");
  }
  if (!std::filesystem::exists(InputsInfoPath(run.inputs))) {
    Die("no prepared inputs in " + run.inputs);
  }
  if (!std::filesystem::exists(run.expected)) {
    Die("no expected-values file " + run.expected);
  }
  paris::util::SetLogLevel(paris::util::LogLevel::kWarning);
  std::filesystem::remove_all(run.work);
  std::filesystem::create_directories(run.work);
  const WorkloadSpec& spec = *run.spec;

  const auto run_start = Clock::now();
  LoadGold(run);

  // Pipeline cycles, each followed by a serve window, so a slow spell of
  // the machine touches a few samples of every metric rather than all of
  // one. The first cycle and window are a warm-up. In a traced run, the
  // other even cycles run with the recorders off and odd ones with them on,
  // so the overhead is measured in one run.
  const size_t num_cycles = std::max<size_t>(
      run.trace ? 5 : 4,
      static_cast<size_t>(std::llround(spec.pipeline_share * run.seconds /
                                       spec.cycle_seconds)));
  const double window_seconds =
      std::max(2 * kSubWindowSeconds,
               (1.0 - spec.pipeline_share) * run.seconds / double(num_cycles) -
                   (spec.serve_primary ? 0.4 : 0.15));
  // The daemon serves the pipeline's own snapshots, or the prepared ones.
  const std::string snapshot = spec.serve_primary
                                   ? ServeSnapshotPath(run.inputs)
                                   : PipelineSnapshot(run);
  const std::string result = spec.serve_primary ? ServeResultPath(run.inputs)
                                                : PipelineResult(run);
  std::vector<CycleResult> cycles;
  ServeTotals serve;
  std::vector<ServeRequest> mix;
  while (cycles.size() < num_cycles && run.acct.failed == 0) {
    CycleResult c = RunCycle(run, run.trace && cycles.size() % 2 == 1);
    // Files the cycle wrote without fsync reach the disk now, not during
    // the serve window or the next cycle.
    sync();
    c.warmup = cycles.empty();
    std::fprintf(stderr,
                 "repobench: cycle %zu%s setup %.4f align %.4f update %.4f "
                 "total %.4f s, rss rise %.1f MB\n",
                 cycles.size() + 1, c.traced ? " (traced)" : "", c.setup,
                 c.align, c.update, c.total, c.rss_mb);
    if (run.acct.failed == 0 && mix.empty()) mix = BuildMix(run, snapshot);
    if (run.acct.failed == 0) {
      c.rss_mb = std::max(c.rss_mb, ServeWindow(run, snapshot, result, mix,
                                                window_seconds, cycles.size(),
                                                &serve));
      sync();
    }
    cycles.push_back(std::move(c));
  }

  LayerValues serve_layers;
  const char* expected_state = "not checked";
  if (run.acct.failed == 0) {
    expected_state = CheckRepeatable(run, cycles);
    CheckServe(run, snapshot, result, mix, serve, &serve_layers);
    if (spec.update_is_primary) {
      CheckAgainstColdAlign(run, cycles.back().aligned_after_update);
    }
  }
  const double wall = Seconds(run_start, Clock::now());
  const SpanCheck span_check(cycles);
  if (run.trace && !span_check.passed()) {
    std::fprintf(stderr, "repobench: span check failed: %s\n",
                 span_check.Json().c_str());
  }

  // ---- Metrics -----------------------------------------------------------
  std::map<std::string, double> values;
  const auto cycle_median = [&](double CycleResult::*field, bool traced) {
    std::vector<double> samples;
    for (const CycleResult& c : cycles) {
      if (c.traced == traced && !c.warmup) samples.push_back(c.*field);
    }
    return Median(samples);
  };
  // Memory is a high-water mark: the largest rise of any cycle, which in
  // practice is the first one, run by a fresh process.
  const auto cycle_max = [&](double CycleResult::*field) {
    double peak = 0;
    for (const CycleResult& c : cycles) peak = std::max(peak, c.*field);
    return peak;
  };
  if (!run.trace) {
    values["setup_s"] = spec.serve_primary
                            ? Median(serve.start_s)
                            : cycle_median(&CycleResult::setup, false);
    values["align_s"] = cycle_median(&CycleResult::align, false);
    values["total_s"] = cycle_median(&CycleResult::total, false);
    values["update_s"] = cycle_median(&CycleResult::update, false);
    values["peak_rss_mb"] = base_rss_mb + cycle_max(&CycleResult::rss_mb);
    values["instance_precision"] = cycles.front().precision;
    values["instance_recall"] = cycles.front().recall;
    values["snapshot_bytes_per_triple"] =
        cycle_median(&CycleResult::snapshot_bytes_per_triple, false);
    values["lookup_p50_us"] = Median(serve.lookup_p50);
    values["lookup_p90_us"] = Median(serve.lookup_p90);
    values["query_p50_us"] = Median(serve.query_p50);
    values["query_p90_us"] = Median(serve.query_p90);
    values["serve_rps"] = Median(serve.rps);
  } else {
    std::map<std::string, std::vector<double>> layer_samples;
    for (const CycleResult& c : cycles) {
      for (const auto& [name, value] : c.layers) {
        layer_samples[name].push_back(value);
      }
    }
    for (const auto& [name, samples] : layer_samples) {
      values[name] = Median(samples);
    }
    values["unattributed_fraction"] = span_check.unattributed;
    for (const auto& [name, value] : serve_layers) values[name] = value;
    const double lookups = serve.cache_hits + serve.cache_misses;
    values["service.cache_hit_ratio"] =
        lookups > 0 ? serve.cache_hits / lookups : 0.0;
    for (const auto& [metric, histogram] :
         {std::pair{"service.server_lookup_p99_us", "service.lookup_micros"},
          std::pair{"service.server_query_p99_us", "service.query_micros"}}) {
      const auto& [bounds, counts] = serve.server_histograms[histogram];
      values[metric] = HistogramP99(bounds, counts);
    }
    values["service.job_shards_in_window"] = Median(serve.job_shards);
    values["service.client_lookup_p99_us"] = Median(serve.lookup_p99);
    values["service.client_query_p99_us"] = Median(serve.query_p99);
    values["process.setup_rss_mb"] =
        base_rss_mb + cycle_max(&CycleResult::setup_rss_mb);
    const double untraced = cycle_median(&CycleResult::total, false);
    values["trace_overhead_fraction"] =
        untraced > 0 ? cycle_median(&CycleResult::total, true) / untraced - 1.0
                     : 0.0;
  }

  std::string inputs_info = ReadFile(InputsInfoPath(run.inputs));
  while (!inputs_info.empty() && inputs_info.back() == '\n') {
    inputs_info.pop_back();
  }
  // Context recorded with every result (one line before the result line).
  const CycleResult& first = cycles.front();
  std::printf("{\"context\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
              "\"cycles\": %zu, \"serve_responses\": %llu, "
              "\"wall_s\": %.3f, "
              "\"digest\": \"%016llx\", \"precision\": %.17g, "
              "\"recall\": %.17g, \"expected\": \"%s\", \"span_check\": %s, "
              "\"inputs\": %s}}\n",
              spec.name, static_cast<unsigned long long>(run.seed),
              REPOBENCH_BUILD_TYPE, __VERSION__,
              std::thread::hardware_concurrency(), cycles.size(),
              static_cast<unsigned long long>(serve.responses),
              wall,
              static_cast<unsigned long long>(first.digest), first.precision,
              first.recall, expected_state,
              run.trace ? span_check.Json().c_str() : "null",
              inputs_info.c_str());
  if (run.trace) {
    PrintResult(run, values, kPerLayer, std::size(kPerLayer));
  } else {
    PrintResult(run, values, kEndToEnd, std::size(kEndToEnd));
  }
  std::fflush(stdout);
  std::filesystem::remove_all(run.work);
  return 0;
}

}  // namespace
}  // namespace repobench

int main(int argc, char** argv) { return repobench::Main(argc, argv); }
