// Seeded input generation for one workload, run before (and outside) the
// timed driver process so the generator's memory never shows in its peak
// RSS. Writes into OUT_DIR:
//
//   left.nt, right.nt      the pair, with the left delta held back
//   left_full.nt           the left side including every delta fact
//   delta_NN.nt            the held-back left facts, split round-robin
//   gold.tsv               gold instance pairs (left name <TAB> right name)
//   serve.snap/.result     ontology + result snapshots of left.nt/right.nt
//                          (the serve workload only)
//   inputs.json            sizes and parameters; written last, so its
//                          presence marks a complete directory
//
//   repobench_prepare --workload NAME --seed N --out OUT_DIR

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "paris/api/session.h"
#include "paris/ontology/export.h"
#include "paris/ontology/vocab.h"
#include "paris/synth/profiles.h"
#include "paris/util/logging.h"
#include "paris/util/thread_pool.h"
#include "workloads.h"

namespace repobench {
namespace {

using paris::util::Status;

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// The predicate of an N-Triples statement line: the second <...> token.
std::string_view Predicate(std::string_view line) {
  if (line.empty() || line.front() != '<') return {};
  const size_t begin = line.find("> <");
  if (begin == std::string_view::npos) return {};
  const size_t end = line.find('>', begin + 3);
  if (end == std::string_view::npos) return {};
  return line.substr(begin + 3, end - begin - 3);
}

struct SplitCounts {
  size_t base_lines = 0;
  size_t delta_lines = 0;
};

// Every `stride`-th regular fact of each relation goes to a delta (dealt
// round-robin over `outputs`); the first fact of every relation and all
// schema statements stay in the base, so each delta only adds facts about
// relations the base ontology already knows (Ontology::ApplyDelta's
// contract).
SplitCounts SplitLeft(const std::string& text, size_t stride,
                      std::ofstream& base,
                      std::vector<std::ofstream>& deltas) {
  SplitCounts counts;
  std::unordered_map<std::string, size_t> seen;
  size_t next_delta = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    const std::string_view pred = Predicate(line);
    bool to_delta = false;
    if (!pred.empty() && !paris::ontology::IsTypePredicate(pred) &&
        !paris::ontology::IsSubClassOfPredicate(pred)) {
      size_t& n = seen[std::string(pred)];
      to_delta = n % stride == stride - 1;
      ++n;
    }
    if (to_delta) {
      deltas[next_delta] << line << '\n';
      next_delta = (next_delta + 1) % deltas.size();
      ++counts.delta_lines;
    } else {
      base << line << '\n';
      if (line.front() != '#') ++counts.base_lines;
    }
  }
  return counts;
}

size_t CountStatements(const std::string& text) {
  size_t n = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    if (end > pos && text[pos] != '#') ++n;
    pos = end + 1;
  }
  return n;
}

int Main(int argc, char** argv) {
  std::string workload, out;
  long long seed = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::atoll(argv[i + 1]);
    } else if (flag == "--out") {
      out = argv[i + 1];
    } else {
      Die("unknown flag " + flag);
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || out.empty() || seed < 0) {
    Die("usage: repobench_prepare --workload NAME --seed N --out DIR");
  }
  paris::util::SetLogLevel(paris::util::LogLevel::kWarning);

  paris::util::ThreadPool workers(4);
  paris::synth::ProfileOptions options;
  options.scale = spec->scale;
  options.seed = static_cast<uint64_t>(seed);
  options.pool = &workers;
  const std::string profile = spec->profile;
  auto pair = profile == "person" ? paris::synth::MakeOaeiPersonPair(options)
                                  : paris::synth::MakeYagoDbpediaPair(options);
  Check(pair.status(), "generate " + profile);

  std::ostringstream left_text;
  paris::ontology::ExportToNTriples(*pair->left, left_text);
  const std::string text = left_text.str();
  {
    std::ofstream full(FullLeftPath(out));
    full << text;
    if (!full) Die("cannot write " + FullLeftPath(out));
  }
  std::ofstream base(LeftPath(out));
  std::vector<std::ofstream> deltas;
  for (size_t i = 0; i < spec->delta_files; ++i) {
    deltas.emplace_back(DeltaPath(out, i));
  }
  const SplitCounts counts =
      SplitLeft(text, spec->delta_stride, base, deltas);
  base.close();
  for (auto& delta : deltas) delta.close();
  if (!base) Die("cannot write " + LeftPath(out));

  std::ostringstream right_text;
  paris::ontology::ExportToNTriples(*pair->right, right_text);
  {
    std::ofstream right(RightPath(out));
    right << right_text.str();
    if (!right) Die("cannot write " + RightPath(out));
  }

  std::map<std::string, std::string> gold;  // sorted by left name
  for (const auto& [l, r] : pair->gold.left_to_right()) {
    gold.emplace(pair->left->TermName(l), pair->right->TermName(r));
  }
  {
    std::ofstream gold_file(GoldPath(out));
    for (const auto& [l, r] : gold) gold_file << l << '\t' << r << '\n';
    if (!gold_file) Die("cannot write " + GoldPath(out));
  }

  if (spec->serve_primary) {
    paris::api::Session session(
        paris::api::Session::Options().set_threads(4));
    Check(session.LoadFromFiles(LeftPath(out), RightPath(out)), "load");
    Check(session.SaveSnapshot(ServeSnapshotPath(out)), "save snapshot");
    Check(session.Align(), "align");
    Check(session.SaveResult(ServeResultPath(out)), "save result");
  }

  std::ofstream info(InputsInfoPath(out));
  info << "{\"workload\": \"" << spec->name << "\", \"profile\": \""
       << spec->profile << "\", \"scale\": " << spec->scale
       << ", \"seed\": " << seed
       << ", \"left_statements\": " << counts.base_lines
       << ", \"right_statements\": " << CountStatements(right_text.str())
       << ", \"delta_files\": " << spec->delta_files
       << ", \"delta_statements\": " << counts.delta_lines
       << ", \"gold_pairs\": " << gold.size() << "}\n";
  info.close();
  if (!info) Die("cannot write " + InputsInfoPath(out));
  return 0;
}

}  // namespace
}  // namespace repobench

int main(int argc, char** argv) { return repobench::Main(argc, argv); }
