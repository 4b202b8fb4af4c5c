#include "traffic.h"

#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <thread>

#include "paris/service/protocol.h"

namespace repobench {
namespace {

using paris::api::Session;
using paris::ontology::Ontology;

// Share of QUERY requests in the mix, in percent; the entity LOOKUP share
// is 90 minus this. An assumption, as README.md explains, which also
// records how the serve metrics moved when it was set to 50.
constexpr int kQueryPercent = 20;

// Zipf(s) over ranks [0, n), with ranks mapped to keys through a seeded
// permutation so the hot keys are spread over the id space.
class ZipfKeys {
 public:
  ZipfKeys(const std::vector<paris::rdf::TermId>& keys, double s,
           std::mt19937_64& rng)
      : keys_(keys) {
    std::shuffle(keys_.begin(), keys_.end(), rng);
    cdf_.resize(keys_.size());
    double total = 0.0;
    for (size_t k = 0; k < keys_.size(); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  paris::rdf::TermId Draw(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const size_t k = std::min<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
        keys_.size() - 1);
    return keys_[k];
  }

 private:
  std::vector<paris::rdf::TermId> keys_;
  std::vector<double> cdf_;
};

// A term as a request token: its IRI when that is one token, else "#<id>".
std::string TermToken(const Ontology& onto, paris::rdf::TermId id) {
  std::string name = onto.TermName(id);
  if (name.empty() || name.find_first_of(" \t\r\n") != std::string::npos) {
    return "#" + std::to_string(id);
  }
  return name;
}

std::string RelationToken(const Ontology& onto, paris::rdf::RelId rel) {
  const std::string name = onto.RelationName(paris::rdf::BaseRel(rel));
  return paris::rdf::IsInverse(rel) ? "-" + name : name;
}

std::string FormatScore(double score) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", score);
  return buffer;
}

}  // namespace

std::vector<ServeRequest> BuildRequestMix(const Session& served,
                                          uint64_t seed, size_t count) {
  std::mt19937_64 rng(seed);
  const Ontology* sides[2] = {&served.left(), &served.right()};
  const ZipfKeys entities[2] = {
      ZipfKeys(served.left().instances(), 1.0, rng),
      ZipfKeys(served.right().instances(), 1.0, rng)};
  const char* side_names[2] = {"left", "right"};

  std::vector<ServeRequest> mix;
  mix.reserve(count);
  while (mix.size() < count) {
    const int roll = static_cast<int>(rng() % 100);
    ServeRequest request;
    const int side = static_cast<int>(rng() % 2);
    const Ontology& onto = *sides[side];
    request.left = side == 0;
    const std::string prefix = std::string(" ") + side_names[side] + " ";
    if (roll < 90 - kQueryPercent) {
      request.kind = ServeRequest::Kind::kEntity;
      request.id = entities[side].Draw(rng);
      request.payload =
          "LOOKUP entity" + prefix +
          TermToken(onto, static_cast<paris::rdf::TermId>(request.id));
    } else if (roll < 95 - kQueryPercent) {
      const size_t n = onto.num_relations();
      auto rel = static_cast<paris::rdf::RelId>(1 + rng() % n);
      if (rng() % 2 == 0) rel = paris::rdf::Inverse(rel);
      request.kind = ServeRequest::Kind::kRelation;
      request.id = rel;
      request.payload = "LOOKUP relation" + prefix + RelationToken(onto, rel);
    } else if (roll < 100 - kQueryPercent && !onto.classes().empty()) {
      const auto& classes = onto.classes();
      request.kind = ServeRequest::Kind::kClass;
      request.id = classes[rng() % classes.size()];
      request.payload =
          "LOOKUP class" + prefix +
          TermToken(onto, static_cast<paris::rdf::TermId>(request.id));
    } else {
      request.kind = ServeRequest::Kind::kQuery;
      request.limit = 100;
      const paris::rdf::TermId subject = entities[side].Draw(rng);
      const auto facts = onto.FactsAbout(subject);
      const int shape = facts.empty() ? 0 : static_cast<int>(rng() % 3);
      std::string s = "?", p = "?", o = "?";
      if (shape == 0 || shape == 2) {
        request.pattern.BindSubject(subject);
        s = TermToken(onto, subject);
      }
      if (shape != 0) {
        const paris::rdf::Fact& fact = facts[rng() % facts.size()];
        request.pattern.BindObject(fact.other);
        o = "#" + std::to_string(fact.other);
        if (shape == 1) {
          request.pattern.BindRel(fact.rel);
          p = RelationToken(onto, fact.rel);
        }
      }
      request.payload = "QUERY " + std::string(side_names[side]) + " " + s +
                        " " + p + " " + o + " " +
                        std::to_string(request.limit);
    }
    mix.push_back(std::move(request));
  }
  return mix;
}

namespace {

// The reply the daemon must send for a LOOKUP, rendered from direct
// ResultReader answers exactly as the protocol specifies.
std::string ExpectedLookupReply(const ServeRequest& request,
                                const paris::core::ResultReader& reader,
                                const Session& served) {
  const Ontology& other = request.left ? served.right() : served.left();
  std::string out;
  size_t n = 0;
  const auto add = [&](double score, const std::string& name) {
    out += "\n" + FormatScore(score) + "\t" + name;
    ++n;
  };
  const auto term = static_cast<paris::rdf::TermId>(request.id);
  switch (request.kind) {
    case ServeRequest::Kind::kEntity:
      if (request.left) {
        const auto candidates = reader.LeftEntity(term);
        for (size_t i = 0; i < candidates.size(); ++i) {
          add(candidates.probs[i], other.TermName(candidates.others[i]));
        }
      } else {
        for (const auto& match : reader.RightEntity(term)) {
          add(match.prob, other.TermName(match.other));
        }
      }
      break;
    case ServeRequest::Kind::kRelation:
      for (const auto& match : reader.RelationSupers(
               static_cast<paris::rdf::RelId>(request.id), request.left)) {
        add(match.score, other.RelationName(match.super));
      }
      break;
    case ServeRequest::Kind::kClass:
      for (const auto& match : reader.ClassSupers(term, request.left)) {
        add(match.score, other.TermName(match.super));
      }
      break;
    case ServeRequest::Kind::kQuery:
      break;
  }
  return "OK " + std::to_string(n) + out;
}

}  // namespace

bool Call(paris::util::SocketConn& conn, const std::string& request,
          std::string* reply) {
  if (!paris::service::WriteFrame(conn, request).ok()) return false;
  auto more = paris::service::ReadFrame(conn, reply);
  return more.ok() && *more;
}

std::vector<int> ThreadIds() {
  std::vector<int> ids;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* entry = ::readdir(dir)) {
      const int id = std::atoi(entry->d_name);
      if (id > 0) ids.push_back(id);
    }
    ::closedir(dir);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void PinCaller(int cpu) {
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = 0; c < cpus; ++c) {
    if (cpu < 0 || c == cpu) CPU_SET(c, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void Placement::Apply(size_t sub_window) const {
  const size_t cpus = std::thread::hardware_concurrency();
  if (cpus < 2) return;
  const size_t cpu = (first_cpu + sub_window) % cpus;
  cpu_set_t serving, others;
  CPU_ZERO(&serving);
  CPU_ZERO(&others);
  for (size_t c = 0; c < cpus; ++c) CPU_SET(c, c == cpu ? &serving : &others);
  const int self = static_cast<int>(::syscall(SYS_gettid));
  for (const int id : ThreadIds()) {
    const bool serves =
        id == self || std::binary_search(serving_threads.begin(),
                                         serving_threads.end(), id);
    // A thread that ended since the listing cannot be pinned; no matter.
    ::sched_setaffinity(id, sizeof(cpu_set_t), serves ? &serving : &others);
  }
}

void RunClient(int port, const std::vector<ServeRequest>& mix, size_t offset,
               std::chrono::steady_clock::time_point start,
               double sub_window_seconds, size_t num_sub_windows,
               size_t sample_every, const Placement& placement,
               ClientResult* result) {
  result->sub_windows.resize(num_sub_windows);
  auto conn = paris::util::SocketConn::Connect("127.0.0.1",
                                               static_cast<uint16_t>(port));
  if (!conn.ok()) {
    std::fprintf(stderr, "repobench: connect: %s\n",
                 conn.status().ToString().c_str());
    ++result->attempted;
    ++result->failed;
    return;
  }
  std::string reply;
  size_t placed = num_sub_windows;  // the sub-window last placed for
  for (size_t i = offset;; ++i) {
    auto sent = std::chrono::steady_clock::now();
    const auto sub_window = static_cast<size_t>(
        std::chrono::duration<double>(sent - start).count() /
        sub_window_seconds);
    if (sub_window >= num_sub_windows) break;
    if (sub_window != placed) {
      placement.Apply(sub_window);
      placed = sub_window;
      sent = std::chrono::steady_clock::now();
    }
    const size_t index = i % mix.size();
    const ServeRequest& request = mix[index];
    ++result->attempted;
    if (!Call(*conn, request.payload, &reply)) {
      std::fprintf(stderr, "repobench: transport failure on '%s'\n",
                   request.payload.c_str());
      ++result->failed;
      return;
    }
    const float micros = std::chrono::duration<float, std::micro>(
                             std::chrono::steady_clock::now() - sent)
                             .count();
    SubWindowLatencies& bucket = result->sub_windows[sub_window];
    (request.kind == ServeRequest::Kind::kQuery ? bucket.query_us
                                                : bucket.lookup_us)
        .push_back(micros);
    if (reply.rfind("OK", 0) != 0) {
      std::fprintf(stderr, "repobench: '%s' -> '%s'\n",
                   request.payload.c_str(), reply.c_str());
      ++result->failed;
    } else if (i % sample_every == 0) {
      result->samples.emplace_back(index, reply);
    }
  }
}

size_t VerifySamples(const std::vector<ServeRequest>& mix,
                     const std::vector<std::pair<size_t, std::string>>& samples,
                     const paris::core::ResultReader& reader,
                     const Session& served) {
  size_t mismatches = 0;
  for (const auto& [index, reply] : samples) {
    const ServeRequest& request = mix[index];
    std::string expected;
    if (request.kind == ServeRequest::Kind::kQuery) {
      auto rows = served.Query(request.left ? Session::DeltaSide::kLeft
                                            : Session::DeltaSide::kRight,
                               request.pattern, request.limit);
      if (rows.ok()) expected = "OK " + std::to_string(rows->size());
      const size_t line_end = reply.find('\n');
      if (rows.ok() && reply.substr(0, line_end) == expected) continue;
    } else {
      expected = ExpectedLookupReply(request, reader, served);
      if (reply == expected) continue;
    }
    ++mismatches;
    std::fprintf(stderr,
                 "repobench: '%s' replied '%.200s', expected '%.200s'\n",
                 request.payload.c_str(), reply.c_str(), expected.c_str());
  }
  return mismatches;
}

}  // namespace repobench
