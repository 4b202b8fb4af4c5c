// The serve half of the lifecycle: the LOOKUP/QUERY request mix, the
// closed-loop clients that send it to an in-process parisd, and the checks
// that compare sampled replies with direct library answers.

#ifndef REPOBENCH_TRAFFIC_H_
#define REPOBENCH_TRAFFIC_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "paris/api/session.h"
#include "paris/core/result_reader.h"
#include "paris/util/net.h"

namespace repobench {

struct ServeRequest {
  enum class Kind : uint8_t { kEntity, kRelation, kClass, kQuery };
  Kind kind = Kind::kEntity;
  bool left = true;
  int64_t id = 0;  // term id (entity, class) or signed relation id
  paris::storage::TriplePattern pattern;  // kQuery only
  size_t limit = 0;                       // kQuery only
  std::string payload;                    // the wire request
};

// `count` requests drawn with `seed`, on both sides: 20% QUERY patterns
// with the subject, the relation and object, or the subject and object
// bound (limit 100, Zipf(1) over the subject entity), 5% relation LOOKUPs,
// 5% class LOOKUPs, and 70% entity LOOKUPs with Zipf(1) keys over every
// instance of the side. The shares are assumptions; README.md gives the
// reasoning. Names come from `served`, a session loaded from the served
// snapshot.
std::vector<ServeRequest> BuildRequestMix(const paris::api::Session& served,
                                          uint64_t seed, size_t count);

// One synchronous request/reply exchange. False on a transport failure.
bool Call(paris::util::SocketConn& conn, const std::string& request,
          std::string* reply);

// Latencies of the requests one client started inside one sub-window.
struct SubWindowLatencies {
  std::vector<float> lookup_us;
  std::vector<float> query_us;
};

struct ClientResult {
  std::vector<SubWindowLatencies> sub_windows;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // transport failures and non-OK replies
  // (request index, reply) of every `sample_every`-th request, for the
  // end-of-run comparison with direct library answers.
  std::vector<std::pair<size_t, std::string>> samples;
};

// The kernel ids of the calling process's threads, ascending.
std::vector<int> ThreadIds();

// Restricts the calling thread, and the threads it creates from now on, to
// `cpu`; with `cpu` < 0, to every CPU.
void PinCaller(int cpu);

// Where a serve window runs. The client (the calling thread) and the
// daemon's serving threads share one CPU, so a request and its reply never
// wait for an idle CPU to wake up: on a virtual machine that wait is the
// host's to schedule, and under load on the host it reached milliseconds.
// Every other thread of the process (the job queue's worker, the alignment
// job's pool, the benchmark's watcher) runs on the other CPUs. The shared
// CPU moves on at each sub-window, so every CPU serves its share of a run
// and one CPU slowed by its neighbours on the host moves few samples.
struct Placement {
  std::vector<int> serving_threads;  // kernel thread ids, ascending
  size_t first_cpu = 0;

  // Pins every thread of the process for sub-window `sub_window`.
  void Apply(size_t sub_window) const;
};

// Closed loop over one connection, on the calling thread: sends `mix` from
// `offset` (wrapping) and the next request only after the previous reply,
// for `num_sub_windows` consecutive sub-windows of `sub_window_seconds` from
// `start`, placing the threads for each sub-window as it begins.
void RunClient(int port, const std::vector<ServeRequest>& mix, size_t offset,
               std::chrono::steady_clock::time_point start,
               double sub_window_seconds, size_t num_sub_windows,
               size_t sample_every, const Placement& placement,
               ClientResult* result);

// Compares sampled replies with the library: LOOKUP replies byte for byte
// with the reply rendered from direct ResultReader answers, QUERY row
// counts with Session::Query. Returns the number of mismatches (printed to
// stderr).
size_t VerifySamples(const std::vector<ServeRequest>& mix,
                     const std::vector<std::pair<size_t, std::string>>& samples,
                     const paris::core::ResultReader& reader,
                     const paris::api::Session& served);

}  // namespace repobench

#endif  // REPOBENCH_TRAFFIC_H_
