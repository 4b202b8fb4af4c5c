// The benchmark's three workloads, shared by the input generator
// (prepare.cc) and the driver (driver.cc). Every workload runs the same
// lifecycle over its own seeded inputs:
//
//   pipeline cycles:  setup -> Align -> Export -> deltas (ApplyDelta +
//                     Realign each) -> SaveSnapshot
//   serve windows:    Daemon::Start -> closed-loop LOOKUP/QUERY traffic
//                     (optionally beside a running alignment job) -> Stop
//
// The specs differ in input, in how the time splits between the two halves,
// and in which step each end-to-end metric is read from. README.md explains
// why each workload was chosen.

#ifndef REPOBENCH_WORKLOADS_H_
#define REPOBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace repobench {

struct WorkloadSpec {
  const char* name;
  // Input (prepare.cc): synth profile, scale, and the held-back left delta —
  // every `delta_stride`-th fact of each relation, dealt round-robin into
  // `delta_files` files.
  const char* profile;
  double scale;
  size_t delta_stride;
  size_t delta_files;
  // When > 0, every Align and Realign runs exactly this many fixpoint
  // iterations (convergence threshold 0), so seeds differ in data, not in
  // how many iterations their run happens to take. 0 = run to convergence.
  int iterations;
  // total_s ends after SaveSnapshot instead of after Export, and the
  // incrementally updated result is checked against a cold Align over the
  // base plus every delta.
  bool update_is_primary;
  // Share of --seconds given to pipeline cycles; the rest serves, in one
  // window after each cycle. The cycle count is fixed from it and the
  // nominal `cycle_seconds` (at least 4, or 5 when traced), so every run of
  // a workload does the same work.
  double pipeline_share;
  double cycle_seconds;
  // The serve workload: prepare.cc writes an ontology snapshot and a result
  // snapshot of the pair, the pipeline loads that ontology snapshot instead
  // of parsing N-Triples, the daemon serves the two prepared snapshots with
  // an alignment job (1 thread) running through every serve window, and
  // setup_s times Daemon::Start instead of the pipeline load.
  bool serve_primary;
};

// Worker threads of every pipeline Session.
inline constexpr size_t kThreads = 4;

inline constexpr WorkloadSpec kWorkloads[] = {
    {.name = "batch_yago_dbpedia",
     .profile = "yago-dbpedia",
     .scale = 1.0,
     .delta_stride = 64,
     .delta_files = 1,
     .iterations = 4,
     .update_is_primary = false,
     .pipeline_share = 0.6,
     .cycle_seconds = 2.8,
     .serve_primary = false},
    {.name = "update_person",
     .profile = "person",
     .scale = 64.0,
     .delta_stride = 8,
     .delta_files = 20,
     .iterations = 0,
     .update_is_primary = true,
     .pipeline_share = 0.7,
     .cycle_seconds = 4.5,
     .serve_primary = false},
    {.name = "serve_yago_dbpedia",
     .profile = "yago-dbpedia",
     .scale = 1.0,
     .delta_stride = 64,
     .delta_files = 1,
     .iterations = 4,
     .update_is_primary = false,
     .pipeline_share = 0.45,
     .cycle_seconds = 2.6,
     .serve_primary = true},
};

inline const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// Prints to stderr and exits 1: the benchmark never reports numbers from a
// run whose set-up failed.
[[noreturn]] inline void Die(const std::string& message) {
  std::fprintf(stderr, "repobench: %s\n", message.c_str());
  std::exit(1);
}

// File names inside one prepared input directory.
inline std::string LeftPath(const std::string& dir) { return dir + "/left.nt"; }
inline std::string RightPath(const std::string& dir) {
  return dir + "/right.nt";
}
inline std::string FullLeftPath(const std::string& dir) {
  return dir + "/left_full.nt";
}
inline std::string GoldPath(const std::string& dir) {
  return dir + "/gold.tsv";
}
inline std::string DeltaPath(const std::string& dir, size_t i) {
  char name[32];
  std::snprintf(name, sizeof(name), "/delta_%02zu.nt", i);
  return dir + name;
}
inline std::string ServeSnapshotPath(const std::string& dir) {
  return dir + "/serve.snap";
}
inline std::string ServeResultPath(const std::string& dir) {
  return dir + "/serve.result";
}
inline std::string InputsInfoPath(const std::string& dir) {
  return dir + "/inputs.json";
}

}  // namespace repobench

#endif  // REPOBENCH_WORKLOADS_H_
