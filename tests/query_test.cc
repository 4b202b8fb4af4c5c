// Tests for the triple-pattern engine over the packed CSR
// (rdf::TripleStore::Scan and friends), snapshot compatibility (v4 round
// trip, a committed v3 fixture, v2 rebuild), the Session::Query facade, and
// the aligner's byte-identity guarantee over the fast access paths
// (per-term relation directory, packed type index).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "paris/api/session.h"
#include "paris/core/aligner.h"
#include "paris/ontology/ontology.h"
#include "paris/ontology/snapshot.h"
#include "paris/rdf/ntriples.h"
#include "paris/rdf/store.h"
#include "paris/rdf/term.h"
#include "paris/rdf/triple.h"
#include "paris/storage/snapshot.h"
#include "paris/storage/triple_pattern.h"
#include "paris/util/status.h"

namespace paris {
namespace {

using rdf::RelId;
using rdf::TermId;
using rdf::Triple;
using storage::TriplePattern;
using storage::TriPos;

using Slot = TriplePattern::Slot;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Canonical comparable form of an emitted match.
using Key = std::tuple<TermId, RelId, TermId>;

Key KeyOf(const Triple& t) { return {t.subject, t.rel, t.object}; }

std::set<Key> KeySet(const std::vector<Triple>& triples) {
  std::set<Key> keys;
  for (const Triple& t : triples) keys.insert(KeyOf(t));
  return keys;
}

// Every actual statement of a store, as positive-relation triples, by
// walking the per-term adjacency directly (independent of the engine).
std::vector<Triple> AllTriples(const rdf::TripleStore& store) {
  std::vector<Triple> out;
  for (TermId t : store.terms()) {
    for (const rdf::Fact& f : store.FactsAbout(t)) {
      if (f.rel > 0) out.push_back(Triple{t, f.rel, f.other});
    }
  }
  return out;
}

// Reference semantics for a (positive-relation) pattern: filter by the
// bound positions, null out ignored positions, deduplicate.
std::set<Key> BruteForce(const std::vector<Triple>& all,
                         const TriplePattern& p) {
  std::set<Key> expect;
  for (const Triple& t : all) {
    if (p.bound(TriPos::kSubject) && t.subject != p.values[0]) continue;
    if (p.bound(TriPos::kRel) && t.rel != p.rel()) continue;
    if (p.bound(TriPos::kObject) && t.object != p.values[2]) continue;
    Triple emitted = t;
    if (p.slot(TriPos::kSubject) == Slot::kIgnored) {
      emitted.subject = rdf::kNullTerm;
    }
    if (p.slot(TriPos::kRel) == Slot::kIgnored) emitted.rel = rdf::kNullRel;
    if (p.slot(TriPos::kObject) == Slot::kIgnored) {
      emitted.object = rdf::kNullTerm;
    }
    expect.insert(KeyOf(emitted));
  }
  return expect;
}

// Applies one slot state to one pattern position, binding from `bind`.
void ApplySlot(TriplePattern* p, TriPos pos, Slot state, const Triple& bind) {
  switch (pos) {
    case TriPos::kSubject:
      if (state == Slot::kBound) p->BindSubject(bind.subject);
      if (state == Slot::kIgnored) p->IgnoreSubject();
      break;
    case TriPos::kRel:
      if (state == Slot::kBound) p->BindRel(bind.rel);
      if (state == Slot::kIgnored) p->IgnoreRel();
      break;
    case TriPos::kObject:
      if (state == Slot::kBound) p->BindObject(bind.object);
      if (state == Slot::kIgnored) p->IgnoreObject();
      break;
  }
}

// Seed bindings for the 27-combination oracle: every real triple (so each
// bound value sits at every position of its packed runs), one absent
// object, relation id 0, and an out-of-range relation id (the last two
// must match nothing).
std::vector<Triple> OracleSeeds(const rdf::TripleStore& store,
                                const std::vector<Triple>& all,
                                const rdf::TermPool& pool) {
  std::vector<Triple> seeds = all;
  seeds.push_back(Triple{all.front().subject, all.back().rel,
                         static_cast<TermId>(pool.size() + 5)});
  seeds.push_back(Triple{all.front().subject, rdf::kNullRel,
                         all.front().object});
  seeds.push_back(
      Triple{all.front().subject,
             static_cast<RelId>(store.num_relations() + 1),
             all.front().object});
  return seeds;
}

// Calls fn(pattern, label) for all 27 variable/bound/ignored combinations
// of every seed.
template <typename Fn>
void ForEachOraclePattern(const std::vector<Triple>& seeds, Fn&& fn) {
  const Slot kStates[] = {Slot::kVariable, Slot::kBound, Slot::kIgnored};
  for (const Triple& seed : seeds) {
    for (Slot s_state : kStates) {
      for (Slot p_state : kStates) {
        for (Slot o_state : kStates) {
          TriplePattern p;
          ApplySlot(&p, TriPos::kSubject, s_state, seed);
          ApplySlot(&p, TriPos::kRel, p_state, seed);
          ApplySlot(&p, TriPos::kObject, o_state, seed);
          const std::string label =
              "slots=" + std::to_string(static_cast<int>(s_state)) +
              std::to_string(static_cast<int>(p_state)) +
              std::to_string(static_cast<int>(o_state)) + " seed=(" +
              std::to_string(seed.subject) + "," + std::to_string(seed.rel) +
              "," + std::to_string(seed.object) + ")";
          fn(p, label);
        }
      }
    }
  }
}

// The documented row order of an ignore-free pattern's matches: with the
// subject bound (after inverse normalization) (rel, object); else with the
// object bound (rel, subject); else (rel, subject, object).
bool RowBefore(const TriplePattern& p, const Triple& a, const Triple& b) {
  const bool inverse = p.bound(TriPos::kRel) && p.rel() < 0;
  const bool s_bound = p.bound(inverse ? TriPos::kObject : TriPos::kSubject);
  const bool o_bound = p.bound(inverse ? TriPos::kSubject : TriPos::kObject);
  if (s_bound) return std::tie(a.rel, a.object) < std::tie(b.rel, b.object);
  if (o_bound) return std::tie(a.rel, a.subject) < std::tie(b.rel, b.subject);
  return std::tie(a.rel, a.subject, a.object) <
         std::tie(b.rel, b.subject, b.object);
}

// The brute-force oracle over every combination: each match emitted once,
// the set equal to the reference semantics, Count equal to the scan, and
// ignore-free patterns in their documented order.
void ExpectOracleHolds(const rdf::TripleStore& store,
                       const std::vector<Triple>& seeds) {
  const std::vector<Triple> all = AllTriples(store);
  ForEachOraclePattern(seeds, [&](const TriplePattern& p,
                                  const std::string& label) {
    const std::vector<Triple> got = store.Collect(p);
    const std::set<Key> expect = BruteForce(all, p);
    EXPECT_EQ(KeySet(got), expect) << label;
    // Matches are emitted exactly once each.
    EXPECT_EQ(got.size(), expect.size()) << label;
    // Count agrees with the scan for every shape.
    EXPECT_EQ(store.Count(p), expect.size()) << label;
    if (std::find(std::begin(p.slots), std::end(p.slots), Slot::kIgnored) ==
        std::end(p.slots)) {
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end(),
                                 [&p](const Triple& a, const Triple& b) {
                                   return RowBefore(p, a, b);
                                 }))
          << label;
    }
  });
}

// ---------------------------------------------------------------------------
// Pattern engine vs brute force
// ---------------------------------------------------------------------------

class PatternQueryTest : public ::testing::Test {
 protected:
  // One ontology with enough shape diversity to make every mask
  // interesting: shared objects across relations, repeated (s, o) pairs
  // under different relations, high- and low-degree subjects.
  void Build() {
    ontology::OntologyBuilder b(&pool_, "left");
    for (int i = 0; i < 12; ++i) {
      const std::string e = "l:e" + std::to_string(i);
      b.AddType(e, i % 2 ? "l:Person" : "l:Artist");
      b.AddLiteralFact(e, "l:name", "Name " + std::to_string(i));
      b.AddLiteralFact(e, "l:city", "City " + std::to_string(i % 3));
      b.AddFact(e, "l:knows", "l:e" + std::to_string((i + 1) % 12));
      b.AddFact(e, "l:knows", "l:e" + std::to_string((i + 5) % 12));
      b.AddFact(e, "l:worksAt", "l:e" + std::to_string((i + 1) % 12));
    }
    auto built = b.Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    onto_.emplace(std::move(built).value());
    all_ = AllTriples(onto_->store());
    ASSERT_GT(all_.size(), 40u);
  }

  const rdf::TripleStore& store() const { return onto_->store(); }

  rdf::TermPool pool_;
  std::optional<ontology::Ontology> onto_;
  std::vector<Triple> all_;
};

TEST_F(PatternQueryTest, AllSlotCombinationsMatchBruteForce) {
  Build();
  // All 27 variable/bound/ignored combinations, with bound values drawn
  // from every real triple plus an absent object, relation 0 and an
  // out-of-range relation. Covers the 8 bound
  // masks, every ignored-dedup shape — including the non-adjacent ones
  // like (bound s, ignored p, variable o) — and empty results.
  ExpectOracleHolds(store(), OracleSeeds(store(), all_, pool_));
}

TEST_F(PatternQueryTest, InversePatternNormalizesToForwardScan) {
  Build();
  const Triple seed = all_[all_.size() / 2];
  // -r with subject/object swapped is the same statement set.
  const auto forward = store().Collect(
      TriplePattern().BindSubject(seed.subject).BindRel(seed.rel));
  const auto inverse = store().Collect(
      TriplePattern().BindRel(rdf::Inverse(seed.rel)).BindObject(seed.subject));
  EXPECT_EQ(KeySet(forward), KeySet(inverse));
  ASSERT_FALSE(forward.empty());
  // Emitted triples are actual positive-relation statements either way.
  for (const Triple& t : inverse) {
    EXPECT_GT(t.rel, 0);
    EXPECT_TRUE(onto_->store().Contains(t.subject, t.rel, t.object));
  }
  // Fully-bound inverse probe.
  EXPECT_EQ(store().Count(TriplePattern()
                            .BindSubject(seed.object)
                            .BindRel(rdf::Inverse(seed.rel))
                            .BindObject(seed.subject)),
            1u);
}

TEST_F(PatternQueryTest, LimitTruncatesDeterministically) {
  Build();
  const TriplePattern all;
  const std::vector<Triple> full = store().Collect(all);
  ASSERT_EQ(full.size(), all_.size());
  for (size_t limit : {size_t{1}, size_t{7}, full.size(), full.size() + 10}) {
    const std::vector<Triple> part = store().Collect(all, limit);
    ASSERT_EQ(part.size(), std::min(limit, full.size()));
    for (size_t i = 0; i < part.size(); ++i) EXPECT_EQ(part[i], full[i]);
  }
}

TEST_F(PatternQueryTest, DistinctBindingsMatchesBruteForce) {
  Build();
  // Relation inventory of the whole store.
  std::set<uint32_t> rels;
  for (const Triple& t : all_) rels.insert(static_cast<uint32_t>(t.rel));
  const auto got_rels = store().DistinctBindings(TriplePattern(), TriPos::kRel);
  EXPECT_TRUE(std::is_sorted(got_rels.begin(), got_rels.end()));
  EXPECT_EQ(std::set<uint32_t>(got_rels.begin(), got_rels.end()), rels);

  // Distinct objects of one relation.
  const RelId rel = all_.front().rel;
  std::set<uint32_t> objects;
  for (const Triple& t : all_) {
    if (t.rel == rel) objects.insert(t.object);
  }
  const auto got_objects =
      store().DistinctBindings(TriplePattern().BindRel(rel), TriPos::kObject);
  EXPECT_EQ(std::set<uint32_t>(got_objects.begin(), got_objects.end()),
            objects);
  // Limit keeps the sorted prefix.
  const auto capped = store().DistinctBindings(TriplePattern().BindRel(rel),
                                             TriPos::kObject, 2);
  ASSERT_LE(capped.size(), 2u);
  EXPECT_TRUE(std::equal(capped.begin(), capped.end(), got_objects.begin()));
}

TEST_F(PatternQueryTest, MergeJoinMatchesSetIntersection) {
  Build();
  // Self-join: entities that appear as a `knows` object AND a `worksAt`
  // object.
  const auto name_id = pool_.Find("l:knows", rdf::TermKind::kIri);
  ASSERT_TRUE(name_id.has_value());
  const RelId knows = onto_->store().FindRelation(*name_id).value();
  const auto works_id = pool_.Find("l:worksAt", rdf::TermKind::kIri);
  ASSERT_TRUE(works_id.has_value());
  const RelId works = onto_->store().FindRelation(*works_id).value();

  auto distinct = [&](RelId r) {
    const auto v =
        store().DistinctBindings(TriplePattern().BindRel(r), TriPos::kObject);
    return std::set<uint32_t>(v.begin(), v.end());
  };
  std::set<uint32_t> expect;
  std::ranges::set_intersection(distinct(knows), distinct(works),
                                std::inserter(expect, expect.begin()));

  const std::vector<uint32_t> got = rdf::MergeJoin(
      store(), TriplePattern().BindRel(knows), TriPos::kObject, store(),
      TriplePattern().BindRel(works), TriPos::kObject);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_EQ(std::set<uint32_t>(got.begin(), got.end()), expect);
  ASSERT_FALSE(got.empty());

  // Limit returns the sorted prefix.
  const std::vector<uint32_t> capped = rdf::MergeJoin(
      store(), TriplePattern().BindRel(knows), TriPos::kObject, store(),
      TriplePattern().BindRel(works), TriPos::kObject, 1);
  ASSERT_EQ(capped.size(), 1u);
  EXPECT_EQ(capped[0], got[0]);
}

// ---------------------------------------------------------------------------
// Delta maintenance
// ---------------------------------------------------------------------------

TEST_F(PatternQueryTest, MergeDeltaAnswersOracle) {
  Build();
  std::vector<rdf::ParsedTriple> delta;
  auto fact = [](const std::string& s, const std::string& p,
                 const std::string& o, bool literal = false) {
    rdf::ParsedTriple t;
    t.subject = s;
    t.predicate = p;
    t.object = o;
    t.object_is_literal = literal;
    return t;
  };
  delta.push_back(fact("l:e0", "l:knows", "l:e9"));
  delta.push_back(fact("l:e99", "l:knows", "l:e0"));  // new instance
  delta.push_back(fact("l:e99", "l:name", "Name 99", /*literal=*/true));
  delta.push_back(fact("l:e0", "l:knows", "l:e1"));  // duplicate: dropped
  auto summary = onto_->ApplyDelta(delta);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->num_new_statements, 3u);

  // Queries see the new statements, on every shape.
  all_ = AllTriples(onto_->store());
  const TriplePattern p = TriplePattern().BindSubject(
      *pool_.Find("l:e99", rdf::TermKind::kIri));
  EXPECT_EQ(KeySet(onto_->store().Collect(p)), BruteForce(all_, p));
  ExpectOracleHolds(store(), OracleSeeds(store(), all_, pool_));
}

// ---------------------------------------------------------------------------
// Persistence: v4 round trip, v3 fixture, v2 compatibility, corruption
// ---------------------------------------------------------------------------

class QuerySnapshotTest : public PatternQueryTest {
 protected:
  // Second ontology so the pair snapshot has distinct sides.
  // tests/data/query_pair_v3.snap holds exactly this pair, written by the
  // v3 writer; changing the pair means regenerating that fixture.
  void BuildPair() {
    Build();
    ontology::OntologyBuilder rb(&pool_, "right");
    for (int i = 0; i < 8; ++i) {
      const std::string e = "r:f" + std::to_string(i);
      rb.AddType(e, "r:Entity");
      rb.AddLiteralFact(e, "r:label", "Name " + std::to_string(i));
      rb.AddFact(e, "r:contact", "r:f" + std::to_string((i + 3) % 8));
    }
    auto built = rb.Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    right_.emplace(std::move(built).value());
  }

  void ExpectQueriesEqual(const ontology::Ontology& got,
                          const ontology::Ontology& want) {
    const std::vector<Triple> all = AllTriples(want.store());
    ASSERT_EQ(got.num_triples(), want.num_triples());
    const TriplePattern probes[] = {
        TriplePattern(),
        TriplePattern().BindRel(all.front().rel),
        TriplePattern().BindSubject(all.back().subject),
        TriplePattern().BindObject(all.front().object).IgnoreRel(),
    };
    for (const TriplePattern& p : probes) {
      EXPECT_EQ(KeySet(got.store().Collect(p)), BruteForce(all, p));
    }
  }

  // The 27-combination oracle on a loaded side answers exactly like the
  // freshly built one: same rows in the same order, same counts.
  void ExpectOracleEqual(const ontology::Ontology& got,
                         const ontology::Ontology& want) {
    const std::vector<Triple> all = AllTriples(want.store());
    ASSERT_EQ(AllTriples(got.store()), all);
    ForEachOraclePattern(
        OracleSeeds(want.store(), all, pool_),
        [&](const TriplePattern& p, const std::string& label) {
          EXPECT_EQ(got.store().Collect(p), want.store().Collect(p)) << label;
          EXPECT_EQ(got.store().Count(p), want.store().Count(p)) << label;
        });
  }

  static uintmax_t FileSize(const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return static_cast<uintmax_t>(in.tellg());
  }

  std::optional<ontology::Ontology> right_;
};

TEST_F(QuerySnapshotTest, V4RoundTripsStreamAndMmap) {
  BuildPair();
  const std::string path = TempPath("query_v4.snap");
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(path, *onto_, *right_).ok());

  rdf::TermPool stream_pool;
  auto streamed = ontology::LoadAlignmentSnapshot(
      path, &stream_pool, ontology::SnapshotLoadMode::kStream);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_FALSE(streamed->left.store().index().zero_copy());
  ExpectQueriesEqual(streamed->left, *onto_);
  ExpectQueriesEqual(streamed->right, *right_);
  ExpectOracleEqual(streamed->left, *onto_);

  rdf::TermPool mmap_pool;
  auto mapped = ontology::LoadAlignmentSnapshot(
      path, &mmap_pool, ontology::SnapshotLoadMode::kMmap);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // The CSR columns and relation directory alias the mapping.
  EXPECT_TRUE(mapped->left.store().index().zero_copy());
  EXPECT_TRUE(mapped->right.store().index().zero_copy());
  ExpectQueriesEqual(mapped->left, *onto_);
  ExpectQueriesEqual(mapped->right, *right_);
  ExpectOracleEqual(mapped->right, *right_);

  // Delta ingestion detaches the zero-copy views; queries follow it.
  std::vector<rdf::ParsedTriple> delta(1);
  delta[0].subject = "l:e0";
  delta[0].predicate = "l:knows";
  delta[0].object = "l:e7";
  ASSERT_TRUE(mapped->left.ApplyDelta(delta).ok());
  EXPECT_FALSE(mapped->left.store().index().zero_copy());
  const std::vector<Triple> merged = AllTriples(mapped->left.store());
  const TriplePattern knows_e0 = TriplePattern().BindSubject(
      *mmap_pool.Find("l:e0", rdf::TermKind::kIri));
  EXPECT_EQ(KeySet(mapped->left.store().Collect(knows_e0)),
            BruteForce(merged, knows_e0));
  std::remove(path.c_str());
}

TEST_F(QuerySnapshotTest, V3FixtureLoadsStreamAndMmap) {
  BuildPair();
  // Written by the v3 writer from this fixture's pair (see BuildPair).
  const std::string v3_path =
      std::string(PARIS_TEST_DATA_DIR) + "/query_pair_v3.snap";
  for (const auto mode : {ontology::SnapshotLoadMode::kStream,
                          ontology::SnapshotLoadMode::kMmap}) {
    rdf::TermPool fresh;
    auto loaded = ontology::LoadAlignmentSnapshot(v3_path, &fresh, mode);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(fresh.size(), pool_.size());
    ExpectQueriesEqual(loaded->left, *onto_);
    ExpectQueriesEqual(loaded->right, *right_);
    ExpectOracleEqual(loaded->left, *onto_);
    ExpectOracleEqual(loaded->right, *right_);
  }

  // The same pair at v4 drops the three 12-byte triple orderings.
  const std::string v4_path = TempPath("query_pair_v4.snap");
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(v4_path, *onto_, *right_).ok());
  EXPECT_LT(FileSize(v4_path), FileSize(v3_path));
  std::remove(v4_path.c_str());
}

TEST_F(QuerySnapshotTest, V2SnapshotLoadsWithRebuiltDirectory) {
  BuildPair();
  const std::string path = TempPath("query_v2.snap");
  // Write the oldest on-disk format: CSR/POS only, no directory.
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(path, *onto_, *right_,
                                              storage::kMinSnapshotVersion)
                  .ok());
  // A v2 file is strictly smaller than the same pair at v4.
  const std::string v4_path = TempPath("query_v2_as_v4.snap");
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(v4_path, *onto_, *right_).ok());
  EXPECT_LT(FileSize(path), FileSize(v4_path));

  for (const auto mode : {ontology::SnapshotLoadMode::kStream,
                          ontology::SnapshotLoadMode::kMmap}) {
    rdf::TermPool fresh;
    auto loaded = ontology::LoadAlignmentSnapshot(path, &fresh, mode);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    // The directory is rebuilt in memory and queries answer identically.
    ExpectQueriesEqual(loaded->left, *onto_);
    ExpectQueriesEqual(loaded->right, *right_);
    ExpectOracleEqual(loaded->left, *onto_);
  }
  std::remove(path.c_str());
  std::remove(v4_path.c_str());
}

TEST_F(QuerySnapshotTest, UnsupportedWriteVersionRejected) {
  BuildPair();
  const std::string path = TempPath("query_bad_version.snap");
  // v3 still loads but is no longer written.
  for (uint32_t version : {uint32_t{0}, uint32_t{1}, uint32_t{3},
                           storage::kSnapshotVersion + 1}) {
    const auto status =
        ontology::SaveAlignmentSnapshot(path, *onto_, *right_, version);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
        << "version=" << version;
  }
}

TEST_F(QuerySnapshotTest, CorruptV4ColumnsRejected) {
  BuildPair();
  const std::string path = TempPath("query_corrupt_base.snap");
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(path, *onto_, *right_).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  // Flip bytes across the second half of the v4 file — where the left
  // section's relation directory and the right section live — and require
  // every flip to be caught (section checksum or column validation).
  const std::string bad_path = TempPath("query_corrupt.snap");
  for (size_t offset = bytes.size() / 2; offset < bytes.size();
       offset += 1 + bytes.size() / 31) {
    std::string mutated = bytes;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0x3c);
    {
      std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
      out << mutated;
    }
    for (const auto mode : {ontology::SnapshotLoadMode::kStream,
                            ontology::SnapshotLoadMode::kMmap}) {
      rdf::TermPool scratch;
      EXPECT_FALSE(
          ontology::LoadAlignmentSnapshot(bad_path, &scratch, mode).ok())
          << "byte flip at offset " << offset << " was not rejected";
    }
  }
  std::remove(bad_path.c_str());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Session facade
// ---------------------------------------------------------------------------

TEST(SessionQueryTest, RequiresLoadedOntologies) {
  api::Session session;
  const auto result =
      session.Query(api::Session::DeltaSide::kLeft, TriplePattern());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(SessionQueryTest, QueriesBothSidesThroughFacade) {
  rdf::TermPool pool;  // unused; Session owns its pool internally
  const std::string left_path = TempPath("session_query_left.nt");
  const std::string right_path = TempPath("session_query_right.nt");
  {
    std::ofstream out(left_path);
    out << "<l:a> <l:knows> <l:b> .\n<l:b> <l:knows> <l:c> .\n";
  }
  {
    std::ofstream out(right_path);
    out << "<r:x> <r:contact> <r:y> .\n";
  }
  api::Session session;
  ASSERT_TRUE(session.LoadFromFiles(left_path, right_path).ok());

  auto left = session.Query(api::Session::DeltaSide::kLeft, TriplePattern());
  ASSERT_TRUE(left.ok()) << left.status().ToString();
  EXPECT_EQ(left->size(), 2u);
  EXPECT_EQ(KeySet(*left), KeySet(session.left().store().Collect({})));

  auto right =
      session.Query(api::Session::DeltaSide::kRight, TriplePattern(), 1);
  ASSERT_TRUE(right.ok()) << right.status().ToString();
  EXPECT_EQ(right->size(), 1u);
  std::remove(left_path.c_str());
  std::remove(right_path.c_str());
}

// ---------------------------------------------------------------------------
// Aligner byte-identity over the new access paths
// ---------------------------------------------------------------------------

// The per-term relation directory (negative evidence) and the packed type
// index (class pass) are pure access-path swaps: with negative evidence on,
// results must be bit-identical across thread counts and shard layouts.
TEST(QueryFastPathTest, AlignerByteIdenticalAcrossThreadsAndShards) {
  rdf::TermPool pool;
  auto build = [&pool](const std::string& ns, const std::string& label_rel,
                       const std::string& link_rel) {
    ontology::OntologyBuilder b(&pool, ns);
    for (int i = 0; i < 24; ++i) {
      const std::string e = ns + ":e" + std::to_string(i);
      b.AddType(e, ns + (i % 2 ? ":Person" : ":Artist"));
      b.AddLiteralFact(e, ns + ":" + label_rel, "Name " + std::to_string(i));
      b.AddLiteralFact(e, ns + ":city", "City " + std::to_string(i % 4));
      b.AddFact(e, ns + ":" + link_rel,
                ns + ":e" + std::to_string((i + 1) % 24));
      b.AddFact(e, ns + ":emp", ns + ":e" + std::to_string((i + 7) % 24));
    }
    return b.Build();
  };
  auto left = build("l", "name", "knows");
  ASSERT_TRUE(left.ok()) << left.status().ToString();
  auto right = build("r", "label", "contact");
  ASSERT_TRUE(right.ok()) << right.status().ToString();

  core::AlignmentConfig base;
  base.max_iterations = 4;
  base.use_negative_evidence = true;

  std::optional<core::AlignmentResult> reference;
  for (size_t shards : {size_t{7}, size_t{64}}) {
    for (size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
      core::AlignmentConfig config = base;
      config.num_threads = threads;
      config.num_shards = shards;
      core::AlignmentResult result = core::Aligner(*left, *right, config).Run();
      if (!reference.has_value()) {
        reference.emplace(std::move(result));
        continue;
      }
      ASSERT_EQ(result.instances.max_left().size(),
                reference->instances.max_left().size())
          << "threads=" << threads << " shards=" << shards;
      for (const auto& [l, c] : reference->instances.max_left()) {
        const auto* other = result.instances.MaxOfLeft(l);
        ASSERT_NE(other, nullptr) << "threads=" << threads;
        EXPECT_EQ(other->other, c.other);
        EXPECT_EQ(other->prob, c.prob)
            << "threads=" << threads << " shards=" << shards;
      }
      const auto& expect_entries = reference->relations.Entries();
      const auto& got_entries = result.relations.Entries();
      ASSERT_EQ(got_entries.size(), expect_entries.size());
      for (size_t i = 0; i < expect_entries.size(); ++i) {
        EXPECT_EQ(got_entries[i].score, expect_entries[i].score)
            << "threads=" << threads << " shards=" << shards;
      }
      ASSERT_EQ(result.classes.entries().size(),
                reference->classes.entries().size());
      for (size_t i = 0; i < reference->classes.entries().size(); ++i) {
        EXPECT_EQ(result.classes.entries()[i].score,
                  reference->classes.entries()[i].score);
      }
    }
  }
}

}  // namespace
}  // namespace paris
