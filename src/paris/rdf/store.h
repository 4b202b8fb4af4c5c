#ifndef PARIS_RDF_STORE_H_
#define PARIS_RDF_STORE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "paris/rdf/term.h"
#include "paris/rdf/triple.h"
#include "paris/storage/columnar_index.h"
#include "paris/storage/triple_pattern.h"
#include "paris/util/status.h"

namespace paris::storage {
class SnapshotReader;
class SnapshotWriter;
}  // namespace paris::storage

namespace paris::util {
class ThreadPool;
}  // namespace paris::util

namespace paris::rdf {

// Per-ontology fact storage, optimized for the access pattern of the PARIS
// alignment passes (§5.2 of the paper): given an entity, iterate every
// statement it participates in (in either argument position), and given a
// relation, iterate its (first, second) pairs.
//
// Usage: `Add()` triples, then `Finalize()` exactly once; all read accessors
// require a finalized store. Finalization packs the statements into a
// `storage::ColumnarIndex` — CSR adjacency (inverses under negated ids)
// plus per-relation POS pairs — so every read accessor returns a span into
// the packed columns and never allocates. `Finalize()` also removes
// duplicate statements (an RDFS ontology is a *set* of triples).
class TripleStore {
 public:
  explicit TripleStore(TermPool* pool) : pool_(pool) {}
  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;
  TripleStore(TripleStore&&) = default;
  TripleStore& operator=(TripleStore&&) = default;

  TermPool& pool() const { return *pool_; }

  // Registers (or finds) a relation by its name term. Returns its positive id.
  RelId InternRelation(TermId name);
  std::optional<RelId> FindRelation(TermId name) const;

  // Adds statement rel(subject, object). `rel` may be negative (inverse), in
  // which case the statement BaseRel(rel)(object, subject) is recorded.
  // Before Finalize() this feeds the initial build; after Finalize() it
  // stages a *delta* that becomes visible at the next MergeDelta() call
  // (the read API keeps answering from the last packed state until then).
  void Add(TermId subject, RelId rel, TermId object);

  // Packs the accumulated statements into the columnar index. With a
  // non-null `pool`, the per-term and per-relation sorts are sharded across
  // the workers; the packed index is identical to a serial finalize.
  // `hooks` (optional) records "io" spans for the build sub-phases.
  void Finalize(util::ThreadPool* pool = nullptr, obs::Hooks hooks = {});
  bool finalized() const { return finalized_; }

  // True when statements were Add()ed (or relations interned) after
  // Finalize() and have not been merged yet.
  bool has_pending_delta() const {
    return finalized_ && (!pending_.empty() ||
                          terms_.size() > index_.num_terms() ||
                          rel_names_.size() > index_.num_relations());
  }

  // What one MergeDelta() changed: exactly the terms that gained statements
  // and the (positive, base) relations that gained pairs — already-present
  // delta statements are dropped and contribute nothing. Both lists are
  // sorted and deduplicated, so downstream consumers iterate them in a
  // canonical order regardless of ingest order.
  struct DeltaMergeResult {
    std::vector<TermId> touched_terms;
    std::vector<RelId> touched_relations;
    size_t num_new_statements = 0;  // distinct novel triples (no inverses)
  };

  // Merges the statements staged since Finalize() into the packed index —
  // a linear splice of the small sorted delta into the touched CSR/POS
  // slices, not a rebuild; untouched slices are bulk-copied and the merged
  // index is byte-identical to a cold Finalize() over the union. Requires a
  // finalized store. Idempotent when nothing is staged (new relations with
  // no statements still get their empty POS ranges appended).
  DeltaMergeResult MergeDelta(util::ThreadPool* pool = nullptr,
                              obs::Hooks hooks = {});

  // ---- Read API (requires Finalize(); allocation-free) ----

  // Every statement `t` participates in, as (rel, other) with rel(t, other).
  // Sorted by (rel, other). Empty span if `t` is unknown to this ontology.
  std::span<const Fact> FactsAbout(TermId t) const;

  // The statements of `t` whose relation is exactly `rel` (`rel` may be
  // inverse): a binary search within `t`'s packed adjacency slice.
  std::span<const Fact> FactsAbout(TermId t, RelId rel) const;

  // The objects y with rel(t, y); `rel` may be inverse. Sorted. The span
  // points into the index's object column and stays valid for the store's
  // lifetime.
  std::span<const TermId> ObjectsOf(TermId t, RelId rel) const;

  // True if rel(s, o) is a statement of this store (rel may be inverse).
  bool Contains(TermId s, RelId rel, TermId o) const;

  // A resolved handle over one term's packed adjacency: the global→local
  // dictionary lookup happens once at `CursorFor`, so the fixpoint's inner
  // loops can issue many per-relation probes against the same term without
  // re-hashing its id. All spans stay valid for the store's lifetime.
  class FactsCursor {
   public:
    FactsCursor() = default;

    // False when the term is unknown (every accessor then returns empty).
    bool valid() const { return index_ != nullptr; }

    std::span<const Fact> all() const {
      return valid() ? index_->FactsAbout(local_) : std::span<const Fact>{};
    }
    std::span<const Fact> FactsWith(RelId rel) const {
      return valid() ? index_->FactsWith(local_, rel)
                     : std::span<const Fact>{};
    }
    std::span<const TermId> ObjectsOf(RelId rel) const {
      return valid() ? index_->ObjectsOf(local_, rel)
                     : std::span<const TermId>{};
    }
    bool Contains(RelId rel, TermId other) const {
      return valid() && index_->Contains(local_, rel, other);
    }

   private:
    friend class TripleStore;
    FactsCursor(const storage::ColumnarIndex* index, uint32_t local)
        : index_(index), local_(local) {}

    const storage::ColumnarIndex* index_ = nullptr;
    uint32_t local_ = 0;
  };

  // Resolves `t` once; invalid cursor if `t` is unknown to this ontology.
  FactsCursor CursorFor(TermId t) const;

  // Number of registered relations; valid positive ids are [1, count].
  size_t num_relations() const { return rel_names_.size(); }
  TermId relation_name(RelId rel) const {
    return rel_names_[static_cast<size_t>(BaseRel(rel)) - 1];
  }

  // Human-readable relation name; inverse relations get a "^-1" suffix.
  std::string RelationDebugName(RelId rel) const;

  // (first, second) pairs of `rel`, base direction only, sorted by
  // (first, second). For an inverse id the caller should swap the pair
  // components; `ForEachPair` does this.
  std::span<const TermPair> PairsOf(RelId rel) const {
    assert(finalized_);
    // A relation interned after Finalize() has no packed range until the
    // next MergeDelta().
    if (static_cast<size_t>(BaseRel(rel)) > index_.num_relations()) return {};
    return index_.PairsOf(BaseRel(rel));
  }

  // Invokes fn(x, y) for every pair of `rel` (handling inversion), stopping
  // after `limit` pairs (0 = no limit).
  void ForEachPair(RelId rel, size_t limit,
                   const std::function<void(TermId, TermId)>& fn) const;

  // Number of statements of `rel` (same for the inverse).
  size_t PairCount(RelId rel) const { return PairsOf(rel).size(); }

  // Every term that appears in some statement of this store, in first-seen
  // order.
  const std::vector<TermId>& terms() const { return terms_; }

  bool ContainsTerm(TermId t) const {
    return local_index_.find(t) != local_index_.end();
  }

  // Total number of distinct statements (not counting inverses twice).
  size_t num_triples() const { return index_.num_triples(); }

  // The packed storage engine (benchmarks, snapshot deep-equality).
  const storage::ColumnarIndex& index() const { return index_; }

  // ---- Triple-pattern queries (see storage::TriplePattern) ----
  //
  // Answered from the packed index itself, one access path per bound
  // shape (after a bound inverse relation `-r` is normalized to `r` by
  // swapping the subject and object slots):
  //
  //   S, SP, SPO   the subject's positive facts          order (p, o)
  //   SO           the subject's positive directory rows,
  //                one probe per relation                order p
  //   PO, O        the object's inverse facts            order (p, s)
  //   P            PairsOf(p)                            order (s, o)
  //   none         PairsOf, relation by relation         order (p, s, o)
  //
  // Emitted triples carry positive relations and global term ids. Ignored
  // positions report as kNullTerm / kNullRel, and matches that differ only
  // there are emitted once, in first-seen walk order. A bound relation
  // outside [-R, -1] ∪ [1, R] matches nothing.

  // Emits every match in its shape's order, stopping after `limit`
  // matches (0 = no limit). Returns the number of matches emitted.
  size_t Scan(const storage::TriplePattern& pattern, size_t limit,
              const std::function<void(const Triple&)>& fn) const;

  std::vector<Triple> Collect(const storage::TriplePattern& pattern,
                              size_t limit = 0) const;

  // Number of matches. O(log n) for ignore-free patterns whose matches
  // are one packed span (P, S+P, P+O, none); otherwise a counting scan.
  uint64_t Count(const storage::TriplePattern& pattern) const;

  // Sorted distinct bindings of free position `pos` across every match of
  // `pattern` (whose `pos` slot must not be bound); the other free
  // positions are treated as ignored. Stops after `limit` distinct values
  // (0 = no limit).
  std::vector<uint32_t> DistinctBindings(const storage::TriplePattern& pattern,
                                         storage::TriPos pos,
                                         size_t limit = 0) const;

  // ---- Snapshot I/O (see src/storage/README.md) ----

  // Serializes the relation registry, term dictionary, and packed index as
  // one section. Requires a finalized store; term ids reference the pool,
  // which must be saved alongside (storage::SaveTermPool). The no-argument
  // form writes the current format version (v4: CSR/POS plus the relation
  // directory); `version` == storage::kMinSnapshotVersion writes a
  // downlevel v2 section (CSR/POS only).
  void SaveTo(storage::SnapshotWriter& writer) const;
  void SaveTo(storage::SnapshotWriter& writer, uint32_t version) const;

  // Restores a finalized store whose term ids reference `pool` (already
  // loaded). Fails on structurally invalid or out-of-range data. With a
  // memory-backed reader (mmap'ed snapshot) the packed index columns
  // become zero-copy views into the mapping — only the dictionary hash
  // tables and the derived object column are materialized. `version` is
  // the snapshot file's format version: v3 and v4 sections carry the
  // relation directory (adopted zero-copy), v2 sections get it rebuilt in
  // memory; the three v3 triple-ordering columns are read past, checksummed
  // but not adopted. The two-argument form loads the current version.
  static util::StatusOr<TripleStore> LoadFrom(storage::SnapshotReader& reader,
                                              TermPool* pool);
  static util::StatusOr<TripleStore> LoadFrom(storage::SnapshotReader& reader,
                                              TermPool* pool,
                                              uint32_t version);

 private:
  uint32_t LocalIndex(TermId t);
  // The packed local index of `t`; nullopt when `t` is unknown or was first
  // seen by a staged (unmerged) delta.
  std::optional<uint32_t> PackedLocal(TermId t) const;

  TermPool* pool_;
  bool finalized_ = false;

  // Relation registry.
  std::vector<TermId> rel_names_;
  std::unordered_map<TermId, RelId> rel_index_;

  // Term dictionary: global term id ↔ dense local index, first-seen order.
  std::unordered_map<TermId, uint32_t> local_index_;
  std::vector<TermId> terms_;

  // Ingest buffer; moved into the index by Finalize().
  std::vector<storage::ColumnarIndex::Entry> pending_;

  // The packed engine (empty until Finalize()).
  storage::ColumnarIndex index_;
};

// Merge-join of a two-pattern conjunction on one shared variable: the
// sorted distinct values v such that `a` with its `a_pos` slot bound to v
// matches in `a_store` and `b` with `b_pos` bound to v matches in
// `b_store`. The two patterns may address the same store (self-join) or two
// ontologies' stores that share a term pool. Stops after `limit` values
// (0 = no limit).
std::vector<uint32_t> MergeJoin(const TripleStore& a_store,
                                const storage::TriplePattern& a,
                                storage::TriPos a_pos,
                                const TripleStore& b_store,
                                const storage::TriplePattern& b,
                                storage::TriPos b_pos, size_t limit = 0);

// ---- Pattern tokens (paris_query, the daemon's QUERY and LOOKUP verbs) ----

// A term token: `#<id>` (a raw pool id; InvalidArgument when out of range)
// or a lexical IRI (NotFound when the pool has no such IRI).
util::StatusOr<TermId> ResolveTermToken(const TermPool& pool,
                                        std::string_view token);

// A relation token of `store`: an optional `-` prefix (inverse direction),
// then `#<id>` (a raw relation id in [1, R]; InvalidArgument otherwise) or
// the relation's lexical IRI name (NotFound when `store` has no such
// relation).
util::StatusOr<RelId> ResolveRelationToken(const TripleStore& store,
                                           std::string_view token);

// One pattern from its three position tokens. Each token is `?` (variable),
// `_` (ignored), or a term / relation token as above.
util::StatusOr<storage::TriplePattern> ParsePatternTokens(
    const TripleStore& store, std::string_view subject,
    std::string_view relation, std::string_view object);

}  // namespace paris::rdf

#endif  // PARIS_RDF_STORE_H_
