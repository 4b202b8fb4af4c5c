#include "paris/rdf/store.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>
#include <utility>

#include "paris/storage/snapshot.h"
#include "paris/util/flags.h"
#include "paris/util/hash.h"

namespace paris::rdf {

namespace {

using storage::TriplePattern;
using storage::TriPos;
using Slot = TriplePattern::Slot;

// r⁻¹(s, o) matches exactly the statements r(o, s), so a pattern with a
// bound inverse relation becomes the positive-relation pattern with its
// subject and object slots swapped. (Unsigned negation keeps INT32_MIN
// well-defined; it stays negative and matches nothing.)
TriplePattern Normalize(const TriplePattern& p) {
  if (!p.bound(TriPos::kRel) || p.rel() >= 0) return p;
  TriplePattern q = p;
  std::swap(q.slots[0], q.slots[2]);
  std::swap(q.values[0], q.values[2]);
  q.values[1] = 0u - p.values[1];
  return q;
}

// False when the (normalized) pattern binds a relation outside [1, R]:
// such a pattern matches nothing, and PairsOf must not see it.
bool RelInRange(const TriplePattern& p, size_t num_relations) {
  return !p.bound(TriPos::kRel) ||
         (p.rel() >= 1 && static_cast<size_t>(p.rel()) <= num_relations);
}

// True if `run` — one relation's facts of one term, sorted by `other` —
// holds `o`. Branch-free: the runs are short and whether the probe goes
// left or right is a coin flip, so a branchy binary search spends its time
// in mispredictions (measured by bench_query's pattern_so phases).
bool RunContains(std::span<const Fact> run, TermId o) {
  const Fact* base = run.data();
  for (size_t n = run.size(); n > 1; n -= n / 2) {
    base = base[n / 2].other <= o ? base + n / 2 : base;
  }
  return !run.empty() && base->other == o;
}

bool AnyIgnored(const TriplePattern& p) {
  return std::find(std::begin(p.slots), std::end(p.slots), Slot::kIgnored) !=
         std::end(p.slots);
}

struct TripleHash {
  size_t operator()(const Triple& t) const {
    return static_cast<size_t>(util::Mix64(
        util::PackPair(t.subject, t.object) ^ static_cast<uint32_t>(t.rel)));
  }
};

}  // namespace

RelId TripleStore::InternRelation(TermId name) {
  auto it = rel_index_.find(name);
  if (it != rel_index_.end()) return it->second;
  rel_names_.push_back(name);
  const RelId id = static_cast<RelId>(rel_names_.size());
  rel_index_.emplace(name, id);
  return id;
}

std::optional<RelId> TripleStore::FindRelation(TermId name) const {
  auto it = rel_index_.find(name);
  if (it == rel_index_.end()) return std::nullopt;
  return it->second;
}

uint32_t TripleStore::LocalIndex(TermId t) {
  auto [it, inserted] =
      local_index_.emplace(t, static_cast<uint32_t>(terms_.size()));
  if (inserted) terms_.push_back(t);
  return it->second;
}

void TripleStore::Add(TermId subject, RelId rel, TermId object) {
  assert(rel != kNullRel);
  if (rel < 0) {
    Add(object, -rel, subject);
    return;
  }
  assert(static_cast<size_t>(rel) <= rel_names_.size() &&
         "relation not registered");
  pending_.push_back({LocalIndex(subject), rel, object});
  pending_.push_back({LocalIndex(object), Inverse(rel), subject});
}

void TripleStore::Finalize(util::ThreadPool* pool, obs::Hooks hooks) {
  assert(!finalized_);
  index_ = storage::ColumnarIndex::Build(terms_, rel_names_.size(),
                                         std::move(pending_), pool, hooks);
  pending_ = {};
  finalized_ = true;
}

std::optional<uint32_t> TripleStore::PackedLocal(TermId t) const {
  assert(finalized_);
  auto it = local_index_.find(t);
  // Terms first seen by a staged (unmerged) delta have no packed slice yet.
  if (it == local_index_.end() || it->second >= index_.num_terms()) {
    return std::nullopt;
  }
  return it->second;
}

std::span<const Fact> TripleStore::FactsAbout(TermId t) const {
  const auto local = PackedLocal(t);
  return local ? index_.FactsAbout(*local) : std::span<const Fact>{};
}

std::span<const Fact> TripleStore::FactsAbout(TermId t, RelId rel) const {
  const auto local = PackedLocal(t);
  return local ? index_.FactsWith(*local, rel) : std::span<const Fact>{};
}

std::span<const TermId> TripleStore::ObjectsOf(TermId t, RelId rel) const {
  const auto local = PackedLocal(t);
  return local ? index_.ObjectsOf(*local, rel) : std::span<const TermId>{};
}

bool TripleStore::Contains(TermId s, RelId rel, TermId o) const {
  const auto local = PackedLocal(s);
  return local && index_.Contains(*local, rel, o);
}

TripleStore::FactsCursor TripleStore::CursorFor(TermId t) const {
  const auto local = PackedLocal(t);
  return local ? FactsCursor(&index_, *local) : FactsCursor();
}

TripleStore::DeltaMergeResult TripleStore::MergeDelta(util::ThreadPool* pool,
                                                      obs::Hooks hooks) {
  assert(finalized_ && "MergeDelta() requires a finalized store");
  const std::vector<storage::ColumnarIndex::Entry> kept = index_.MergeDelta(
      terms_, rel_names_.size(), std::move(pending_), pool, hooks);
  pending_ = {};

  DeltaMergeResult result;
  for (const auto& e : kept) {
    result.touched_terms.push_back(terms_[e.owner]);
    result.touched_relations.push_back(BaseRel(e.rel));
    // Each novel statement appears once with a positive relation (its
    // inverse half carries the negated id).
    if (e.rel > 0) ++result.num_new_statements;
  }
  auto canonicalize = [](auto& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  canonicalize(result.touched_terms);
  canonicalize(result.touched_relations);
  return result;
}

std::string TripleStore::RelationDebugName(RelId rel) const {
  std::string name(pool_->lexical(relation_name(rel)));
  if (IsInverse(rel)) name += "^-1";
  return name;
}

void TripleStore::ForEachPair(
    RelId rel, size_t limit,
    const std::function<void(TermId, TermId)>& fn) const {
  const auto pairs = PairsOf(rel);
  const size_t n =
      limit == 0 ? pairs.size() : std::min(limit, pairs.size());
  const bool inverted = IsInverse(rel);
  for (size_t i = 0; i < n; ++i) {
    if (inverted) {
      fn(pairs[i].second, pairs[i].first);
    } else {
      fn(pairs[i].first, pairs[i].second);
    }
  }
}

// ---------------------------------------------------------------------------
// Triple-pattern queries
// ---------------------------------------------------------------------------

size_t TripleStore::Scan(const TriplePattern& raw, size_t limit,
                         const std::function<void(const Triple&)>& fn) const {
  assert(finalized_);
  const TriplePattern p = Normalize(raw);
  const bool bound_s = p.bound(TriPos::kSubject);
  const bool bound_r = p.bound(TriPos::kRel);
  const bool bound_o = p.bound(TriPos::kObject);
  const TermId s = p.values[0];
  const RelId rel = p.rel();
  const TermId o = p.values[2];
  const size_t num_rels = index_.num_relations();
  if (!RelInRange(p, num_rels)) return 0;

  const bool ignore_s = p.slot(TriPos::kSubject) == Slot::kIgnored;
  const bool ignore_r = p.slot(TriPos::kRel) == Slot::kIgnored;
  const bool ignore_o = p.slot(TriPos::kObject) == Slot::kIgnored;
  const bool any_ignored = AnyIgnored(p);
  // Without a variable position every match collapses to the same triple.
  if (std::find(std::begin(p.slots), std::end(p.slots), Slot::kVariable) ==
      std::end(p.slots)) {
    limit = 1;
  }
  std::unordered_set<Triple, TripleHash> seen;
  size_t emitted = 0;
  // Returns false once `limit` matches are out, which ends the walk.
  const auto emit = [&](TermId ms, RelId mr, TermId mo) {
    const Triple t{ignore_s ? kNullTerm : ms, ignore_r ? kNullRel : mr,
                   ignore_o ? kNullTerm : mo};
    if (any_ignored && !seen.insert(t).second) return true;
    fn(t);
    ++emitted;
    return limit == 0 || emitted < limit;
  };

  [&] {
    if (bound_s) {
      const auto local = PackedLocal(s);
      if (!local) return;
      if (bound_o) {
        // SPO / SO: one probe per relation of the subject, ascending.
        if (bound_r) {
          if (index_.Contains(*local, rel, o)) emit(s, rel, o);
          return;
        }
        const std::span<const Fact> slice = index_.FactsAbout(*local);
        const auto rows = index_.RelationsOf(*local);
        for (size_t i = 0; i < rows.size(); ++i) {
          if (rows[i].rel < 0) continue;
          const size_t end =
              i + 1 < rows.size() ? rows[i + 1].begin : slice.size();
          if (RunContains(slice.subspan(rows[i].begin, end - rows[i].begin),
                          o) &&
              !emit(s, rows[i].rel, o)) {
            return;
          }
        }
        return;
      }
      // S / SP: the positive suffix of the subject's slice, (p, o) order.
      std::span<const Fact> facts;
      if (bound_r) {
        facts = index_.FactsWith(*local, rel);
      } else {
        facts = index_.FactsAbout(*local);
        const auto positive =
            std::partition_point(facts.begin(), facts.end(),
                                 [](const Fact& f) { return f.rel < 0; });
        facts = facts.subspan(static_cast<size_t>(positive - facts.begin()));
      }
      for (const Fact& f : facts) {
        if (!emit(s, f.rel, f.other)) return;
      }
    } else if (bound_o) {
      // PO / O: the object's inverse facts, subjects ascending.
      const auto local = PackedLocal(o);
      if (!local) return;
      if (bound_r) {
        for (const Fact& f : index_.FactsWith(*local, Inverse(rel))) {
          if (!emit(f.other, rel, o)) return;
        }
        return;
      }
      // Inverse directory rows sort -R..-1, so walking them backwards
      // yields ascending relations.
      const auto rows = index_.RelationsOf(*local);
      for (auto row = rows.rbegin(); row != rows.rend(); ++row) {
        if (row->rel > 0) continue;
        for (const Fact& f : index_.FactsWith(*local, row->rel)) {
          if (!emit(f.other, Inverse(row->rel), o)) return;
        }
      }
    } else {
      // P / none: the POS pairs, relation by relation.
      const size_t first = bound_r ? static_cast<size_t>(rel) : 1;
      const size_t last = bound_r ? static_cast<size_t>(rel) : num_rels;
      for (size_t r = first; r <= last; ++r) {
        for (const TermPair& pair : index_.PairsOf(static_cast<RelId>(r))) {
          if (!emit(pair.first, static_cast<RelId>(r), pair.second)) return;
        }
      }
    }
  }();
  return emitted;
}

std::vector<Triple> TripleStore::Collect(const TriplePattern& pattern,
                                         size_t limit) const {
  std::vector<Triple> out;
  Scan(pattern, limit, [&out](const Triple& t) { out.push_back(t); });
  return out;
}

uint64_t TripleStore::Count(const TriplePattern& raw) const {
  const TriplePattern p = Normalize(raw);
  const bool bound_s = p.bound(TriPos::kSubject);
  const bool bound_r = p.bound(TriPos::kRel);
  const bool bound_o = p.bound(TriPos::kObject);
  if (!AnyIgnored(p) && RelInRange(p, index_.num_relations())) {
    // Shapes whose matches are exactly one packed span.
    if (!bound_s && !bound_o) {
      return bound_r ? index_.PairsOf(p.rel()).size() : index_.num_triples();
    }
    if (bound_r && bound_s != bound_o) {
      const auto local = PackedLocal(p.values[bound_s ? 0 : 2]);
      if (!local) return 0;
      return index_.FactsWith(*local, bound_s ? p.rel() : Inverse(p.rel()))
          .size();
    }
  }
  return Scan(raw, 0, [](const Triple&) {});
}

std::vector<uint32_t> TripleStore::DistinctBindings(
    const TriplePattern& pattern, TriPos pos, size_t limit) const {
  if (pattern.bound(pos)) return {};
  TriplePattern q = pattern;
  for (Slot& slot : q.slots) {
    if (slot != Slot::kBound) slot = Slot::kIgnored;
  }
  q.slots[static_cast<size_t>(pos)] = Slot::kVariable;
  // Normalization may move the variable to the opposite slot.
  const TriplePattern n = Normalize(q);
  const size_t var = static_cast<size_t>(
      std::find(std::begin(n.slots), std::end(n.slots), Slot::kVariable) -
      std::begin(n.slots));

  std::vector<uint32_t> out;
  Scan(q, 0, [&out, var](const Triple& t) {
    const uint32_t comps[3] = {t.subject, static_cast<uint32_t>(t.rel),
                               t.object};
    out.push_back(comps[var]);
  });
  // The scan already collapsed duplicates; only the order is left.
  std::sort(out.begin(), out.end());
  if (limit != 0 && out.size() > limit) out.resize(limit);
  return out;
}

std::vector<uint32_t> MergeJoin(const TripleStore& a_store,
                                const TriplePattern& a, TriPos a_pos,
                                const TripleStore& b_store,
                                const TriplePattern& b, TriPos b_pos,
                                size_t limit) {
  const std::vector<uint32_t> av = a_store.DistinctBindings(a, a_pos);
  const std::vector<uint32_t> bv = b_store.DistinctBindings(b, b_pos);
  std::vector<uint32_t> out;
  auto ai = av.begin();
  auto bi = bv.begin();
  while (ai != av.end() && bi != bv.end() &&
         (limit == 0 || out.size() < limit)) {
    if (*ai < *bi) {
      ++ai;
    } else if (*bi < *ai) {
      ++bi;
    } else {
      out.push_back(*ai);
      ++ai;
      ++bi;
    }
  }
  return out;
}

util::StatusOr<TermId> ResolveTermToken(const TermPool& pool,
                                        std::string_view token) {
  if (!token.empty() && token[0] == '#') {
    long long raw = 0;
    if (!util::ParseFullInt64(std::string(token.substr(1)), &raw) || raw < 0 ||
        static_cast<size_t>(raw) >= pool.size()) {
      return util::InvalidArgumentError("bad raw term id '" +
                                        std::string(token) + "'");
    }
    return static_cast<TermId>(raw);
  }
  const auto id = pool.Find(token, TermKind::kIri);
  if (!id.has_value()) {
    return util::NotFoundError("unknown term '" + std::string(token) + "'");
  }
  return *id;
}

util::StatusOr<RelId> ResolveRelationToken(const TripleStore& store,
                                           std::string_view token) {
  std::string_view name = token;
  const bool inverse = !name.empty() && name[0] == '-';
  if (inverse) name.remove_prefix(1);
  if (!name.empty() && name[0] == '#') {
    long long raw = 0;
    if (!util::ParseFullInt64(std::string(name.substr(1)), &raw) || raw < 1 ||
        static_cast<size_t>(raw) > store.num_relations()) {
      return util::InvalidArgumentError("bad raw relation id '" +
                                        std::string(token) + "'");
    }
    const auto rel = static_cast<RelId>(raw);
    return inverse ? Inverse(rel) : rel;
  }
  const auto name_id = store.pool().Find(name, TermKind::kIri);
  if (name_id.has_value()) {
    const auto rel = store.FindRelation(*name_id);
    if (rel.has_value()) return inverse ? Inverse(*rel) : *rel;
  }
  return util::NotFoundError("unknown relation '" + std::string(name) + "'");
}

util::StatusOr<TriplePattern> ParsePatternTokens(const TripleStore& store,
                                                 std::string_view subject,
                                                 std::string_view relation,
                                                 std::string_view object) {
  TriplePattern pattern;
  if (subject == "_") {
    pattern.IgnoreSubject();
  } else if (subject != "?") {
    auto id = ResolveTermToken(store.pool(), subject);
    if (!id.ok()) return id.status();
    pattern.BindSubject(*id);
  }
  if (relation == "_") {
    pattern.IgnoreRel();
  } else if (relation != "?") {
    auto rel = ResolveRelationToken(store, relation);
    if (!rel.ok()) return rel.status();
    pattern.BindRel(*rel);
  }
  if (object == "_") {
    pattern.IgnoreObject();
  } else if (object != "?") {
    auto id = ResolveTermToken(store.pool(), object);
    if (!id.ok()) return id.status();
    pattern.BindObject(*id);
  }
  return pattern;
}

// ---------------------------------------------------------------------------
// Snapshot I/O
// ---------------------------------------------------------------------------

void TripleStore::SaveTo(storage::SnapshotWriter& writer) const {
  SaveTo(writer, storage::kSnapshotVersion);
}

void TripleStore::SaveTo(storage::SnapshotWriter& writer,
                         uint32_t version) const {
  assert(finalized_);
  assert(version == storage::kMinSnapshotVersion ||
         version == storage::kSnapshotVersion);
  writer.WritePodVector(rel_names_);
  writer.WritePodVector(terms_);
  writer.WritePodSpan(index_.offsets());
  writer.WritePodSpan(index_.facts());
  writer.WritePodSpan(index_.pair_offsets());
  writer.WritePodSpan(index_.pairs());
  if (version >= 3) {
    writer.WritePodSpan(index_.dir_offsets());
    writer.WritePodSpan(index_.dir());
  }
}

util::StatusOr<TripleStore> TripleStore::LoadFrom(
    storage::SnapshotReader& reader, TermPool* pool) {
  return LoadFrom(reader, pool, storage::kSnapshotVersion);
}

util::StatusOr<TripleStore> TripleStore::LoadFrom(
    storage::SnapshotReader& reader, TermPool* pool, uint32_t version) {
  TripleStore store(pool);
  storage::Column<uint64_t> offsets;
  storage::Column<Fact> facts;
  storage::Column<uint64_t> pair_offsets;
  storage::Column<TermPair> pairs;
  storage::Column<uint64_t> dir_offsets;
  storage::Column<storage::ColumnarIndex::DirEntry> dir;
  reader.ReadPodVector(&store.rel_names_);
  reader.ReadPodVector(&store.terms_);
  reader.ReadPodColumn(&offsets);
  reader.ReadPodColumn(&facts);
  reader.ReadPodColumn(&pair_offsets);
  reader.ReadPodColumn(&pairs);
  if (version >= 3) {
    reader.ReadPodColumn(&dir_offsets);
    reader.ReadPodColumn(&dir);
  }
  if (version == 3) {
    // v3 sections also carry three sorted triple orderings (SPO, POS, OSP;
    // 12-byte rows) that nothing reads any more: consume them so the
    // checksum covers them, but do not adopt them.
    for (int family = 0; family < 3; ++family) {
      reader.SkipPodArray(3 * sizeof(uint32_t));
    }
  }
  if (!reader.ok()) {
    return util::DataLossError("truncated triple store section");
  }

  const size_t pool_size = pool->size();
  auto valid_term = [pool_size](TermId t) {
    return static_cast<size_t>(t) < pool_size;
  };
  for (TermId name : store.rel_names_) {
    if (!valid_term(name)) {
      return util::DataLossError("relation name out of pool range");
    }
  }
  for (TermId t : store.terms_) {
    if (!valid_term(t)) {
      return util::DataLossError("term id out of pool range");
    }
  }
  for (const Fact& f : facts) {
    if (!valid_term(f.other)) {
      return util::DataLossError("fact object out of pool range");
    }
  }
  for (const TermPair& p : pairs) {
    if (!valid_term(p.first) || !valid_term(p.second)) {
      return util::DataLossError("pair term out of pool range");
    }
  }
  if (offsets.size() != store.terms_.size() + 1 ||
      pair_offsets.size() != store.rel_names_.size() + 1) {
    return util::DataLossError("inconsistent triple store columns");
  }
  if (version >= 3) {
    if (!storage::ColumnarIndex::FromColumns(
            std::move(offsets), std::move(facts), std::move(pair_offsets),
            std::move(pairs), std::move(dir_offsets), std::move(dir),
            reader.view_owner(), &store.index_)) {
      return util::DataLossError("inconsistent triple store columns");
    }
  } else {
    if (!storage::ColumnarIndex::FromColumns(
            std::move(offsets), std::move(facts), std::move(pair_offsets),
            std::move(pairs), reader.view_owner(), &store.index_)) {
      return util::DataLossError("inconsistent triple store columns");
    }
  }

  store.rel_index_.reserve(store.rel_names_.size());
  for (size_t i = 0; i < store.rel_names_.size(); ++i) {
    if (!store.rel_index_
             .emplace(store.rel_names_[i], static_cast<RelId>(i + 1))
             .second) {
      return util::DataLossError("duplicate relation name");
    }
  }
  store.local_index_.reserve(store.terms_.size());
  for (size_t i = 0; i < store.terms_.size(); ++i) {
    if (!store.local_index_
             .emplace(store.terms_[i], static_cast<uint32_t>(i))
             .second) {
      return util::DataLossError("duplicate term in dictionary");
    }
  }
  store.finalized_ = true;
  return store;
}

}  // namespace paris::rdf
