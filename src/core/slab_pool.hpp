// Per-node slab storage for the relayed two-hop state.
//
// Every cached neighbor q relays what it knows of its own neighborhood,
// and the receiver keeps what its rules read of it: q's sorted
// neighbor-id sequence (rule R1) and, under fusion, one head record
// {id, dag_id, metric} — of q's neighbors that are their own heads with a
// valid metric and are not the receiver, the highest-ranked. The fusion
// scan looks for the highest-ranked such head across all entries, and
// the maximum over the entries' best records is that maximum, so no
// other head record can ever change a rule's outcome. Both live in one
// span of 8-byte words: the ids, then the record's three words if there
// is one.
//
// As per-entry std::vectors those spans would be the worst case for the
// hot loops: every R1 intersection chases a heap pointer per neighbor,
// and churn (delivery, eviction) allocates. RelaySlab is one contiguous
// buffer per node instead; RelayList is a cache entry's span in it —
// (offset, capacity, id count, record present).
//
// Allocation is a bump pointer; freeing only counts the dead capacity,
// and when everything is dead the slab rewinds for free. The buffer
// never grows while its dead words could absorb a request: before a
// bump would pass the end, the slab slides its live spans down in offset
// order (overlapping moves, so memmove) and drops their slack. It grows
// only when live words plus the request fill more than 7/8 of it, and
// then to 1.5x that, so a buffer holds at most 1.5x the live words of
// the node's largest cache so far, and each compaction frees at least an
// eighth of the buffer. Compaction needs no scratch memory: it finds the
// next span to slide by scanning the lists for the smallest offset above
// the last one moved. Offsets (not pointers) make the buffer free to
// grow or move.
//
// Lists are move-only: a move steals the span (FlatMap insert/erase
// shifts and vector growth move entries within the same node, where the
// span stays valid); a copy could not know which slab the destination
// lives in, so it is deleted. A default-constructed list is *detached*
// (no slab): it is empty and stays empty until `attach` — the state a
// standalone cache entry is born in.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "topology/ids.hpp"

namespace ssmwn::core {

/// One slot of a relay span and of a frame row.
using RelayWord = std::uint64_t;

/// A relayed neighbor that is its own cluster-head with a valid metric:
/// all the fusion scan needs to rank it. Three words in a relay span.
struct HeadRecord {
  topology::ProtocolId id = 0;
  std::uint64_t dag_id = 0;
  double metric = 0.0;
};

/// Words per head record in a relay span or a frame row.
inline constexpr std::size_t kHeadWords = 3;

/// Writes `record` as its three words at `out`.
inline void put_head(RelayWord* out, const HeadRecord& record) noexcept {
  out[0] = record.id;
  out[1] = record.dag_id;
  out[2] = std::bit_cast<RelayWord>(record.metric);
}

/// Reads the head record whose three words start at `in`.
[[nodiscard]] inline HeadRecord get_head(const RelayWord* in) noexcept {
  return HeadRecord{in[0], in[1], std::bit_cast<double>(in[2])};
}

class RelayList;

class RelaySlab {
 public:
  [[nodiscard]] RelayWord* at(std::uint32_t off) noexcept {
    return buf_.data() + off;
  }
  [[nodiscard]] const RelayWord* at(std::uint32_t off) const noexcept {
    return buf_.data() + off;
  }

  /// Words below the cursor are in use, live or dead: [at(0),
  /// at(cursor())).
  [[nodiscard]] std::uint32_t cursor() const noexcept { return cursor_; }
  [[nodiscard]] std::uint32_t dead() const noexcept { return dead_; }
  [[nodiscard]] std::size_t buffer_capacity() const noexcept {
    return buf_.size();
  }

  /// Returns a span's capacity to the dead count. When every span is
  /// dead the slab rewinds for free; otherwise the holes wait for the
  /// next compaction.
  void release(std::uint32_t cap) noexcept {
    dead_ += cap;
    if (dead_ == cursor_) {
      cursor_ = 0;
      dead_ = 0;
    }
  }

  /// Bump-allocates `cap` words and returns the span's offset. If the
  /// bump would pass the buffer's end, the slab first compacts, and grows
  /// only when the live words leave too little room (see the header
  /// comment). `for_each_list(f)` must call `f(RelayList&)` on every
  /// list of this slab; the caller's own list, if it is being
  /// reallocated, must already have released its span.
  template <typename ForEachList>
  [[nodiscard]] std::uint32_t allocate(std::uint32_t cap,
                                       ForEachList&& for_each_list);

 private:
  /// The smallest buffer a slab allocates.
  static constexpr std::size_t kMinWords = 16;

  template <typename ForEachList>
  void compact(ForEachList&& for_each_list);

  std::vector<RelayWord> buf_;
  std::uint32_t cursor_ = 0;  ///< bump pointer (live + dead capacity)
  std::uint32_t dead_ = 0;    ///< released capacity below the cursor
};

class RelayList {
 public:
  RelayList() = default;

  RelayList(RelayList&& other) noexcept
      : slab_(other.slab_), off_(other.off_), cap_(other.cap_),
        ids_(other.ids_), head_(other.head_) {
    other.forget();
  }

  RelayList& operator=(RelayList&& other) noexcept {
    if (this != &other) {
      release_span();
      slab_ = other.slab_;
      off_ = other.off_;
      cap_ = other.cap_;
      ids_ = other.ids_;
      head_ = other.head_;
      other.forget();
    }
    return *this;
  }

  // A copy cannot know the destination's slab; entries travel by move.
  RelayList(const RelayList&) = delete;
  RelayList& operator=(const RelayList&) = delete;

  ~RelayList() { release_span(); }

  /// Adopts `slab` if the list is still detached. Idempotent; `rewrite`
  /// must be preceded by an attach.
  void attach(RelaySlab& slab) noexcept {
    if (slab_ == nullptr) slab_ = &slab;
  }

  /// The relayed neighbor ids, sorted ascending.
  [[nodiscard]] std::span<const topology::ProtocolId> ids() const noexcept {
    return {data(), ids_};
  }
  [[nodiscard]] bool has_head() const noexcept { return head_ != 0; }
  /// The best head record; only when `has_head()`.
  [[nodiscard]] HeadRecord head() const noexcept {
    return get_head(data() + ids_);
  }
  /// The whole span: the ids, then the record's words if there is one.
  [[nodiscard]] std::span<const RelayWord> words() const noexcept {
    return {data(), word_count()};
  }
  [[nodiscard]] std::size_t word_count() const noexcept {
    return ids_ + kHeadWords * head_;
  }

  /// Reshapes the list to `ids` ids and, if `head`, a record, and returns
  /// its words for the caller to fill (previous contents are lost). The
  /// span is reused when it is large enough; otherwise it is released
  /// and a new one allocated, which may compact the slab — every list of
  /// the slab must be reachable through `for_each_list` (see
  /// RelaySlab::allocate).
  template <typename ForEachList>
  RelayWord* rewrite(std::size_t ids, bool head, ForEachList&& for_each_list) {
    const auto need =
        static_cast<std::uint32_t>(ids + (head ? kHeadWords : 0));
    if (need > cap_) {
      release_span();
      off_ = slab_->allocate(need, for_each_list);
      cap_ = need;
    }
    ids_ = static_cast<std::uint32_t>(ids);
    head_ = head ? 1 : 0;
    return slab_->at(off_);
  }

 private:
  friend class RelaySlab;

  [[nodiscard]] const RelayWord* data() const noexcept {
    return slab_ ? slab_->at(off_) : nullptr;
  }
  void release_span() noexcept {
    if (slab_ != nullptr && cap_ != 0) slab_->release(cap_);
    off_ = cap_ = ids_ = head_ = 0;
  }
  void forget() noexcept {
    slab_ = nullptr;
    off_ = cap_ = ids_ = head_ = 0;
  }

  RelaySlab* slab_ = nullptr;
  std::uint32_t off_ = 0;
  std::uint32_t cap_ = 0;
  std::uint32_t ids_ = 0;
  std::uint32_t head_ = 0;  ///< 1 when the span ends in a head record
};

template <typename ForEachList>
std::uint32_t RelaySlab::allocate(std::uint32_t cap,
                                  ForEachList&& for_each_list) {
  if (static_cast<std::size_t>(cursor_) + cap > buf_.size()) {
    if (dead_ != 0) compact(for_each_list);
    const std::size_t need = static_cast<std::size_t>(cursor_) + cap;
    if (need * 8 > buf_.size() * 7) {
      buf_.resize(std::max(need + need / 2, kMinWords));
    }
  }
  const std::uint32_t off = cursor_;
  cursor_ += cap;
  return off;
}

template <typename ForEachList>
void RelaySlab::compact(ForEachList&& for_each_list) {
  // Slide spans down in ascending offset order, so each move only
  // overwrites words already moved or dead. The next span to move is
  // the one with the smallest offset above the last one moved: moved
  // spans sit at or below that bound, unmoved ones above it.
  std::uint32_t top = 0;
  std::uint32_t bound = 0;
  bool first = true;
  for (;;) {
    RelayList* next = nullptr;
    for_each_list([&](RelayList& list) {
      if (list.cap_ == 0 || (!first && list.off_ <= bound)) return;
      if (next == nullptr || list.off_ < next->off_) next = &list;
    });
    if (next == nullptr) break;
    first = false;
    bound = next->off_;
    const auto words = static_cast<std::uint32_t>(next->word_count());
    std::memmove(buf_.data() + top, buf_.data() + next->off_,
                 words * sizeof(RelayWord));
    next->off_ = top;
    next->cap_ = words;  // compaction drops slack
    top += words;
  }
  cursor_ = top;
  dead_ = 0;
}

}  // namespace ssmwn::core
