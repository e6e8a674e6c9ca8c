// Sorted flat-vector map for per-node neighbor caches.
//
// The protocol keeps one cache entry per heard neighbor, iterates the
// whole cache in id order every step (rules R1/R2 and frame building),
// and inserts/erases only when topology or delivery luck changes. A
// std::map fits that access pattern badly: every entry is its own heap
// node, so the O(deg²) density rule chases pointers all over the heap.
// FlatMap stores entries contiguously, sorted by key — iteration is a
// linear scan, lookup a binary search, and steady-state steps never
// allocate. Insert/erase shift the tail, which is O(deg) — irrelevant
// for radio degrees and only paid when the neighborhood actually
// changes.
//
// The interface is the subset of std::map the protocol and its tests
// use; iteration order (ascending key) is identical, so swapping the
// container is behavior-preserving bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace ssmwn::core {

template <typename Key, typename Value>
class FlatMap {
 public:
  /// Public members named like std::map's value_type so structured
  /// bindings and `it->first` / `it->second` keep working.
  struct Item {
    Key first;
    Value second;
  };

  using iterator = typename std::vector<Item>::iterator;
  using const_iterator = typename std::vector<Item>::const_iterator;

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }

  [[nodiscard]] iterator begin() noexcept { return items_.begin(); }
  [[nodiscard]] iterator end() noexcept { return items_.end(); }
  [[nodiscard]] const_iterator begin() const noexcept {
    return items_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return items_.end(); }
  /// The items' address, `size()` of them contiguous in key order; safe
  /// on an empty map, where `&*begin()` is not.
  [[nodiscard]] const Item* data() const noexcept { return items_.data(); }

  [[nodiscard]] iterator find(const Key& key) noexcept {
    auto it = lower_bound(key);
    return (it != items_.end() && it->first == key) ? it : items_.end();
  }
  [[nodiscard]] const_iterator find(const Key& key) const noexcept {
    auto it = lower_bound(key);
    return (it != items_.end() && it->first == key) ? it : items_.end();
  }

  [[nodiscard]] bool contains(const Key& key) const noexcept {
    return find(key) != items_.end();
  }

  /// Inserts a default-constructed value at the sorted position if absent.
  ///
  /// Self-aliasing safe: `key` may be a reference into this map's own
  /// storage (`m[m.begin()->first]`, a key field inside a stored value).
  /// The insert shifts the tail — and may reallocate — which would leave
  /// such a reference dangling mid-insert, so the key is copied to a
  /// local before any storage moves.
  Value& operator[](const Key& key) {
    const std::size_t pos =
        static_cast<std::size_t>(lower_bound(key) - items_.begin());
    if (pos < items_.size() && items_[pos].first == key) {
      return items_[pos].second;
    }
    const Key stable_key = key;  // `key` may alias into items_
    items_.insert(items_.begin() + static_cast<std::ptrdiff_t>(pos),
                  Item{stable_key, Value{}});
    return items_[pos].second;
  }

  iterator erase(iterator it) { return items_.erase(it); }

  /// Erases by key; returns true if an entry was removed.
  bool erase(const Key& key) {
    auto it = find(key);
    if (it == items_.end()) return false;
    items_.erase(it);
    return true;
  }

  /// Capacity is retained across `clear()` — after warm-up, re-filling
  /// to at most the high-water size never touches the heap. The per-node
  /// digest pools and the zero-allocation audit rely on this.
  void clear() noexcept { items_.clear(); }

  void reserve(std::size_t n) { items_.reserve(n); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return items_.capacity();
  }

 private:
  [[nodiscard]] iterator lower_bound(const Key& key) noexcept {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const Item& item, const Key& k) { return item.first < k; });
  }
  [[nodiscard]] const_iterator lower_bound(const Key& key) const noexcept {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const Item& item, const Key& k) { return item.first < k; });
  }

  std::vector<Item> items_;
};

}  // namespace ssmwn::core
