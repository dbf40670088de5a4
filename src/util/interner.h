// Arena-backed string interning for identifier-heavy structures.
//
// An Interner copies every string it is handed into a chunked character
// arena and returns a Symbol: a NUL-terminated, non-owning view whose
// storage lives exactly as long as the arena.  Structures that hold
// many small identifiers (the Netlist's node-name table, the snapshot
// loader) intern once and store 16-byte Symbols instead of per-entry
// std::string allocations.
//
// Stability contract: arena chunks are heap blocks owned through
// unique_ptr, so moving an Interner (or a structure embedding one)
// never relocates interned bytes — every Symbol stays valid.  Copying
// is deliberately deleted: a copied structure must re-intern into its
// own arena (see Netlist's copy constructor).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace sldm {

/// A non-owning, NUL-terminated interned string.  Cheap to copy and
/// compare; converts implicitly to string_view for lookups.  The
/// default Symbol is the empty string (valid c_str()).
class Symbol {
 public:
  constexpr Symbol() = default;
  constexpr Symbol(const char* data, std::size_t size)
      : data_(data), size_(static_cast<std::uint32_t>(size)) {}

  constexpr std::string_view view() const {
    return std::string_view(data_, size_);
  }
  constexpr operator std::string_view() const { return view(); }

  /// Valid C string: the interner stores a trailing NUL.
  constexpr const char* c_str() const { return data_; }
  std::string str() const { return std::string(view()); }

  constexpr std::size_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }

  friend constexpr bool operator==(Symbol a, Symbol b) {
    return a.view() == b.view();
  }
  friend constexpr bool operator==(Symbol a, std::string_view b) {
    return a.view() == b;
  }
  friend constexpr auto operator<=>(Symbol a, Symbol b) {
    return a.view() <=> b.view();
  }

 private:
  const char* data_ = "";
  std::uint32_t size_ = 0;
};

inline std::ostream& operator<<(std::ostream& os, Symbol s) {
  return os << s.view();
}
inline std::string operator+(const char* lhs, Symbol rhs) {
  return std::string(lhs) + rhs.str();
}
inline std::string operator+(Symbol lhs, const char* rhs) {
  return lhs.str() + rhs;
}
inline std::string operator+(const std::string& lhs, Symbol rhs) {
  return lhs + rhs.str();
}
inline std::string operator+(Symbol lhs, const std::string& rhs) {
  return lhs.str() + rhs;
}

/// The arena.  intern() is O(length); no deduplication is performed
/// (callers that need uniqueness, like Netlist::add_node, look the name
/// up in their own index first).
class Interner {
 public:
  Interner() = default;
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;
  Interner(Interner&&) = default;
  Interner& operator=(Interner&&) = default;

  /// Copies `s` (plus a NUL) into the arena and returns its Symbol.
  Symbol intern(std::string_view s) {
    const std::size_t need = s.size() + 1;  // trailing NUL
    if (need > kChunkSize - used_ || chunks_.empty()) {
      const std::size_t cap = need > kChunkSize ? need : kChunkSize;
      chunks_.push_back(std::make_unique<char[]>(cap));
      chunk_bytes_ += cap;
      used_ = 0;
    }
    char* dst = chunks_.back().get() + used_;
    if (!s.empty()) std::memcpy(dst, s.data(), s.size());
    dst[s.size()] = '\0';
    used_ += need;
    return Symbol(dst, s.size());
  }

  /// Heap bytes held: the chunks and the table that owns them.
  std::size_t bytes() const {
    return chunk_bytes_ +
           chunks_.capacity() * sizeof(std::unique_ptr<char[]>);
  }

 private:
  static constexpr std::size_t kChunkSize = 1 << 14;
  std::vector<std::unique_ptr<char[]>> chunks_;
  std::size_t used_ = kChunkSize;  ///< bytes used in chunks_.back()
  std::size_t chunk_bytes_ = 0;    ///< sum of the chunks' sizes
};

}  // namespace sldm
