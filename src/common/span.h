#ifndef UMGAD_COMMON_SPAN_H_
#define UMGAD_COMMON_SPAN_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace umgad {

/// Non-owning read-only view over a contiguous array. The accessor type of
/// SparseMatrix's CSR arrays: owned matrices view their internal vectors,
/// `.umgb`-loaded matrices view the file image directly, and callers cannot
/// tell the difference. Implicitly constructible from const std::vector<T>&
/// so existing `const auto& rp = m.row_ptr();` call sites keep working.
///
/// Like all views, a ConstSpan is valid only while its backing storage is —
/// for matrices that is managed by the SparseMatrix itself (vectors or a
/// keepalive on the image), so spans obtained from accessors share the
/// matrix's lifetime.
template <typename T>
class ConstSpan {
 public:
  ConstSpan() = default;
  ConstSpan(const T* data, size_t size) : data_(data), size_(size) {}
  // NOLINTNEXTLINE(google-explicit-constructor): deliberate implicit view.
  ConstSpan(const std::vector<T>& v) : data_(v.data()), size_(v.size()) {}

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](size_t i) const { return data_[i]; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }

  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  std::vector<T> ToVector() const { return std::vector<T>(begin(), end()); }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

template <typename T>
inline bool operator==(ConstSpan<T> a, ConstSpan<T> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

template <typename T>
inline bool operator!=(ConstSpan<T> a, ConstSpan<T> b) {
  return !(a == b);
}

}  // namespace umgad

#endif  // UMGAD_COMMON_SPAN_H_
