#ifndef GPL_STORAGE_COLUMN_H_
#define GPL_STORAGE_COLUMN_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "storage/dictionary.h"
#include "storage/types.h"

namespace gpl {

/// A typed column of values. Storage is a contiguous vector of the physical
/// representation: int32 for kInt32/kDate/kString (dictionary codes), int64
/// for kInt64 and double for kFloat64. String columns share a Dictionary.
///
/// Columns are cheap to move; copies are explicit deep copies of the data
/// (the dictionary stays shared). Slice() is the one sharing operation: it
/// returns a read-only view of a row range that shares the source's buffer
/// in O(1). The first mutation of a view, or of a column whose buffer a view
/// still shares, copies the rows it covers into a buffer of its own, so a
/// view never observes later writes to its source.
class Column {
 public:
  explicit Column(DataType type, std::shared_ptr<Dictionary> dict = nullptr);

  Column(const Column& other);
  Column& operator=(const Column& other);
  Column(Column&&) = default;
  Column& operator=(Column&&) = default;

  DataType type() const { return type_; }
  int64_t size() const;
  int64_t byte_size() const { return size() * TypeWidth(type_); }

  const std::shared_ptr<Dictionary>& dictionary() const { return dict_; }

  // -- Appends -------------------------------------------------------------

  void AppendInt32(int32_t v) {
    GPL_DCHECK(Is32Bit());
    data32().push_back(v);
  }
  void AppendInt64(int64_t v) {
    GPL_DCHECK(type_ == DataType::kInt64);
    data64().push_back(v);
  }
  void AppendDouble(double v) {
    GPL_DCHECK(type_ == DataType::kFloat64);
    dataf().push_back(v);
  }
  /// Appends a string value, interning it in the shared dictionary.
  void AppendString(const std::string& v) {
    GPL_DCHECK(type_ == DataType::kString);
    data32().push_back(dict_->GetOrInsert(v));
  }

  void Reserve(int64_t n);

  // -- Element access ------------------------------------------------------

  int32_t Int32At(int64_t i) const { return data32_->data()[offset_ + i]; }
  int64_t Int64At(int64_t i) const { return data64_->data()[offset_ + i]; }
  double DoubleAt(int64_t i) const { return dataf_->data()[offset_ + i]; }
  const std::string& StringAt(int64_t i) const {
    return dict_->GetString(Int32At(i));
  }

  /// Value at row `i` widened to double (dictionary code for strings).
  /// Convenient for expression evaluation.
  double AsDouble(int64_t i) const;
  /// Value at row `i` widened to int64 (dictionary code for strings;
  /// truncation for float columns).
  int64_t AsInt64(int64_t i) const;

  // -- Bulk operations -----------------------------------------------------

  /// New column with the rows selected by `indices` (in that order).
  Column Gather(const std::vector<int64_t>& indices) const;

  /// Read-only view of rows [begin, begin+len), sharing this column's
  /// buffer (O(1), no copy).
  Column Slice(int64_t begin, int64_t len) const;

  /// Appends all rows of `other` (must have identical type and, for strings,
  /// the same dictionary instance).
  Status AppendColumn(const Column& other);

  /// Direct access to the physical buffers (for kernels). The const
  /// accessors read the column's rows in place; the mutable ones first give
  /// the column a buffer of its own (see Slice), then expose it for writing.
  std::vector<int32_t>& data32() { return Own(&data32_); }
  std::span<const int32_t> data32() const { return Rows(data32_); }
  std::vector<int64_t>& data64() { return Own(&data64_); }
  std::span<const int64_t> data64() const { return Rows(data64_); }
  std::vector<double>& dataf() { return Own(&dataf_); }
  std::span<const double> dataf() const { return Rows(dataf_); }

 private:
  template <typename T>
  using Buffer = std::shared_ptr<std::vector<T>>;

  bool Is32Bit() const {
    return type_ == DataType::kInt32 || type_ == DataType::kDate ||
           type_ == DataType::kString;
  }

  /// This column's rows of `buf` (empty when the buffer is unset, as after
  /// a move).
  template <typename T>
  std::span<const T> Rows(const Buffer<T>& buf) const {
    if (buf == nullptr) return {};
    return view_ ? std::span<const T>(buf->data() + offset_,
                                      static_cast<size_t>(view_rows_))
                 : std::span<const T>(*buf);
  }

  /// Makes `*buf` a buffer this column alone owns and reads in full,
  /// copying its rows first when it is a view or shares the buffer. The
  /// common case, an owned unshared buffer, only reads, so concurrent
  /// writers of disjoint rows may each call the accessor.
  template <typename T>
  std::vector<T>& Own(Buffer<T>* buf) {
    if (!view_ && *buf != nullptr && buf->use_count() == 1) [[likely]] {
      return **buf;
    }
    return Unshare(buf);
  }

  template <typename T>
  [[gnu::noinline]] std::vector<T>& Unshare(Buffer<T>* buf) {
    const std::span<const T> rows = Rows(*buf);
    *buf = std::make_shared<std::vector<T>>(rows.begin(), rows.end());
    view_ = false;
    offset_ = 0;
    view_rows_ = 0;
    return **buf;
  }

  DataType type_;
  std::shared_ptr<Dictionary> dict_;
  // Only the buffer of the column's physical type is set.
  Buffer<int32_t> data32_;
  Buffer<int64_t> data64_;
  Buffer<double> dataf_;
  // A view reads rows [offset_, offset_ + view_rows_) of a shared buffer;
  // an owning column reads its whole buffer and has offset_ 0.
  bool view_ = false;
  int64_t offset_ = 0;
  int64_t view_rows_ = 0;
};

}  // namespace gpl

#endif  // GPL_STORAGE_COLUMN_H_
