#pragma once
// Bounds-checked little-endian byte codec for the control-plane frames
// (util/frame.hpp) and the serve job-state encoding. Writers
// append to a growable buffer; readers consume from a span and latch a
// sticky failure flag on overrun instead of throwing, so decoders read an
// entire message unconditionally and check ok() once at the end —
// truncated or garbage input can never read out of bounds.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace fasda::util {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_le(bits);
  }

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  void reserve(std::size_t n) { buf_.reserve(n); }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::string_view view() const {
    return {reinterpret_cast<const char*>(buf_.data()), buf_.size()};
  }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <class T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& v)
      : ByteReader(v.data(), v.size()) {}
  explicit ByteReader(std::string_view s)
      : ByteReader(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()) {}

  /// False once any read ran past the end; reads after a failure return 0.
  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// A fully consumed, never-overrun buffer — what a strict decoder wants.
  bool done() const { return ok_ && pos_ == size_; }

  std::uint8_t u8() { return take(1) ? data_[pos_ - 1] : 0; }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

 private:
  template <class T>
  T get_le() {
    if (!take(sizeof(T))) return 0;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(data_[pos_ - sizeof(T) + i])
                                 << (8 * i));
    }
    return v;
  }

  bool take(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace fasda::util
