#ifndef CCAM_COMMON_CODING_H_
#define CCAM_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace ccam {

/// Little-endian fixed-width encoding helpers used by the on-page record and
/// index formats. All encodings are explicit little-endian regardless of the
/// host byte order so that simulated disk images are portable.

inline void EncodeFixed16(char* dst, uint16_t value) {
  dst[0] = static_cast<char>(value & 0xff);
  dst[1] = static_cast<char>((value >> 8) & 0xff);
}

inline void EncodeFixed32(char* dst, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    dst[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

inline void EncodeFixed64(char* dst, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    dst[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

inline uint16_t DecodeFixed16(const char* src) {
  return static_cast<uint16_t>(static_cast<unsigned char>(src[0])) |
         static_cast<uint16_t>(static_cast<unsigned char>(src[1])) << 8;
}

inline uint32_t DecodeFixed32(const char* src) {
  uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | static_cast<unsigned char>(src[i]);
  }
  return value;
}

inline uint64_t DecodeFixed64(const char* src) {
  uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | static_cast<unsigned char>(src[i]);
  }
  return value;
}

/// Encodes an IEEE-754 float/double through its bit pattern.
inline void EncodeFloat(char* dst, float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  EncodeFixed32(dst, bits);
}

inline float DecodeFloat(const char* src) {
  uint32_t bits = DecodeFixed32(src);
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

inline void EncodeDouble(char* dst, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  EncodeFixed64(dst, bits);
}

inline double DecodeDouble(const char* src) {
  uint64_t bits = DecodeFixed64(src);
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) over
/// `n` bytes — the checksum of the page seals and the delta-log record frames.
/// Software slicing-by-8; the value matches hardware SSE4.2 CRC32C.
uint32_t Crc32c(const void* data, size_t n);

/// Incremental form: extends a running CRC32C (`crc` is the value returned
/// by a previous call, or 0 to start).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// Append-style helpers for building byte strings.
void PutFixed16(std::string* dst, uint16_t value);
void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);
void PutFloat(std::string* dst, float value);
void PutDouble(std::string* dst, double value);

/// Cursor over a byte buffer for sequential decoding. The caller is expected
/// to know the layout; Remaining() guards against overruns.
class Decoder {
 public:
  Decoder(const char* data, size_t size) : data_(data), size_(size) {}

  size_t Remaining() const { return size_ - pos_; }
  bool Ok() const { return ok_; }

  uint16_t GetFixed16();
  uint32_t GetFixed32();
  uint64_t GetFixed64();
  float GetFloat();
  double GetDouble();
  /// Copies `n` raw bytes into `out`; marks the decoder failed on overrun.
  void GetBytes(char* out, size_t n);

 private:
  bool Check(size_t n);

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ccam

#endif  // CCAM_COMMON_CODING_H_
