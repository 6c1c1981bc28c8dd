// Shared flat-buffer serialization: little-endian encode/decode, the
// checksum fold, and the framed wire protocol the distributed transport
// speaks -- ONE copy shared by checkpoint() and the src/dist/ transport.
// Everything here is format, not policy: no I/O, no simulator types.
//
// The codec works on whole words, not bytes: each fixed-width field is one
// memcpy of its native representation (the host must be little-endian, see
// the static_assert below), and checksum64 folds 8-byte words.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     4  magic      0x46637664 ("dvcF" on the wire)
//        4     1  version    kFrameVersion
//        5     1  type       opaque to this layer (dist defines the enum)
//        6     2  reserved   zero
//        8     4  phase      int32, -1 when not phase-scoped
//       12     4  round      int32, -1 when not round-scoped
//       16     4  length     payload byte count
//       20   len  payload
//   20+len     8  checksum   checksum64(kFrameMagic, header+payload)
//
// The trailing checksum is the same digest_mix fold the checkpoint trailer
// uses: any flipped bit or truncation anywhere in the frame changes it, and
// decoding raises dvc::corruption_error -- never silent damage.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"

namespace dvc::wire {

static_assert(std::endian::native == std::endian::little,
              "the wire codec memcpy's native integers: the host must be "
              "little-endian");

/// Order-dependent fold of a byte stream under `seed`, shared by the
/// checkpoint and frame trailers: each 8-byte little-endian word, then the
/// 0-7 tail bytes (if any) zero-padded to one word, then the byte length,
/// which keeps buffers that differ only by trailing zero bytes apart.
inline std::uint64_t checksum64(std::uint64_t seed,
                                std::span<const std::uint8_t> bytes) {
  std::uint64_t h = seed;
  const std::size_t whole = bytes.size() & ~std::size_t{7};
  for (std::size_t i = 0; i < whole; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = dvc::detail::digest_mix(h, w);
  }
  if (whole < bytes.size()) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, bytes.data() + whole, bytes.size() - whole);
    h = dvc::detail::digest_mix(h, tail);
  }
  return dvc::detail::digest_mix(h, bytes.size());
}

/// Little-endian append-only encoder for flat buffers.
struct ByteWriter {
  std::vector<std::uint8_t> buf;
  void u8(std::uint8_t v) { buf.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i32(std::int32_t v) { put(v); }
  void i64(std::int64_t v) { put(v); }
  /// Raw bytes, no length prefix.
  void bytes(std::span<const std::uint8_t> b) {
    buf.insert(buf.end(), b.begin(), b.end());
  }
  /// A run of i64 words in one copy, no length prefix.
  void i64s(std::span<const std::int64_t> v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    buf.insert(buf.end(), p, p + v.size_bytes());
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

 private:
  template <typename T>
  void put(T v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    buf.insert(buf.end(), p, p + sizeof(T));
  }
};

/// Little-endian decoder over a borrowed buffer. Every read is bounds
/// checked once: running past the end raises corruption_error naming
/// `context` (truncation IS corruption at this layer -- the caller decides
/// whether the transport maps it to something transient instead).
struct ByteReader {
  std::span<const std::uint8_t> buf;
  std::size_t pos = 0;
  const char* context = "wire buffer";
  void need(std::size_t n) {
    if (n > buf.size() - pos) {
      throw corruption_error(
          std::string(context) + " truncated: ran past its end while decoding",
          /*phase_label=*/"", /*phase=*/-1, /*round=*/-1, 0, 0);
    }
  }
  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int32_t i32() { return get<std::int32_t>(); }
  std::int64_t i64() { return get<std::int64_t>(); }
  /// A view of the next n raw bytes.
  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    const auto view = buf.subspan(pos, n);
    pos += n;
    return view;
  }
  /// Appends the next n i64 words to `out` in one copy; bounds checked
  /// before `out` grows, so a corrupt count cannot become an allocation.
  void i64s(std::uint32_t n, std::vector<std::int64_t>& out) {
    const std::span<const std::uint8_t> src = bytes(n * sizeof(std::int64_t));
    const std::size_t at = out.size();
    out.resize(at + n);
    std::copy_n(src.data(), src.size(),
                reinterpret_cast<std::uint8_t*>(out.data() + at));
  }
  std::string str() {
    const std::span<const std::uint8_t> s = bytes(u32());
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

 private:
  template <typename T>
  T get() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, buf.data() + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }
};

// ---------------------------------------------------------------------------
// Framing

inline constexpr std::uint32_t kFrameMagic = 0x46637664;  // "dvcF"
inline constexpr std::uint8_t kFrameVersion = 3;
inline constexpr std::size_t kFrameHeaderBytes = 20;
inline constexpr std::size_t kFrameTrailerBytes = 8;
/// Sanity cap on a single frame's payload (1 GiB): a length field beyond it
/// is treated as corruption, not an allocation request.
inline constexpr std::uint32_t kFrameMaxPayload = 1u << 30;

struct FrameHeader {
  std::uint8_t type = 0;
  std::int32_t phase = -1;
  std::int32_t round = -1;
  std::uint32_t payload_len = 0;
};

/// An oversized frame is a sender bug, rejected before its payload is read.
inline void check_frame_payload(std::size_t len) {
  DVC_ENSURE(len <= kFrameMaxPayload,
             "encode_frame: payload of " + std::to_string(len) +
                 " bytes exceeds the frame cap of " +
                 std::to_string(kFrameMaxPayload));
}

/// A writer whose buffer starts with the header hole seal_frame fills.
inline ByteWriter open_frame() {
  return {std::vector<std::uint8_t>(kFrameHeaderBytes)};
}

/// Seals an open_frame() buffer (the header hole, then the payload) in
/// place: writes the header over the hole and appends the checksum, so the
/// payload is never copied again.
inline std::vector<std::uint8_t> seal_frame(
    std::uint8_t type, std::int32_t phase, std::int32_t round,
    std::vector<std::uint8_t>&& buf) {
  DVC_ENSURE(buf.size() >= kFrameHeaderBytes, "seal_frame: no header hole");
  const std::size_t len = buf.size() - kFrameHeaderBytes;
  check_frame_payload(len);
  // Five u32 words; the second packs version, type and the reserved u16.
  const std::uint32_t head[5] = {
      kFrameMagic, kFrameVersion | std::uint32_t{type} << 8,
      static_cast<std::uint32_t>(phase), static_cast<std::uint32_t>(round),
      static_cast<std::uint32_t>(len)};
  std::memcpy(buf.data(), head, kFrameHeaderBytes);
  ByteWriter w{std::move(buf)};
  w.u64(checksum64(kFrameMagic, w.buf));
  return std::move(w.buf);
}

/// Encode a complete frame: header, payload, trailing checksum.
inline std::vector<std::uint8_t> encode_frame(
    std::uint8_t type, std::int32_t phase, std::int32_t round,
    std::span<const std::uint8_t> payload) {
  check_frame_payload(payload.size());
  ByteWriter w = open_frame();
  w.bytes(payload);
  return seal_frame(type, phase, round, std::move(w.buf));
}

/// Decode and validate the fixed 20-byte header (magic, version, sane
/// length). Throws corruption_error on any mismatch.
inline FrameHeader decode_frame_header(std::span<const std::uint8_t> hdr) {
  ByteReader r{hdr, 0, "frame header"};
  r.need(kFrameHeaderBytes);
  FrameHeader h;
  const std::uint32_t magic = r.u32();
  if (magic != kFrameMagic) {
    throw corruption_error("frame header has wrong magic", "", -1, -1,
                           kFrameMagic, magic);
  }
  const std::uint8_t version = r.u8();
  if (version != kFrameVersion) {
    throw corruption_error("frame header has unknown version", "", -1, -1,
                           kFrameVersion, version);
  }
  h.type = r.u8();
  (void)r.u16();  // reserved
  h.phase = r.i32();
  h.round = r.i32();
  h.payload_len = r.u32();
  if (h.payload_len > kFrameMaxPayload) {
    throw corruption_error("frame length field exceeds the sanity cap", "", -1,
                           -1, kFrameMaxPayload, h.payload_len);
  }
  return h;
}

/// Validate a complete frame buffer (header + payload + trailer) and return
/// a view of its payload. Throws corruption_error on truncation, a bad
/// header, or a checksum mismatch.
inline std::span<const std::uint8_t> frame_payload(
    std::span<const std::uint8_t> frame) {
  const FrameHeader h = decode_frame_header(frame);
  const std::size_t want =
      kFrameHeaderBytes + h.payload_len + kFrameTrailerBytes;
  if (frame.size() < want) {
    throw corruption_error("frame truncated before its declared end", "", -1,
                           -1, want, frame.size());
  }
  const std::size_t body = kFrameHeaderBytes + h.payload_len;
  const std::uint64_t stored = ByteReader{frame, body, "frame trailer"}.u64();
  const std::uint64_t computed = checksum64(kFrameMagic, frame.first(body));
  if (stored != computed) {
    throw corruption_error("frame checksum mismatch", "", -1, -1, computed,
                           stored);
  }
  return frame.subspan(kFrameHeaderBytes, h.payload_len);
}

}  // namespace dvc::wire
