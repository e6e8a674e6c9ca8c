// Length-prefixed wire protocol for the `ssmwn serve` daemon.
//
// Framing is deliberately minimal — a 4-byte big-endian payload length
// followed by the payload, whose first byte is the frame type:
//
//   [u32be length][u8 type][length-1 bytes of body]
//
// so `length` counts the type byte plus the body. Types:
//
//   'S'  client → server   campaign spec text (the same `key = value`
//                          format `ssmwn campaign` reads from a file)
//   'R'  server → client   one run result: a comma-joined line
//                          `run,grid,replication,seed,<10 metrics>,windows`
//                          with metrics in aggregate.hpp's kMetricNames
//                          order, formatted by format_double — the exact
//                          byte discipline of the CSV reports
//   'E'  server → client   end of results for the preceding spec; body
//                          is the run count as decimal text
//   'X'  server → client   spec rejected or run failed; body is the
//                          message. The connection stays usable.
//
// Results stream back in plan order regardless of execution order, so a
// client's transcript for a given spec is byte-deterministic — two
// concurrent submissions of the same spec receive identical streams
// (the serve smoke byte-compares them).
//
// A frame longer than kMaxFramePayload is a protocol violation and
// closes the connection: the bound turns a corrupt length prefix into a
// clean error instead of a multi-gigabyte allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ssmwn::serve {

enum class FrameType : unsigned char {
  kSpec = 'S',
  kResult = 'R',
  kEnd = 'E',
  kError = 'X',
};

struct Frame {
  FrameType type = FrameType::kError;
  std::string body;  // payload minus the type byte
};

/// 16 MiB — orders of magnitude above any real spec or result line.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

/// Reads one frame from `fd`, looping over partial reads and EINTR.
/// Returns false on clean end-of-stream (EOF at a frame boundary);
/// throws std::runtime_error on IO errors, EOF mid-frame, a zero-length
/// payload (no type byte), or an oversized length prefix.
[[nodiscard]] bool read_frame(int fd, Frame& out);

/// Writes one frame to socket `fd`, looping over partial writes and
/// EINTR. Throws std::runtime_error on IO errors (a closed peer
/// included: it never raises SIGPIPE) or an oversized body.
void write_frame(int fd, FrameType type, std::string_view body);

}  // namespace ssmwn::serve
