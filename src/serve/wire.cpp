#include "serve/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace ssmwn::serve {

namespace {

[[noreturn]] void fail(const char* what) {
  throw std::runtime_error(std::string("wire: ") + what + ": " +
                           std::strerror(errno));
}

/// Reads exactly `size` bytes. Returns false only when EOF arrives
/// before the FIRST byte (a clean close between frames when
/// `eof_ok_at_start`); EOF later is a torn frame and throws.
bool read_exact(int fd, void* buffer, std::size_t size, bool eof_ok_at_start) {
  auto* out = static_cast<char*>(buffer);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, out + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("read failed");
    }
    if (n == 0) {
      if (got == 0 && eof_ok_at_start) return false;
      throw std::runtime_error("wire: connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// Sends exactly `size` bytes on socket `fd`. MSG_NOSIGNAL turns a
/// vanished peer into EPIPE (a throw) rather than a process-killing
/// SIGPIPE, whatever the embedding process's signal disposition.
void write_exact(int fd, const void* buffer, std::size_t size) {
  const auto* data = static_cast<const char*>(buffer);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write failed");
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

bool read_frame(int fd, Frame& out) {
  unsigned char prefix[4];
  if (!read_exact(fd, prefix, sizeof(prefix), /*eof_ok_at_start=*/true)) {
    return false;
  }
  const std::uint32_t length =
      (static_cast<std::uint32_t>(prefix[0]) << 24) |
      (static_cast<std::uint32_t>(prefix[1]) << 16) |
      (static_cast<std::uint32_t>(prefix[2]) << 8) |
      static_cast<std::uint32_t>(prefix[3]);
  if (length == 0) {
    throw std::runtime_error("wire: zero-length frame (missing type byte)");
  }
  if (length > kMaxFramePayload) {
    throw std::runtime_error("wire: frame exceeds maximum payload size");
  }
  unsigned char type = 0;
  read_exact(fd, &type, 1, /*eof_ok_at_start=*/false);
  out.type = static_cast<FrameType>(type);
  out.body.resize(length - 1);
  if (!out.body.empty()) {
    read_exact(fd, out.body.data(), out.body.size(), /*eof_ok_at_start=*/false);
  }
  return true;
}

void write_frame(int fd, FrameType type, std::string_view body) {
  if (body.size() + 1 > kMaxFramePayload) {
    throw std::runtime_error("wire: frame exceeds maximum payload size");
  }
  const auto length = static_cast<std::uint32_t>(body.size() + 1);
  // One contiguous buffer per frame: a single write keeps frames intact
  // on the wire even if several threads ever shared a descriptor.
  std::string frame;
  frame.reserve(4 + length);
  frame.push_back(static_cast<char>((length >> 24) & 0xffu));
  frame.push_back(static_cast<char>((length >> 16) & 0xffu));
  frame.push_back(static_cast<char>((length >> 8) & 0xffu));
  frame.push_back(static_cast<char>(length & 0xffu));
  frame.push_back(static_cast<char>(type));
  frame.append(body);
  write_exact(fd, frame.data(), frame.size());
}

}  // namespace ssmwn::serve
