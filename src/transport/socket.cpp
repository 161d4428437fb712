#include "transport/socket.hpp"

#include "transport/router_core.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <functional>
#include <map>
#include <thread>
#include <utility>

namespace mpch::transport {

namespace {

/// Identical payloads from one sender to at least this many destinations
/// ship as one broadcast frame fanned out via the router tree.
constexpr std::size_t kBroadcastMinFanout = 4;

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError("socket transport: " + what + ": " + std::strerror(errno));
}

/// Blocking full write; MSG_NOSIGNAL so a dead peer surfaces as EPIPE, not
/// a process-killing SIGPIPE.
void write_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t w = ::send(fd, data, size, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("send failed");
    }
    data += w;
    size -= static_cast<std::size_t>(w);
  }
}

/// One recv into the decoder. Returns false on orderly peer close (EOF);
/// on EAGAIN (non-blocking fds) reads nothing and returns true.
bool recv_into(int fd, FrameDecoder& decoder) {
  std::uint8_t buf[4096];
  const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
  if (r < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return true;
    throw_errno("recv failed");
  }
  if (r == 0) return false;
  decoder.feed(buf, static_cast<std::size_t>(r));
  return true;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK) failed");
  }
}

void append_frame(std::vector<std::uint8_t>& out, const WireFrame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  out.insert(out.end(), bytes.begin(), bytes.end());
}

WireFrame control_frame(FrameType type, std::uint64_t round, std::uint64_t from,
                        std::uint64_t seq = 0) {
  WireFrame f;
  f.type = type;
  f.round = round;
  f.from = from;
  f.seq = seq;
  return f;
}

/// One duplex peer channel inside an exchange: bytes going out, a decoder
/// for bytes coming in, and a flag for "this peer's end token has arrived".
struct Channel {
  int fd = -1;
  FrameDecoder* decoder = nullptr;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  bool expect_token = true;
  bool done = false;
};

/// Deadlock-free bidirectional exchange over non-blocking channels: poll
/// moves bytes in whichever direction is ready, so two routers writing to
/// each other past the socket buffer size make progress instead of
/// deadlocking on blocking send()s. `on_frame` handles each decoded frame
/// and returns true when it was the channel's end token. Frames buffered
/// beyond the token are left in the decoder for the next protocol phase.
void exchange_frames(std::vector<Channel>& channels, const std::function<bool(WireFrame&)>& on_frame) {
  auto pump = [&](Channel& c) {
    while (!c.done) {
      auto frame = c.decoder->next();
      if (!frame) break;
      if (on_frame(*frame)) c.done = true;
    }
  };
  for (auto& c : channels) {
    if (c.expect_token) {
      pump(c);
    } else {
      c.done = true;
    }
  }
  while (true) {
    std::vector<pollfd> fds;
    std::vector<Channel*> owner;
    for (auto& c : channels) {
      short events = 0;
      if (c.out_pos < c.out.size()) events |= POLLOUT;
      if (!c.done) events |= POLLIN;
      if (events != 0) {
        fds.push_back({c.fd, events, 0});
        owner.push_back(&c);
      }
    }
    if (fds.empty()) return;
    const int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll failed");
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Channel& c = *owner[i];
      if (fds[i].revents & POLLOUT) {
        const ssize_t w = ::send(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos,
                                 MSG_NOSIGNAL);
        if (w < 0) {
          if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
            throw_errno("send to peer router failed");
          }
        } else {
          c.out_pos += static_cast<std::size_t>(w);
        }
      }
      if (fds[i].revents & POLLIN) {
        if (!recv_into(c.fd, *c.decoder)) {
          throw TransportError("socket transport: peer router closed mid-exchange");
        }
        pump(c);
      }
      if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) {
        throw TransportError("socket transport: peer router channel error");
      }
    }
  }
}

std::uint64_t ceil_log2(std::uint64_t n) {
  std::uint64_t k = 0;
  while ((1ULL << k) < n) ++k;
  return k;
}

/// The router child process: routes one shard group's frames, round after
/// round, until the parent closes its channel.
struct Router {
  std::uint64_t g = 0;
  std::uint64_t groups = 0;
  std::uint64_t group_size = 0;
  std::uint64_t machines = 0;
  int parent_fd = -1;
  std::vector<int> peer_fd;  ///< mesh channel per peer router; -1 for self

  FrameDecoder parent_decoder;
  std::vector<FrameDecoder> peer_decoder;

  std::uint64_t group_of(std::uint64_t machine) const { return machine / group_size; }

  int run() {
    peer_decoder.resize(groups);
    while (run_round()) {
    }
    return 0;
  }

  /// One round transaction. Returns false on parent EOF (orderly shutdown).
  /// All protocol decisions — routing, broadcast dedup, fanout expansion,
  /// canonical delivery order — live in RouterCore (router_core.hpp), which
  /// mpch-model drives under exhaustive interleavings; this function only
  /// moves the bytes.
  bool run_round() {
    std::uint64_t round = 0;
    RouterCore core(g, groups, group_size, machines);
    std::vector<std::vector<std::uint8_t>> forward(groups);  ///< encoded, per peer

    // Phase 1 — intake from the parent until the round's kFlush token.
    bool flushed = false;
    while (!flushed) {
      while (auto frame = parent_decoder.next()) {
        if (frame->type == FrameType::kFlush) {
          round = frame->round;
          flushed = true;
          break;
        }
        if (frame->type == FrameType::kData) {
          if (auto peer = core.accept_data(*frame); peer.has_value()) {
            append_frame(forward[*peer], *frame);
          }
        } else if (frame->type == FrameType::kBroadcast) {
          core.accept_broadcast(std::move(*frame));
        } else {
          throw TransportError("router: unexpected frame type " +
                               std::to_string(static_cast<unsigned>(frame->type)) +
                               " from parent");
        }
      }
      if (flushed) break;
      if (!recv_into(parent_fd, parent_decoder)) return false;  // parent closed: shut down
    }

    // Phase 2 — point-to-point exchange: every pair of routers trades its
    // forwarded frames, each stream terminated by a kFlush token.
    if (groups > 1) {
      std::vector<Channel> channels;
      for (std::uint64_t p = 0; p < groups; ++p) {
        if (p == g) continue;
        Channel c;
        c.fd = peer_fd[p];
        c.decoder = &peer_decoder[p];
        c.out = std::move(forward[p]);
        append_frame(c.out, control_frame(FrameType::kFlush, round, g));
        channels.push_back(std::move(c));
      }
      exchange_frames(channels, [&](WireFrame& frame) {
        if (frame.type == FrameType::kFlush) return true;
        if (frame.type != FrameType::kData || group_of(frame.to) != g ||
            core.accept_data(frame).has_value()) {
          throw TransportError("router: misrouted frame in point-to-point exchange");
        }
        return false;
      });
    }

    // Phase 3 — binomial-tree dissemination of broadcasts: at stage k this
    // router sends everything it knows to (g + 2^k) mod G and reads from
    // (g - 2^k) mod G until that peer's kStageDone token. After ceil(log2 G)
    // stages every router has every broadcast; (from, seq) dedup in
    // accept_broadcast absorbs the duplicates a non-power-of-two G produces.
    const std::uint64_t stages = ceil_log2(groups);
    for (std::uint64_t k = 0; k < stages; ++k) {
      const std::uint64_t hop = 1ULL << k;
      const std::uint64_t out_peer = (g + hop) % groups;
      const std::uint64_t in_peer = (g + groups - (hop % groups)) % groups;
      std::vector<std::uint8_t> out_bytes;
      for (const WireFrame& b : core.known_broadcasts()) append_frame(out_bytes, b);
      append_frame(out_bytes, control_frame(FrameType::kStageDone, round, g, k));
      std::vector<Channel> channels;
      {
        Channel c;
        c.fd = peer_fd[out_peer];
        c.decoder = &peer_decoder[out_peer];
        c.out = std::move(out_bytes);
        c.expect_token = out_peer == in_peer;  // G == 2: one duplex channel
        channels.push_back(std::move(c));
      }
      if (out_peer != in_peer) {
        Channel c;
        c.fd = peer_fd[in_peer];
        c.decoder = &peer_decoder[in_peer];
        channels.push_back(std::move(c));
      }
      exchange_frames(channels, [&](WireFrame& frame) {
        if (frame.type == FrameType::kStageDone) return true;
        if (frame.type != FrameType::kBroadcast) {
          throw TransportError("router: unexpected frame type in dissemination stage");
        }
        core.accept_broadcast(std::move(frame));
        return false;
      });
    }

    // Phase 4 — deliver this group's inboxes to the parent in the canonical
    // (to, from, seq) order RouterCore::take_local produces, so the
    // parent-side assemblers see each sender's seqs strictly increasing (the
    // protocol InboxAssembler enforces).
    std::vector<std::uint8_t> delivery;
    for (const WireFrame& frame : core.take_local()) append_frame(delivery, frame);
    append_frame(delivery, control_frame(FrameType::kFlushDone, round, g));
    write_all(parent_fd, delivery.data(), delivery.size());
    return true;
  }
};

}  // namespace

SocketTransport::SocketTransport(const TransportOptions& options)
    : requested_processes_(options.processes) {}

SocketTransport::~SocketTransport() { shutdown(); }

void SocketTransport::start(std::uint64_t machines) {
  if (started_) shutdown();
  machines_ = machines;
  groups_ = requested_processes_ != 0 ? std::min(requested_processes_, machines)
                                      : std::min<std::uint64_t>(machines, 2);
  group_size_ = (machines_ + groups_ - 1) / groups_;
  // Ceil-division can leave trailing groups empty (m=5, G=4 -> sizes 2,2,1);
  // recompute so every router owns at least one machine.
  groups_ = (machines_ + group_size_ - 1) / group_size_;

  std::vector<std::array<int, 2>> parent_ch(groups_);
  for (auto& ch : parent_ch) {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, ch.data()) != 0) {
      throw_errno("socketpair(parent) failed");
    }
  }
  // Full mesh for point-to-point routing; the binomial stage edges
  // (g, (g + 2^k) mod G) are pairs too, so they reuse these channels.
  std::vector<std::vector<std::array<int, 2>>> mesh(
      groups_, std::vector<std::array<int, 2>>(groups_, {-1, -1}));
  for (std::uint64_t a = 0; a < groups_; ++a) {
    for (std::uint64_t b = a + 1; b < groups_; ++b) {
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, mesh[a][b].data()) != 0) {
        throw_errno("socketpair(mesh) failed");
      }
    }
  }

  for (std::uint64_t g = 0; g < groups_; ++g) {
    const pid_t pid = ::fork();
    if (pid < 0) throw_errno("fork failed");
    if (pid == 0) {
      // Router child: keep its parent channel and its mesh ends, close the
      // rest, run the router loop, and leave via _exit (never the parent's
      // atexit/destructor path).
      int code = 0;
      try {
        Router router;
        router.g = g;
        router.groups = groups_;
        router.group_size = group_size_;
        router.machines = machines_;
        router.peer_fd.assign(groups_, -1);
        for (std::uint64_t h = 0; h < groups_; ++h) {
          ::close(parent_ch[h][0]);
          if (h != g) ::close(parent_ch[h][1]);
        }
        router.parent_fd = parent_ch[g][1];
        for (std::uint64_t a = 0; a < groups_; ++a) {
          for (std::uint64_t b = a + 1; b < groups_; ++b) {
            if (a == g) {
              router.peer_fd[b] = mesh[a][b][0];
              ::close(mesh[a][b][1]);
            } else if (b == g) {
              router.peer_fd[a] = mesh[a][b][1];
              ::close(mesh[a][b][0]);
            } else {
              ::close(mesh[a][b][0]);
              ::close(mesh[a][b][1]);
            }
          }
        }
        // Mesh channels run the poll-based exchange; non-blocking lets a
        // partial send return instead of stalling the poll loop.
        for (const int fd : router.peer_fd) {
          if (fd >= 0) set_nonblocking(fd);
        }
        code = router.run();
      } catch (...) {
        code = 1;
      }
      ::_exit(code);
    }
    router_pids_.push_back(pid);
  }

  for (std::uint64_t g = 0; g < groups_; ++g) {
    ::close(parent_ch[g][1]);
    router_fds_.push_back(parent_ch[g][0]);
    decoders_.emplace_back();
  }
  for (std::uint64_t a = 0; a < groups_; ++a) {
    for (std::uint64_t b = a + 1; b < groups_; ++b) {
      ::close(mesh[a][b][0]);
      ::close(mesh[a][b][1]);
    }
  }
  started_ = true;
}

void SocketTransport::send(std::uint64_t round, std::uint64_t from,
                           std::vector<mpc::Message> outbox) {
  if (!started_) throw TransportError("socket transport: send before start");
  // Coalesce: identical payloads fanning out to >= kBroadcastMinFanout
  // destinations become one kBroadcast frame (the routers replicate it along
  // the binomial tree); everything else ships as per-message data frames.
  std::map<util::BitString, std::vector<std::pair<std::uint64_t, std::uint64_t>>> by_payload;
  for (std::size_t seq = 0; seq < outbox.size(); ++seq) {
    by_payload[outbox[seq].payload].push_back({outbox[seq].to, seq});
  }
  std::vector<bool> coalesced(outbox.size(), false);
  std::vector<WireFrame> broadcasts;
  for (auto& [payload, fanout] : by_payload) {
    if (fanout.size() < kBroadcastMinFanout) continue;
    WireFrame frame;
    frame.type = FrameType::kBroadcast;
    frame.round = round;
    frame.from = from;
    frame.seq = fanout.front().second;  // unique per sender: seq of first entry
    frame.to = fanout.size();
    frame.fanout = fanout;
    frame.payload = payload;
    for (const auto& [to, seq] : fanout) coalesced[seq] = true;
    broadcasts.push_back(std::move(frame));
  }
  std::vector<std::uint8_t> bytes;
  for (std::size_t seq = 0; seq < outbox.size(); ++seq) {
    if (coalesced[seq]) continue;
    WireFrame frame;
    frame.type = FrameType::kData;
    frame.round = round;
    frame.from = from;
    frame.seq = seq;
    frame.to = outbox[seq].to;
    frame.payload = std::move(outbox[seq].payload);
    append_frame(bytes, frame);
  }
  std::sort(broadcasts.begin(), broadcasts.end(),
            [](const WireFrame& a, const WireFrame& b) { return a.seq < b.seq; });
  for (const WireFrame& frame : broadcasts) append_frame(bytes, frame);
  write_all(router_fds_[static_cast<std::size_t>(group_of(from))], bytes.data(), bytes.size());
}

void SocketTransport::flush(std::uint64_t round) {
  if (!started_) throw TransportError("socket transport: flush before start");
  assemblers_.clear();
  for (std::uint64_t m = 0; m < machines_; ++m) assemblers_.emplace_back(m, round);
  assembled_round_ = round;
  flush_done_.assign(static_cast<std::size_t>(groups_), false);
  for (std::uint64_t g = 0; g < groups_; ++g) {
    const std::vector<std::uint8_t> token =
        encode_frame(control_frame(FrameType::kFlush, round, g));
    write_all(router_fds_[g], token.data(), token.size());
  }
  drain_routers();
}

void SocketTransport::drain_routers() {
  auto pump = [&](std::size_t g) {
    while (!flush_done_[g]) {
      auto frame = decoders_[g].next();
      if (!frame) break;
      if (frame->type == FrameType::kFlushDone) {
        if (frame->round != assembled_round_) {
          throw TransportError("socket transport: router " + std::to_string(g) +
                               " flushed round " + std::to_string(frame->round) +
                               " while assembling round " + std::to_string(assembled_round_));
        }
        flush_done_[g] = true;
        break;
      }
      if (frame->type != FrameType::kData) {
        throw TransportError("socket transport: unexpected frame type " +
                             std::to_string(static_cast<unsigned>(frame->type)) +
                             " from router " + std::to_string(g));
      }
      if (frame->to >= machines_ || frame->round != assembled_round_) {
        throw TransportError("socket transport: misrouted delivery from router " +
                             std::to_string(g) + " (to " + std::to_string(frame->to) +
                             ", round " + std::to_string(frame->round) + ")");
      }
      if (tamper_) tamper_(*frame);
      assemblers_[static_cast<std::size_t>(frame->to)].add(frame->from, frame->seq,
                                                           std::move(frame->payload));
    }
  };
  for (std::size_t g = 0; g < groups_; ++g) pump(g);
  while (true) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> owner;
    for (std::size_t g = 0; g < groups_; ++g) {
      if (!flush_done_[g]) {
        fds.push_back({router_fds_[g], POLLIN, 0});
        owner.push_back(g);
      }
    }
    if (fds.empty()) return;
    const int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll on router channels failed");
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP)) != 0) {
        if (!recv_into(router_fds_[owner[i]], decoders_[owner[i]])) {
          throw TransportError("socket transport: router process " + std::to_string(owner[i]) +
                               " terminated unexpectedly");
        }
        pump(owner[i]);
      } else if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) {
        throw TransportError("socket transport: router channel error");
      }
    }
  }
}

std::vector<mpc::Message> SocketTransport::receive(std::uint64_t round, std::uint64_t to) {
  if (!started_ || round != assembled_round_ || to >= assemblers_.size()) {
    throw TransportError("socket transport: receive(" + std::to_string(round) + ", " +
                         std::to_string(to) + ") without a matching flush");
  }
  return assemblers_[static_cast<std::size_t>(to)].take();
}

bool SocketTransport::idle() const {
  if (!started_) return true;
  for (const auto& assembler : assemblers_) {
    if (assembler.size() != 0) return false;
  }
  for (const auto& decoder : decoders_) {
    if (decoder.pending_bytes() != 0) return false;
  }
  return true;
}

void SocketTransport::shutdown() {
  for (const int fd : router_fds_) ::close(fd);
  router_fds_.clear();
  decoders_.clear();
  assemblers_.clear();
  flush_done_.clear();
  // Routers exit on parent-channel EOF; reap them, escalating to SIGKILL if
  // one is wedged mid-exchange (only reachable after a protocol error).
  for (const pid_t pid : router_pids_) {
    int status = 0;
    bool reaped = false;
    for (int attempt = 0; attempt < 200; ++attempt) {
      const pid_t rc = ::waitpid(pid, &status, WNOHANG);
      if (rc == pid || (rc < 0 && errno == ECHILD)) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!reaped) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
    }
  }
  router_pids_.clear();
  started_ = false;
}

}  // namespace mpch::transport
