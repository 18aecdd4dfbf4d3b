#include "load_client.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "common.h"
#include "serve/server.h"
#include "util/logging.h"

namespace perfbench {

namespace {

int Connect(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  DIAL_CHECK(fd >= 0) << "socket(): " << std::strerror(errno);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  DIAL_CHECK(socket_path.size() < sizeof(addr.sun_path)) << socket_path;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  DIAL_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      << "connect(" << socket_path << "): " << std::strerror(errno);
  return fd;
}

void SleepUntilNs(int64_t target_ns) {
  const int64_t now = NowNs();
  if (target_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(target_ns - now));
  }
}

}  // namespace

int64_t ResponseSeq(const std::string& response) {
  const size_t pos = response.find("\"id\":\"");
  if (pos == std::string::npos) return -1;
  const char* digits = response.c_str() + pos + 6;
  char* end = nullptr;
  const long long seq = std::strtoll(digits, &end, 10);
  if (end == digits || *end != '"') return -1;
  return seq;
}

LoadClient::LoadClient(const std::string& socket_path, size_t connections) {
  for (size_t c = 0; c < connections; ++c) fds_.push_back(Connect(socket_path));
}

LoadClient::~LoadClient() {
  for (const int fd : fds_) ::close(fd);
}

namespace {

/// Reads responses off every connection and files each under its schedule
/// index (the thread that calls Poll owns the result's responses).
class ResponseReader {
 public:
  ResponseReader(const std::vector<int>& fds, WireResult& result)
      : result_(result),
        buffers_(fds.size()),
        done_(new std::atomic<int64_t>[result.sent_ns.size()]) {
    for (const int fd : fds) polls_.push_back(pollfd{fd, POLLIN, 0});
    for (size_t i = 0; i < result.sent_ns.size(); ++i) {
      done_[i].store(0, std::memory_order_relaxed);
    }
  }

  /// Waits up to `timeout_ms` for input and files every complete response;
  /// returns how many arrived.
  size_t Poll(int timeout_ms) {
    const int ready = ::poll(polls_.data(), polls_.size(), timeout_ms);
    if (ready <= 0) return 0;
    const size_t before = received_;
    for (size_t c = 0; c < polls_.size(); ++c) {
      if ((polls_[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t got = dial::serve::ReadRetry(polls_[c].fd, chunk_, sizeof(chunk_));
      if (got <= 0) {
        polls_[c].fd = -1;  // server closed it; poll ignores negative fds
        continue;
      }
      const int64_t now = NowNs();
      std::string& buffer = buffers_[c];
      buffer.append(chunk_, static_cast<size_t>(got));
      size_t begin = 0;
      size_t newline;
      while ((newline = buffer.find('\n', begin)) != std::string::npos) {
        std::string line = buffer.substr(begin, newline - begin);
        begin = newline + 1;
        const int64_t seq = ResponseSeq(line);
        if (seq < 0 || static_cast<size_t>(seq) >= result_.sent_ns.size() ||
            done(static_cast<size_t>(seq))) {
          continue;  // unattributable or duplicate: the request stays missing
        }
        result_.responses[static_cast<size_t>(seq)] = std::move(line);
        done_[static_cast<size_t>(seq)].store(now, std::memory_order_release);
        ++received_;
      }
      buffer.erase(0, begin);
    }
    return received_ - before;
  }

  /// Safe from any thread.
  bool done(size_t i) const { return done_[i].load(std::memory_order_acquire) != 0; }
  size_t received() const { return received_; }

  void CopyDoneTimes() {
    result_.done_ns.resize(result_.sent_ns.size());
    for (size_t i = 0; i < result_.done_ns.size(); ++i) result_.done_ns[i] = done_[i].load();
  }

 private:
  WireResult& result_;
  std::vector<pollfd> polls_;
  std::vector<std::string> buffers_;
  std::unique_ptr<std::atomic<int64_t>[]> done_;
  size_t received_ = 0;
  char chunk_[65536];
};

WireResult EmptyResult(size_t n) {
  WireResult result;
  result.due_ns.assign(n, 0);
  result.sent_ns.assign(n, 0);
  result.responses.assign(n, std::string());
  return result;
}

}  // namespace

WireResult LoadClient::Run(const std::vector<WireRequest>& schedule,
                           double drain_timeout_s) {
  const size_t n = schedule.size();
  WireResult result = EmptyResult(n);
  ResponseReader reader(fds_, result);
  std::atomic<bool> writer_done{false};
  std::atomic<int64_t> last_send_ns{0};
  const int64_t drain_ns = static_cast<int64_t>(drain_timeout_s * 1e9);

  std::thread reader_thread([&] {
    while (reader.received() < n) {
      if (writer_done.load(std::memory_order_acquire) &&
          NowNs() > last_send_ns.load() + drain_ns) {
        break;  // stragglers count as missing
      }
      reader.Poll(20);
    }
  });

  result.start_ns = NowNs();
  for (size_t i = 0; i < n; ++i) {
    const WireRequest& request = schedule[i];
    result.due_ns[i] = result.start_ns + request.due_ns;
    SleepUntilNs(result.due_ns[i]);
    if (request.wait_for >= 0) {
      const int64_t give_up = NowNs() + drain_ns;
      while (!reader.done(static_cast<size_t>(request.wait_for)) && NowNs() < give_up) {
        std::this_thread::yield();
      }
    }
    result.sent_ns[i] = NowNs();
    if (!dial::serve::SendAll(fds_[request.conn], request.line.data(),
                              request.line.size())) {
      result.sent_ns[i] = 0;  // peer gone; counted missing
    }
    last_send_ns.store(result.sent_ns[i] != 0 ? result.sent_ns[i] : NowNs());
  }
  writer_done.store(true, std::memory_order_release);
  reader_thread.join();
  reader.CopyDoneTimes();
  return result;
}

WireResult LoadClient::RunWindowed(const std::vector<WireRequest>& schedule, size_t window,
                                   double drain_timeout_s) {
  const size_t n = schedule.size();
  WireResult result = EmptyResult(n);
  ResponseReader reader(fds_, result);
  const int64_t drain_ns = static_cast<int64_t>(drain_timeout_s * 1e9);
  result.start_ns = NowNs();
  int64_t last_progress = result.start_ns;
  size_t next = 0;
  while (reader.received() < n) {
    while (next < n && next - reader.received() < window) {
      const WireRequest& request = schedule[next];
      if (request.wait_for >= 0 && !reader.done(static_cast<size_t>(request.wait_for))) break;
      result.sent_ns[next] = result.due_ns[next] = NowNs();
      if (!dial::serve::SendAll(fds_[request.conn], request.line.data(),
                                request.line.size())) {
        result.sent_ns[next] = 0;  // peer gone; counted missing
      }
      ++next;
    }
    if (reader.Poll(20) > 0) {
      last_progress = NowNs();
    } else if (NowNs() > last_progress + drain_ns) {
      break;  // no progress: what is outstanding counts as missing
    }
  }
  reader.CopyDoneTimes();
  return result;
}

}  // namespace perfbench
