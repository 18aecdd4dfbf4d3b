#ifndef PERFBENCH_LOAD_CLIENT_H_
#define PERFBENCH_LOAD_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Load generator for the dial_serve socket protocol, over several
/// persistent connections. Open loop (Run): one writer thread (the caller)
/// sends every request at its due time; one reader thread polls all
/// connections and stamps each response. Latency is taken from the due
/// time, not the send time, so a stalled generator charges the wait to
/// every request it delayed; how late the writer ran is reported
/// separately. Closed loop (RunWindowed): the caller alone keeps a fixed
/// number of requests in flight, sending the next as a response arrives.
///
/// The socket I/O goes through the serve library's own EINTR-safe
/// `serve::SendAll` / `serve::ReadRetry`.

namespace perfbench {

struct WireRequest {
  /// One request object; must carry "id":"<index into the schedule>".
  std::string line;
  /// Due time, nanoseconds after the phase starts.
  int64_t due_ns = 0;
  size_t conn = 0;
  /// Index of an earlier request whose response must have arrived before
  /// this one is sent (-1 = none). Orders a record's mutations, which the
  /// server may otherwise reorder across op types.
  int64_t wait_for = -1;
};

struct WireResult {
  int64_t start_ns = 0;
  // Absolute steady-clock ns. A closed loop's requests are due when sent.
  std::vector<int64_t> due_ns;
  std::vector<int64_t> sent_ns;  // 0 = not sent
  std::vector<int64_t> done_ns;  // 0 = no response
  std::vector<std::string> responses;

  /// Response latency from the due time, in ms (requests with a response).
  double LatencyMs(size_t i) const { return static_cast<double>(done_ns[i] - due_ns[i]) / 1e6; }
  /// How late request i was sent, in ms.
  double LateMs(size_t i) const { return static_cast<double>(sent_ns[i] - due_ns[i]) / 1e6; }
};

class LoadClient {
 public:
  /// Opens `connections` connections to the server at `socket_path`.
  LoadClient(const std::string& socket_path, size_t connections);
  ~LoadClient();

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Open loop: sends `schedule` (due times ascending) and collects every
  /// response, giving up on stragglers `drain_timeout_s` after the last send.
  WireResult Run(const std::vector<WireRequest>& schedule, double drain_timeout_s);

  /// Closed loop: sends `schedule` in order, ignoring its due times, with at
  /// most `window` requests awaiting a response; gives up once no response
  /// has arrived for `drain_timeout_s`.
  WireResult RunWindowed(const std::vector<WireRequest>& schedule, size_t window,
                         double drain_timeout_s);

 private:
  std::vector<int> fds_;
};

/// Parses the schedule index out of a response's "id":"<n>"; -1 if absent.
int64_t ResponseSeq(const std::string& response);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_CLIENT_H_
